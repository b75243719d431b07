package experiments

import (
	"testing"
	"time"
)

// smallCfg keeps smoke tests fast: a 24-node cluster, 64 KiB pages,
// 2 reps, high modeled bandwidth so shaping costs stay tiny.
func smallCfg() Config {
	cfg := Config{
		Nodes:     24,
		Bandwidth: 500 << 20,
		Latency:   50 * time.Microsecond,
		Reps:      2,
		Seed:      1,
	}
	cfg.MetaProviders = 3
	cfg.BlockSize = 64 << 10
	cfg.CacheBytes = -1 // as cmd/experiments defaults it: measure the network
	return cfg
}

func TestFig3Smoke(t *testing.T) { fig3Smoke(t) }

// fig3Smoke runs Fig 3's smoke sweep, checks its shape and returns its
// points. It and the other *Smoke helpers report with Errorf, never
// Fatal, so the virtual time test can run them inside a synctest
// bubble's goroutine.
func fig3Smoke(t *testing.T) []Point {
	series, err := Fig3(smallCfg(), []int{1, 4, 8})
	if err != nil {
		t.Error(err)
		return nil
	}
	if len(series.Points) != 3 {
		t.Errorf("points = %d", len(series.Points))
		return nil
	}
	for _, p := range series.Points {
		if p.Y <= 0 {
			t.Errorf("N=%g: throughput %g", p.X, p.Y)
		}
	}
	// Shape: single-client throughput should be at least as good as
	// the most contended point (generous 1.05 slack for noise).
	first, last := series.Points[0].Y, series.Points[len(series.Points)-1].Y
	if last > first*1.5 {
		t.Errorf("throughput grew with contention: %g -> %g", first, last)
	}
	return series.Points
}

func TestFig4Fig5Smoke(t *testing.T) {
	cfg := smallCfg()
	s4, err := Fig4(cfg, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s4.Points) != 2 || s4.Points[0].Y <= 0 || s4.Points[1].Y <= 0 {
		t.Fatalf("fig4 = %+v", s4.Points)
	}
	s5, err := Fig5(cfg, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s5.Points) != 2 || s5.Points[0].Y <= 0 || s5.Points[1].Y <= 0 {
		t.Fatalf("fig5 = %+v", s5.Points)
	}

	// No sample of the shared loop may beat its client's modeled NIC:
	// a timed append ends at its completion ack, a timed read at its
	// last byte. This runs at the command's defaults, a 256 KiB chunk
	// on a 12.5 MB/s NIC (20 ms a chunk, far above simnet's 1 ms sleep
	// floor, so it holds in real time too), with 4 readers and 4
	// appenders of 4 chunks each.
	cfg.Bandwidth = 12.5 * (1 << 20)
	cfg.BlockSize = 256 << 10
	nic := cfg.Bandwidth / (1 << 20)
	var reads, appends []Sample
	err = runMixed(cfg, "nic", []int{4}, func(x int) (int, int, int) {
		return x, x, 4
	}, func(x int, r, a []Sample) {
		reads, appends = r, a
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []struct {
		name    string
		samples []Sample
		want    int
	}{
		{"read", reads, 4 * chunksPerReader * cfg.Reps},
		{"append", appends, 4 * 4 * cfg.Reps},
	} {
		over := 0
		for _, s := range kind.samples {
			if s.MBps() > nic {
				over++
			}
		}
		if len(kind.samples) != kind.want || over > 0 {
			t.Errorf("%d of %d %s samples beat the %g MB/s NIC (want %d samples, none over)",
				over, len(kind.samples), kind.name, nic, kind.want)
		}
	}
}

func TestFig6Smoke(t *testing.T) { fig6Smoke(t) }

// fig6Smoke runs Fig 6 at 1 and 4 reducers, checks its shape and
// returns the points of all its series.
func fig6Smoke(t *testing.T) []Point {
	cfg := smallCfg()
	res, err := Fig6(cfg, []int{1, 4})
	if err != nil {
		t.Error(err)
		return nil
	}
	if len(res.HDFS.Points) != 2 || len(res.BSFS.Points) != 2 {
		t.Errorf("points: hdfs=%d bsfs=%d", len(res.HDFS.Points), len(res.BSFS.Points))
		return nil
	}
	// The headline claim: BSFS produces exactly one output file at any
	// reducer count; HDFS produces one per reducer.
	for i, p := range res.FilesBSFS.Points {
		if p.Y != 1 {
			t.Errorf("BSFS output files at r=%g: %g", p.X, p.Y)
		}
		if res.FilesHDFS.Points[i].Y != res.FilesHDFS.Points[i].X {
			t.Errorf("HDFS output files at r=%g: %g", p.X, res.FilesHDFS.Points[i].Y)
		}
	}
	// BSFS's centralized metadata grows slower than HDFS's namenode
	// (which also tracks every block).
	lastB := res.MetaBSFS.Points[len(res.MetaBSFS.Points)-1].Y
	lastH := res.MetaHDFS.Points[len(res.MetaHDFS.Points)-1].Y
	if lastB >= lastH {
		t.Errorf("metadata entries: bsfs=%g hdfs=%g", lastB, lastH)
	}
	var points []Point
	for _, s := range []*Series{res.HDFS, res.BSFS, res.FilesHDFS, res.FilesBSFS, res.MetaHDFS, res.MetaBSFS} {
		points = append(points, s.Points...)
	}
	return points
}

func TestShuffleScenarioSmoke(t *testing.T) {
	res, err := Shuffle(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TimeMemory.Points) != 2 || len(res.TimeBlob.Points) != 2 {
		t.Fatalf("time points: memory=%d blob=%d", len(res.TimeMemory.Points), len(res.TimeBlob.Points))
	}
	// The headline semantics: the barrier kill forces the memory
	// backend to re-run maps, while the blob backend re-runs none.
	if got := res.RerunsMemory.Points[1].Y; got == 0 {
		t.Error("memory backend lost no outputs to the barrier kill")
	}
	if got := res.RerunsBlob.Points[1].Y; got != 0 {
		t.Errorf("blob backend re-ran %g maps after the barrier kill", got)
	}
	if res.BlobRecovered == 0 {
		t.Error("blob backend recovered no segments from dead trackers")
	}
}

func TestPipelineSmoke(t *testing.T) {
	cfg := smallCfg()
	res, err := Pipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SequentialSec <= 0 || res.PipelinedSec <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestAblationLockedSmoke(t *testing.T) { ablationLockedSmoke(t) }

// ablationLockedSmoke runs the global-lock ablation at N = 1 and 8 and
// checks that versioning beats the lock at 8.
func ablationLockedSmoke(t *testing.T) {
	// The lock's queueing penalty only shows when transfers dominate,
	// so this smoke test runs shaped (10 ms per chunk), unlike the
	// others: unshaped, everything is CPU-bound and serialization
	// can even win on a 2-core box.
	cfg := smallCfg()
	cfg.Bandwidth = 12.5 * (1 << 20)
	cfg.BlockSize = 128 << 10
	versioned, locked, err := AblationLockedAppend(cfg, []int{1, 8})
	if err != nil {
		t.Error(err)
		return
	}
	// At N=8 the lock must hurt: versioning clearly beats it.
	v8 := versioned.Points[1].Y
	l8 := locked.Points[1].Y
	t.Logf("N=8: versioned %.2f MB/s, locked %.2f MB/s", v8, l8)
	if v8 <= l8 {
		t.Errorf("versioning (%g MB/s) not better than lock (%g MB/s) at N=8", v8, l8)
	}
}

func TestAblationPlacementSmoke(t *testing.T) {
	series, err := AblationPlacement(smallCfg(), []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("strategies = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 1 || s.Points[0].Y <= 0 {
			t.Errorf("series %s = %+v", s.Name, s.Points)
		}
	}
}

func TestAblationPageSizeSmoke(t *testing.T) {
	series, err := AblationPageSize(smallCfg(), []uint64{16 << 10, 64 << 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 2 {
		t.Fatalf("points = %d", len(series.Points))
	}
}

func TestSnapshotScenario(t *testing.T) {
	// The snapshot-first API's acceptance test: the scenario itself
	// fails on any fixed-version byte mismatch, tail regression,
	// pinned-job size drift, or a pin the collector violated — so a
	// non-nil error here is the assertion; the checks below pin the
	// scenario's shape.
	res, err := Snapshot(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Appenders < 8 {
		t.Errorf("appenders = %d, want >= 8", res.Appenders)
	}
	if res.FixedSnapshots < 2 || res.FixedReads < 2*res.FixedSnapshots {
		t.Errorf("fixed verification too thin: %d snapshots, %d reads", res.FixedSnapshots, res.FixedReads)
	}
	if res.TailVersions == 0 {
		t.Error("tailing reader observed no snapshots")
	}
	if res.PinnedVersion == 0 || res.JobInputBytes != res.PinnedSize {
		t.Errorf("pinned job input: v%d, %d bytes covered, %d at snapshot",
			res.PinnedVersion, res.JobInputBytes, res.PinnedSize)
	}
	if res.JobRecords != res.PinnedSize/64 {
		t.Errorf("job records = %d, want %d", res.JobRecords, res.PinnedSize/64)
	}
	if res.FinalSize <= res.PinnedSize {
		t.Errorf("file did not outgrow the pinned snapshot: %d <= %d", res.FinalSize, res.PinnedSize)
	}
	if res.VersionsCollected == 0 || !res.GoneAfterGC {
		t.Errorf("retention idle after pins released: collected=%d gone=%v",
			res.VersionsCollected, res.GoneAfterGC)
	}
}

func TestGCScenarioSmoke(t *testing.T) {
	res, err := GC(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bound: GC runs hold storage within 2x their
	// working set; the baselines grow linearly with rounds.
	if res.OverwriteBoundRatio <= 0 || res.OverwriteBoundRatio > 2 {
		t.Errorf("overwrite bound ratio = %.2f, want (0, 2]", res.OverwriteBoundRatio)
	}
	if res.RotateBoundRatio <= 0 || res.RotateBoundRatio > 2 {
		t.Errorf("rotate bound ratio = %.2f, want (0, 2]", res.RotateBoundRatio)
	}
	ogc := res.OverwriteGC.Points[len(res.OverwriteGC.Points)-1].Y
	oraw := res.OverwriteNoGC.Points[len(res.OverwriteNoGC.Points)-1].Y
	if oraw < 2*ogc {
		t.Errorf("overwrite: no-GC baseline %f MiB not clearly above GC run %f MiB", oraw, ogc)
	}
	rgc := res.RotateGC.Points[len(res.RotateGC.Points)-1].Y
	rraw := res.RotateNoGC.Points[len(res.RotateNoGC.Points)-1].Y
	if rraw < 2*rgc {
		t.Errorf("rotate: no-GC baseline %f MiB not clearly above GC run %f MiB", rraw, rgc)
	}
	if res.Collector["gc_pages_reclaimed"] == 0 || res.Collector["gc_blobs_deleted"] == 0 {
		t.Errorf("collector idle across the scenario: %+v", res.Collector)
	}
}
