package experiments

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"blobseer/internal/metrics"
)

// TestBenchWriteReportJSON is the bench-trajectory acceptance test:
// a scenario run must produce a BENCH_<fig>.json that parses and
// carries both the figure series and real latency percentiles.
func TestBenchWriteReportJSON(t *testing.T) {
	rep, series, err := BenchWrite(smallCfg(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if series == nil || len(series.Points) != 2 {
		t.Fatalf("series = %+v", series)
	}

	dir := t.TempDir()
	path, err := WriteBench(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_write.json") {
		t.Errorf("path = %s", path)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got BenchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if got.Fig != "write" {
		t.Errorf("fig = %q", got.Fig)
	}
	if got.Config.Nodes != 24 || got.Config.PageSize != 64<<10 {
		t.Errorf("config = %+v", got.Config)
	}
	if len(got.Series) != 1 || len(got.Series[0].Points) != 2 {
		t.Fatalf("series in report = %+v", got.Series)
	}
	for _, p := range got.Series[0].Points {
		if p.Y <= 0 {
			t.Errorf("throughput point %+v", p)
		}
	}

	// The latency block must hold the append percentiles the scenario's
	// own traffic recorded: count > 0 and ordered quantiles.
	lat, ok := got.Latency["blob.append"]
	if !ok {
		t.Fatalf("no blob.append latency in report: %v", got.Latency)
	}
	if lat.Count == 0 || lat.P50Ms <= 0 {
		t.Errorf("append latency = %+v", lat)
	}
	if lat.P50Ms > lat.P99Ms || lat.P99Ms > lat.P999Ms || lat.P999Ms > lat.MaxMs {
		t.Errorf("quantiles out of order: %+v", lat)
	}
}

// TestBenchRunBrackets pins the delta semantics: latencies() reports
// only what was recorded after startBenchRun, so reports stay accurate
// when several scenarios share one process.
func TestBenchRunBrackets(t *testing.T) {
	metrics.Default.Op("bench.test.op").Record(1_000_000)
	run := startBenchRun("bench.test.op", "bench.test.unused")
	metrics.Default.Op("bench.test.op").Record(2_000_000)
	lat := run.latencies()
	if got := lat["bench.test.op"].Count; got != 1 {
		t.Errorf("bracketed count = %d, want 1 (pre-existing sample leaked in)", got)
	}
	if _, ok := lat["bench.test.unused"]; ok {
		t.Error("idle op reported")
	}
}

// TestBenchGCReportsOwnPasses runs the GC scenario twice in one
// process, as -fig all and the test suite do: each report must count
// only its own reclaim passes, in its latency block as in its extras.
func TestBenchGCReportsOwnPasses(t *testing.T) {
	for run := 1; run <= 2; run++ {
		rep, _, err := BenchGC(smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		passes := rep.Extra["gc_passes"]
		if got := float64(rep.Latency["gc.pass"].Count); passes == 0 || got != passes {
			t.Errorf("run %d: gc.pass latency counts %v passes, gc_passes %v", run, got, passes)
		}
	}
}

func TestTraceAppendTree(t *testing.T) {
	tree, err := TraceAppend(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance shape: one sampled append rendered as a causal
	// tree crossing client -> version manager -> provider.
	for _, want := range []string{
		"append.sample",
		"blob.append",
		"write.pages",
		"rpc:vm.Assign",
		"serve:vm.Assign",
		"rpc:prov.PutPage",
		"serve:prov.PutPage",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace tree missing %q:\n%s", want, tree)
		}
	}
}
