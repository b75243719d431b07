package experiments

import (
	"fmt"
	"time"

	"blobseer/internal/apps/wordcount"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/metrics"
	"blobseer/internal/shuffle"
	"blobseer/internal/workload"
)

// ShuffleResult compares the two shuffle backends on the same
// Map/Reduce job, with and without tracker failure injected at the
// map/reduce barrier — the moment every map has finished and the
// intermediate data is all that keeps the job alive. The memory
// backend loses the dead trackers' outputs and re-executes their maps;
// the blob backend's segments live in BlobSeer and the job proceeds
// with zero re-runs.
type ShuffleResult struct {
	// Completion time (s) versus failure injection (x = 0: none,
	// x = 1: half the trackers killed at the barrier).
	TimeMemory *metrics.Series
	TimeBlob   *metrics.Series
	// Map outputs lost (and therefore maps re-executed), same sweep.
	RerunsMemory *metrics.Series
	RerunsBlob   *metrics.Series

	// BlobOverlapSec is map-phase end minus first segment fetch in the
	// failure-free blob run: positive means the shuffle overlapped the
	// map phase (reduce-side fetching started before the last map
	// finished).
	BlobOverlapSec float64
	// BlobRecovered counts segments served after their producing
	// tracker died in the failure run — exactly the data the memory
	// backend had to regenerate.
	BlobRecovered uint64
}

// shuffleTrackers caps the tasktracker pool so the map phase takes
// several waves (overlap is visible) and a barrier kill of half the
// pool is guaranteed to hit tracker-resident outputs.
const shuffleTrackers = 8

// Shuffle runs the shuffle-backend comparison: {memory, blob} x
// {no failure, barrier kill} on a wordcount sized to ~3 map waves.
func Shuffle(cfg Config) (*ShuffleResult, error) {
	cfg = cfg.withDefaults()

	res := &ShuffleResult{
		TimeMemory:   &metrics.Series{Name: "memory shuffle", XLabel: "tracker failure", YLabel: "time (s)"},
		TimeBlob:     &metrics.Series{Name: "blob shuffle", XLabel: "tracker failure", YLabel: "time (s)"},
		RerunsMemory: &metrics.Series{Name: "memory map re-runs", XLabel: "tracker failure", YLabel: "maps"},
		RerunsBlob:   &metrics.Series{Name: "blob map re-runs", XLabel: "tracker failure", YLabel: "maps"},
	}

	text := workload.Text(int(24*cfg.BlockSize), cfg.Seed+61)
	for _, backend := range []shuffle.Backend{shuffle.Memory, shuffle.Blob} {
		for _, kill := range []bool{false, true} {
			r, err := runShufflePoint(cfg, backend, kill, text)
			if err != nil {
				return nil, fmt.Errorf("shuffle scenario %s kill=%v: %w", backend, kill, err)
			}
			x := 0.0
			if kill {
				x = 1.0
			}
			timeS, rerunS := res.TimeMemory, res.RerunsMemory
			if backend == shuffle.Blob {
				timeS, rerunS = res.TimeBlob, res.RerunsBlob
			}
			timeS.Add(x, r.Duration.Seconds(), 0)
			rerunS.Add(x, float64(r.MapOutputsLost), 0)
			if backend == shuffle.Blob {
				if !kill && r.FirstShuffleFetch > 0 {
					res.BlobOverlapSec = (r.MapPhase - r.FirstShuffleFetch).Seconds()
				}
				if kill {
					res.BlobRecovered = r.SegmentsRecovered
				}
			}
		}
	}
	return res, nil
}

// runShufflePoint executes one job on a fresh framework (the kill is
// destructive) and returns its result.
func runShufflePoint(cfg Config, backend shuffle.Backend, kill bool, text string) (mapreduce.JobResult, error) {
	fw, clientFS, cleanup, err := newFramework(cfg, "bsfs", 0, 0, shuffleTrackers)
	if err != nil {
		return mapreduce.JobResult{}, err
	}
	defer cleanup()
	if err := dfs.WriteFile(ctx, clientFS, "/in/corpus", []byte(text)); err != nil {
		return mapreduce.JobResult{}, err
	}
	job := wordcount.Job([]string{"/in/corpus"}, "/out", 8, mapreduce.SeparateFiles)
	job.Shuffle = backend
	// Intermediate partitions are far smaller than input chunks;
	// page-sized intermediate BLOB pages would drown the comparison in
	// padding (segments pad to whole pages to stay boundary-merge-
	// free). An eighth of the chunk size bounds the waste while
	// keeping appends page-aligned.
	job.ShufflePageSize = cfg.BlockSize / 8
	job.MapCostPerRecord = 10 * time.Microsecond
	if kill {
		trackers := fw.Trackers()
		job.MapsDoneHook = func() {
			for i := 1; i < len(trackers); i += 2 {
				trackers[i].Kill()
			}
		}
	}
	return fw.Run(ctx, job)
}
