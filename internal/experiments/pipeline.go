package experiments

import (
	"fmt"
	"time"

	"blobseer/internal/apps/datajoin"
	"blobseer/internal/apps/grep"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/workload"
)

// PipelineResult compares sequential stage execution with the paper's
// §5 pipelined execution, where "the reducers generate the data and
// append it to a file that is at the same time, read and processed by
// the mappers" of the next stage.
type PipelineResult struct {
	SequentialSec float64
	PipelinedSec  float64
	Speedup       float64
}

// Pipeline runs a two-stage chain — data join, then grep over the join
// output — both sequentially and pipelined on BSFS.
func Pipeline(cfg Config) (*PipelineResult, error) {
	cfg = cfg.withDefaults()

	targetLines := int(3 * cfg.BlockSize / 45)
	keys := targetLines / 8
	if keys < 8 {
		keys = 8
	}
	contentA, contentB := workload.JoinInputs(workload.JoinConfig{Keys: keys, Seed: cfg.Seed})

	stage1 := func(out string) mapreduce.JobConf {
		job := datajoin.Job("/in/a", "/in/b", out, 4, mapreduce.SharedAppend)
		job.MapCostPerRecord = 100 * time.Microsecond
		// A long reduce phase is the overlap window: stage 2's mappers
		// chew through the join output while it is still growing.
		job.ReduceCostPerRecord = 20 * time.Microsecond
		job.Shuffle = cfg.Shuffle
		return job
	}
	stage2 := func(in []string, out string) mapreduce.JobConf {
		job := grep.Job(in, out, "radiohead", 2, mapreduce.SharedAppend)
		job.Shuffle = cfg.Shuffle
		// Stage 2 is map-heavy and split finely: its mappers are the
		// consumers that pipelined mode lets run while stage 1's
		// reducers still append. With one map slot per tracker the map
		// phase takes several waves — the regime (splits >> slots)
		// where overlapping pays, as in a loaded production cluster.
		job.MapCostPerRecord = 500 * time.Microsecond
		job.SplitSize = 32 << 10
		return job
	}

	run := func(pipelined bool) (float64, error) {
		// A capped tracker pool with one map slot each puts stage 2's
		// map phase in the multi-wave regime where overlapping with
		// stage 1's reduce phase actually saves wall time.
		fw, clientFS, cleanup, err := newFramework(cfg, "bsfs", 1, 2, 24)
		if err != nil {
			return 0, err
		}
		defer cleanup()
		if err := dfs.WriteFile(ctx, clientFS, "/in/a", []byte(contentA)); err != nil {
			return 0, err
		}
		if err := dfs.WriteFile(ctx, clientFS, "/in/b", []byte(contentB)); err != nil {
			return 0, err
		}
		start := time.Now()
		if pipelined {
			_, err = fw.RunPipeline(ctx, []mapreduce.JobConf{
				stage1("/s1"),
				stage2(nil, "/s2"),
			})
		} else {
			if _, err = fw.Run(ctx, stage1("/s1")); err == nil {
				_, err = fw.Run(ctx, stage2([]string{"/s1/" + mapreduce.SharedOutputName}, "/s2"))
			}
		}
		if err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}

	seq, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("pipeline sequential: %w", err)
	}
	pipe, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("pipeline overlapped: %w", err)
	}
	return &PipelineResult{
		SequentialSec: seq,
		PipelinedSec:  pipe,
		Speedup:       seq / pipe,
	}, nil
}
