package experiments

import (
	"fmt"
	"time"

	"blobseer/internal/apps/datajoin"
	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/workload"
)

// Fig6Result carries the data-join comparison of §4.3: completion time
// versus reducer count for original-Hadoop-on-HDFS (one output file
// per reducer) and modified-Hadoop-on-BSFS (single shared appended
// file), plus the derived file-count table.
type Fig6Result struct {
	HDFS *Series // completion time (s)
	BSFS *Series

	FilesHDFS *Series // committed output files
	FilesBSFS *Series

	MetaHDFS *Series // centralized metadata entries after the run
	MetaBSFS *Series
}

// fig6Costs models the data join being "a computation-intensive
// application [where] most of the time is spent on searching and
// matching keys in the map phase, and on combining key-value pairs in
// the reduce phase" (§4.3) — which is why completion time stays flat
// in the reducer count and equal across file systems.
const (
	fig6MapCost    = 300 * time.Microsecond
	fig6ReduceCost = 1 * time.Microsecond
)

// Fig6 reproduces Figure 6: "Completion time of the data join
// application when varying the number of reducers".
func Fig6(cfg Config, reducers []int) (*Fig6Result, error) {
	cfg = cfg.withDefaults()

	// Two input files of ~5 chunks each, so "10 concurrent mappers
	// will perform the map phase" like the paper; the join output is
	// ~10x the input.
	targetLines := int(5 * cfg.BlockSize / 45)
	keys := targetLines / 8
	if keys < 8 {
		keys = 8
	}
	contentA, contentB := workload.JoinInputs(workload.JoinConfig{Keys: keys, Seed: cfg.Seed})

	res := &Fig6Result{
		HDFS:      &Series{Name: "HDFS - multiple output files", XLabel: "reducers", YLabel: "time (s)"},
		BSFS:      &Series{Name: "BSFS - single output file", XLabel: "reducers", YLabel: "time (s)"},
		FilesHDFS: &Series{Name: "HDFS output files", XLabel: "reducers", YLabel: "files"},
		FilesBSFS: &Series{Name: "BSFS output files", XLabel: "reducers", YLabel: "files"},
		MetaHDFS:  &Series{Name: "HDFS namenode entries", XLabel: "reducers", YLabel: "entries"},
		MetaBSFS:  &Series{Name: "BSFS namespace entries", XLabel: "reducers", YLabel: "entries"},
	}

	if err := fig6System(cfg, "hdfs", contentA, contentB, reducers, res.HDFS, res.FilesHDFS, res.MetaHDFS); err != nil {
		return nil, err
	}
	if err := fig6System(cfg, "bsfs", contentA, contentB, reducers, res.BSFS, res.FilesBSFS, res.MetaBSFS); err != nil {
		return nil, err
	}
	return res, nil
}

// fig6System runs the sweep on one backend.
func fig6System(cfg Config, system, contentA, contentB string, reducers []int, timeS, filesS, metaS *Series) error {
	fw, clientFS, cleanup, err := newFramework(cfg, system, 0, 0, 0)
	if err != nil {
		return err
	}
	defer cleanup()

	if err := dfs.WriteFile(ctx, clientFS, "/in/lastfm-a", []byte(contentA)); err != nil {
		return err
	}
	if err := dfs.WriteFile(ctx, clientFS, "/in/lastfm-b", []byte(contentB)); err != nil {
		return err
	}

	mode := mapreduce.SeparateFiles
	if system == "bsfs" {
		// The modified framework: reducers append to one shared file.
		mode = mapreduce.SharedAppend
	}
	for _, r := range reducers {
		job := datajoin.Job("/in/lastfm-a", "/in/lastfm-b", fmt.Sprintf("/out/%s-r%03d", system, r), r, mode)
		job.MapCostPerRecord = fig6MapCost
		job.ReduceCostPerRecord = fig6ReduceCost
		if system == "bsfs" {
			// The blob shuffle backend needs BlobSeer underneath; HDFS
			// keeps the classic in-tracker shuffle.
			job.Shuffle = cfg.Shuffle
		}
		result, err := fw.Run(ctx, job)
		if err != nil {
			return fmt.Errorf("fig6 %s r=%d: %w", system, r, err)
		}
		timeS.Add(float64(r), result.Duration.Seconds(), 0)
		filesS.Add(float64(r), float64(len(result.OutputFiles)), 0)
		entries, err := clientFS.MetadataEntries(ctx)
		if err != nil {
			return err
		}
		metaS.Add(float64(r), float64(entries), 0)
	}
	return nil
}

// newFramework boots a shaped storage deployment of cfg's scale plus a
// Map/Reduce framework with tasktrackers co-deployed on storage nodes
// ("the tasktrackers were co-deployed with the datanodes", §4.3).
// mapSlots/reduceSlots of 0 use the Hadoop defaults (2 and 2);
// maxHosts > 0 caps the tasktracker pool (a loaded-cluster regime).
func newFramework(cfg Config, system string, mapSlots, reduceSlots, maxHosts int) (*mapreduce.Framework, dfs.FileSystem, func(), error) {
	capHosts := func(hosts []string) []string {
		if maxHosts > 0 && len(hosts) > maxHosts {
			return hosts[:maxHosts]
		}
		return hosts
	}
	switch system {
	case "bsfs":
		env, err := newBSFSEnvStore(cfg, blob.StoreMemory)
		if err != nil {
			return nil, nil, nil, err
		}
		fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
			Net:         env.net,
			Hosts:       capHosts(env.cluster.ProviderHosts()),
			Mount:       func(host string) dfs.FileSystem { return env.deploy.Mount(host) },
			MapSlots:    mapSlots,
			ReduceSlots: reduceSlots,
		})
		if err != nil {
			env.Close()
			return nil, nil, nil, err
		}
		cleanup := func() {
			fw.Close()
			env.Close()
		}
		return fw, fw.ClientFS(), cleanup, nil

	case "hdfs":
		env, err := newHDFSEnv(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
			Net:         env.net,
			Hosts:       capHosts(env.cluster.DatanodeHosts()),
			Mount:       func(host string) dfs.FileSystem { return env.cluster.Mount(host, cfg.BlockSize) },
			MapSlots:    mapSlots,
			ReduceSlots: reduceSlots,
		})
		if err != nil {
			env.Close()
			return nil, nil, nil, err
		}
		cleanup := func() {
			fw.Close()
			env.Close()
		}
		return fw, fw.ClientFS(), cleanup, nil

	default:
		return nil, nil, nil, fmt.Errorf("experiments: unknown system %q", system)
	}
}
