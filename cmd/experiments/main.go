// Command experiments regenerates the paper's evaluation (§4) on the
// simulated Grid'5000 substrate: Figure 3 (concurrent appends), Figures
// 4/5 (reader/appender interference), Figure 6 (data-join completion
// time, HDFS vs BSFS), the derived file-count table, the §5 pipeline
// extension, the ablations, and the scenarios of this implementation's
// own subsystems (shuffle, gc, snapshot, meta, incident). Each prints
// its tables and summary lines to stdout; the gated performance record
// is the pinned benchmark in benchmark/.
//
// Usage:
//
//	experiments -fig all            # everything, full sweeps (~minutes)
//	experiments -fig 3 -quick       # one figure, reduced sweep
//	experiments -fig 6 -csv         # emit gnuplot-friendly CSV too
//
// With -virtual, a binary built with GOEXPERIMENT=synctest runs one of
// the figures 3, 4, 5, 6 or an abl-* scenario in virtual time: only the
// modeled costs advance the clock (experiments.RunVirtual).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"blobseer"
	"blobseer/internal/experiments"
	"blobseer/internal/flight"
	"blobseer/internal/metrics"
	"blobseer/internal/shuffle"
)

func main() {
	var cfg experiments.Config
	// The figures measure the modeled network, so here — unlike in the
	// library and the other commands — the page cache defaults to off.
	cfg.CacheBytes = -1
	var (
		fig   = flag.String("fig", "all", "figure to run: all,3,4,5,6,filecount,pipeline,shuffle,gc,snapshot,meta,incident,abl-placement,abl-pagesize,abl-lock")
		page  = flag.Int("page", 256, "page/chunk size in KiB (paper: 64 MiB, scaled)")
		bwMB  = flag.Float64("bw", 12.5, "modeled NIC bandwidth in MB/s (paper: 1 GbE, scaled)")
		shufB = flag.String("shuffle", "memory", "Map/Reduce shuffle backend for BSFS application figures: memory or blob")
		trace = flag.Bool("trace", false, "with -fig shuffle: sample one traced append and print its causal span tree")
		diagP = flag.String("diag", "", "on scenario failure, write a postmortem diag bundle (tar.gz with the process-wide metrics registry) to this path before exiting")
		quick = flag.Bool("quick", false, "reduced sweeps for a fast run")
		csv   = flag.Bool("csv", false, "also print CSV data")
		virt  = flag.Bool("virtual", false, "run -fig in virtual time (3, 4, 5, 6 or abl-*; needs a GOEXPERIMENT=synctest build)")
	)
	flag.IntVar(&cfg.Nodes, "nodes", 270, "total simulated machines (paper: 270)")
	flag.IntVar(&cfg.MetaProviders, "meta", 20, "metadata providers (paper: 20)")
	flag.IntVar(&cfg.Reps, "reps", 5, "repetitions per point (paper: 5)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	shared := blobseer.BindFlags(&cfg.Options)
	flag.Parse()
	if err := shared.Apply(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	stopMetrics, err := shared.ServeMetrics(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: metrics endpoint:", err)
		os.Exit(1)
	}
	defer stopMetrics()

	cfg.Shuffle, err = shuffle.ParseBackend(*shufB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *virt && !virtualScenarios[*fig] {
		fmt.Fprintf(os.Stderr, "experiments: -virtual runs -fig 3, 4, 5, 6 or abl-*, not %q\n", *fig)
		os.Exit(1)
	}
	cfg.BlockSize = uint64(*page) << 10
	cfg.Bandwidth = *bwMB * (1 << 20)

	sweeps := fullSweeps()
	if *quick {
		sweeps = quickSweeps()
		cfg.Nodes = 64
		cfg.MetaProviders = 8
		cfg.Reps = 2
	}

	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		start := time.Now()
		var err error
		if *virt {
			if verr := experiments.RunVirtual(func() { err = fn() }); verr != nil {
				err = verr
			}
		} else {
			err = fn()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			if *diagP != "" {
				// Postmortem collection: the scenario's environment is
				// gone, but the process-wide registry still holds every
				// op histogram the failed run recorded.
				if _, derr := flight.WriteDiagFile(*diagP, flight.DiagSources{Registry: metrics.Default}); derr != nil {
					fmt.Fprintf(os.Stderr, "experiments: diag bundle: %v\n", derr)
				} else {
					fmt.Fprintf(os.Stderr, "[diag bundle written to %s]\n", *diagP)
				}
			}
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	emit := func(title string, series ...*experiments.Series) {
		fmt.Println(experiments.Table(title, series...))
		if *csv {
			fmt.Println(experiments.CSV(series...))
		}
	}

	run("3", func() error {
		s, err := experiments.Fig3(cfg, sweeps.fig3)
		if err != nil {
			return err
		}
		emit("Figure 3: concurrent appends to the same file (BSFS)", s)
		return nil
	})

	run("4", func() error {
		s, err := experiments.Fig4(cfg, sweeps.fig45)
		if err != nil {
			return err
		}
		emit("Figure 4: impact of concurrent appends on concurrent reads (100 readers)", s)
		return nil
	})

	run("5", func() error {
		s, err := experiments.Fig5(cfg, sweeps.fig45)
		if err != nil {
			return err
		}
		emit("Figure 5: impact of concurrent reads on concurrent appends (100 appenders)", s)
		return nil
	})

	var fig6 *experiments.Fig6Result
	runFig6 := func() error {
		if fig6 != nil {
			return nil
		}
		var err error
		fig6, err = experiments.Fig6(cfg, sweeps.fig6)
		return err
	}

	run("6", func() error {
		if err := runFig6(); err != nil {
			return err
		}
		emit("Figure 6: data join completion time vs number of reducers", fig6.HDFS, fig6.BSFS)
		return nil
	})

	run("filecount", func() error {
		if err := runFig6(); err != nil {
			return err
		}
		emit("Table A: output files produced by the data join",
			fig6.FilesHDFS, fig6.FilesBSFS)
		emit("Table A': centralized metadata entries after the run",
			fig6.MetaHDFS, fig6.MetaBSFS)
		return nil
	})

	run("pipeline", func() error {
		res, err := experiments.Pipeline(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("# Extension (§5): two-stage pipeline on BSFS\n")
		fmt.Printf("%-24s %10.2f s\n", "sequential stages", res.SequentialSec)
		fmt.Printf("%-24s %10.2f s\n", "pipelined stages", res.PipelinedSec)
		fmt.Printf("%-24s %10.2fx\n", "speedup", res.Speedup)
		fmt.Println()
		return nil
	})

	run("shuffle", func() error {
		res, err := experiments.Shuffle(cfg)
		if err != nil {
			return err
		}
		emit("Shuffle backends: completion time with and without tracker failure at the map barrier",
			res.TimeMemory, res.TimeBlob)
		emit("Shuffle backends: map re-runs forced by the failure",
			res.RerunsMemory, res.RerunsBlob)
		fmt.Printf("# blob backend: first segment fetched %.3f s before the map phase ended\n", res.BlobOverlapSec)
		fmt.Printf("# blob backend: %d segments served after their producing tracker died\n\n", res.BlobRecovered)
		if *trace {
			tree, err := experiments.TraceAppend(context.Background(), cfg)
			if err != nil {
				return err
			}
			fmt.Printf("# one sampled append, traced across processes:\n%s\n", tree)
		}
		return nil
	})

	run("gc", func() error {
		res, err := experiments.GC(cfg)
		if err != nil {
			return err
		}
		emit("Storage lifecycle: bounded vs unbounded provider storage under sustained writes",
			res.OverwriteGC, res.OverwriteNoGC, res.RotateGC, res.RotateNoGC)
		fmt.Printf("# overwrite: final storage %.2fx the working set under RetainLatest(2)\n", res.OverwriteBoundRatio)
		fmt.Printf("# rotate:    final storage %.2fx the live-file set with delete-driven GC\n", res.RotateBoundRatio)
		c := res.Collector
		fmt.Printf("# collector: %d passes, %d versions collected, %d blobs deleted, %d pages (%d bytes) reclaimed, %d tree nodes deleted\n\n",
			c["gc_passes"], c["gc_versions_collected"], c["gc_blobs_deleted"],
			c["gc_pages_reclaimed"], c["gc_bytes_reclaimed"], c["gc_nodes_deleted"])
		return nil
	})

	run("snapshot", func() error {
		res, err := experiments.Snapshot(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("# Snapshot-first API: fixed-version reads under %d concurrent appenders\n", res.Appenders)
		fmt.Printf("%-34s %d snapshots, %d reads, all byte-identical\n", "fixed-version readers", res.FixedSnapshots, res.FixedReads)
		fmt.Printf("%-34s %d snapshots, consistent prefixes\n", "WaitVersion tailing reader", res.TailVersions)
		fmt.Printf("%-34s v%d: %d bytes = %d records (file grew to %d)\n",
			"mid-append job pinned input", res.PinnedVersion, res.JobInputBytes, res.JobRecords, res.FinalSize)
		fmt.Printf("%-34s %d versions collected once pins released; re-open => ErrVersionGone: %v\n",
			"retention after release", res.VersionsCollected, res.GoneAfterGC)
		fmt.Printf("%-34s %d versions\n\n", "retained history at end", res.VersionsListed)
		return nil
	})

	run("meta", func() error {
		res, err := experiments.Meta(cfg)
		if err != nil {
			return err
		}
		scaling := &experiments.Series{Name: "publish ops/s", XLabel: "vm shards", YLabel: "ops/s"}
		for _, p := range res.Scaling {
			scaling.Add(float64(p.Shards), p.OpsPerSec, 0)
		}
		emit("Metadata plane: aggregate publish throughput vs version-manager shards", scaling)
		f := res.Failover
		fmt.Printf("# failover: killed shard %d/%d for %.0f ms mid-workload (%d writers)\n",
			f.KilledShard, f.Shards, f.OutageMS, f.Writers)
		fmt.Printf("# failover: %d writes acked before the kill, %d total, %d lost after replay\n",
			f.AckedBefore, f.AckedTotal, f.LostWrites)
		r := res.Recovery
		fmt.Printf("# recovery: cold restart of %d shards replayed %d journal records in %.1f ms; %d blobs / %d versions served\n\n",
			r.Shards, r.Records, r.ReplayMS, r.Blobs, r.Versions)
		return nil
	})

	run("incident", func() error {
		res, err := experiments.Incident(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("# Incident drill: VM shard %d/%d killed for %.0f ms under an armed SLO watchdog\n",
			res.KilledShard, res.Shards, res.OutageMS)
		fmt.Printf("# alert: fired %.1f ms after the kill (%d evaluations), cleared %d evals after the restart (hysteresis >= 3)\n",
			res.FireDelayMS, res.FireCollections, res.ClearEvals)
		fmt.Printf("# replay: %d events off the abandoned flight log — %d traces (largest slow tree %d spans), %d snapshots (%d before kill / %d after restart), %d alert transitions, %d health flips\n\n",
			res.ReplayEvents, res.ReplayTraces, res.ReplaySlowTraceSpans, res.ReplaySnapshots,
			res.SnapshotsBeforeKill, res.SnapshotsAfterRestart, res.AlertFires+res.AlertClears, res.HealthTransitions)
		return nil
	})

	run("abl-placement", func() error {
		series, err := experiments.AblationPlacement(cfg, sweeps.ablClients)
		if err != nil {
			return err
		}
		emit("Ablation 2: provider placement strategy (Fig 3 workload)", series...)
		return nil
	})

	run("abl-pagesize", func() error {
		s, err := experiments.AblationPageSize(cfg, sweeps.pageSizes, sweeps.ablN)
		if err != nil {
			return err
		}
		emit("Ablation 3: page size sweep (Fig 3 workload)", s)
		return nil
	})

	run("abl-lock", func() error {
		versioned, locked, err := experiments.AblationLockedAppend(cfg, sweeps.ablClients)
		if err != nil {
			return err
		}
		emit("Ablation 1: versioning vs global append lock", versioned, locked)
		return nil
	})
}

// virtualScenarios are the scenarios -virtual runs: the paper's
// figures and the ablations, which time the shaped network and run to
// completion in a bubble. The others have not been run in one.
var virtualScenarios = map[string]bool{
	"3": true, "4": true, "5": true, "6": true,
	"abl-placement": true, "abl-pagesize": true, "abl-lock": true,
}

// sweepSet bundles the per-figure parameter sweeps.
type sweepSet struct {
	fig3       []int
	fig45      []int
	fig6       []int
	ablClients []int
	ablN       int
	pageSizes  []uint64
}

func fullSweeps() sweepSet {
	return sweepSet{
		fig3:       []int{1, 16, 32, 64, 96, 128, 160, 192, 224, 246},
		fig45:      []int{0, 20, 40, 60, 80, 100, 120, 140},
		fig6:       []int{1, 30, 60, 120, 180, 230},
		ablClients: []int{1, 16, 64, 128},
		ablN:       64,
		pageSizes:  []uint64{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10},
	}
}

func quickSweeps() sweepSet {
	return sweepSet{
		fig3:       []int{1, 8, 24, 48},
		fig45:      []int{0, 10, 30},
		fig6:       []int{1, 15, 45},
		ablClients: []int{1, 16, 48},
		ablN:       16,
		pageSizes:  []uint64{64 << 10, 256 << 10},
	}
}
