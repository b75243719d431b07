// Command mrrun executes a Map/Reduce job on an embedded deployment:
// choose the storage backend (bsfs or hdfs), the output mode
// (shared-append — the paper's modified framework — or separate
// files), the application and the scale, and it prints the job report.
//
//	go run ./cmd/mrrun -app wordcount -fs bsfs -mode shared -reducers 8
//	go run ./cmd/mrrun -app datajoin -fs hdfs -mode separate
//	go run ./cmd/mrrun -app datajoin -fs hdfs -mode shared   # fails: no append
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"blobseer"
	"blobseer/internal/apps/datajoin"
	"blobseer/internal/apps/grep"
	"blobseer/internal/apps/wordcount"
	"blobseer/internal/dfs"
	"blobseer/internal/hdfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/shuffle"
	"blobseer/internal/transport"
	"blobseer/internal/workload"
)

func main() {
	var opts blobseer.Options
	var (
		app      = flag.String("app", "wordcount", "application: wordcount, datajoin, grep")
		fsName   = flag.String("fs", "bsfs", "storage backend: bsfs or hdfs")
		mode     = flag.String("mode", "shared", "output mode: shared (append) or separate")
		reducers = flag.Int("reducers", 4, "number of reducers")
		sizeKB   = flag.Int("size", 256, "input size in KiB")
		pattern  = flag.String("pattern", "data", "grep pattern")
		block    = flag.Int("block", 32, "block size in KiB")
		shuffleB = flag.String("shuffle", "memory", "shuffle backend: memory (in-tracker RPC store) or blob (durable concurrent appends, bsfs only)")
		keepInt  = flag.Bool("keep-intermediate", false, "keep the blob shuffle backend's intermediate BLOBs after the job (default: retired through GC)")
	)
	flag.IntVar(&opts.Providers, "nodes", 8, "storage/tasktracker nodes")
	shared := blobseer.BindFlags(&opts)
	flag.Parse()
	if err := shared.Apply(); err != nil {
		fatal(err)
	}
	opts.MetaProviders = 3
	opts.BlockSize = uint64(*block) << 10
	ctx := context.Background()

	stopMetrics, err := shared.ServeMetrics(nil)
	if err != nil {
		fatal(err)
	}
	defer stopMetrics()

	outputMode := mapreduce.SharedAppend
	if *mode == "separate" {
		outputMode = mapreduce.SeparateFiles
	}
	shuffleBackend, err := shuffle.ParseBackend(*shuffleB)
	if err != nil {
		fatal(err)
	}

	fw, cleanup, err := buildFramework(*fsName, opts)
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	fs := fw.ClientFS()

	var job mapreduce.JobConf
	switch *app {
	case "wordcount":
		text := workload.Text(*sizeKB<<10, 1)
		must(dfs.WriteFile(ctx, fs, "/in/corpus", []byte(text)))
		job = wordcount.Job([]string{"/in/corpus"}, "/out", *reducers, outputMode)
	case "grep":
		text := workload.Text(*sizeKB<<10, 1)
		must(dfs.WriteFile(ctx, fs, "/in/corpus", []byte(text)))
		job = grep.Job([]string{"/in/corpus"}, "/out", *pattern, *reducers, outputMode)
	case "datajoin":
		keys := (*sizeKB << 10) / 45 / 8
		if keys < 8 {
			keys = 8
		}
		a, b := workload.JoinInputs(workload.JoinConfig{Keys: keys, Seed: 1})
		must(dfs.WriteFile(ctx, fs, "/in/a", []byte(a)))
		must(dfs.WriteFile(ctx, fs, "/in/b", []byte(b)))
		job = datajoin.Job("/in/a", "/in/b", "/out", *reducers, outputMode)
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}
	job.Shuffle = shuffleBackend
	job.KeepIntermediate = *keepInt

	res, err := fw.Run(ctx, job)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("job %q on %s (%s):\n", job.Name, *fsName, outputMode)
	fmt.Printf("  duration            %v (map %v, reduce %v)\n",
		res.Duration.Round(1e6), res.MapPhase.Round(1e6), res.ReducePhase.Round(1e6))
	fmt.Printf("  map tasks           %d (%d data-local)\n", res.MapTasks, res.LocalMaps)
	fmt.Printf("  reduce tasks        %d\n", res.ReduceTasks)
	fmt.Printf("  records             in=%d intermediate=%d out=%d\n",
		res.MapInputRecords, res.MapOutputRecords, res.ReduceOutputRecords)
	fmt.Printf("  shuffle bytes       %d (backend %s)\n", res.ShuffleBytes, shuffleBackend)
	if shuffleBackend == shuffle.Blob {
		fmt.Printf("  shuffle segments    appended=%d fetched=%d recovered=%d\n",
			res.SegmentsAppended, res.SegmentsFetched, res.SegmentsRecovered)
		if res.FirstShuffleFetch > 0 {
			fmt.Printf("  first segment fetch %v into the %v map phase\n",
				res.FirstShuffleFetch.Round(1e6), res.MapPhase.Round(1e6))
		}
	}
	if res.MapOutputsLost > 0 {
		fmt.Printf("  map outputs lost    %d (re-executed)\n", res.MapOutputsLost)
	}
	fmt.Printf("  output bytes        %d\n", res.OutputBytes)
	fmt.Printf("  output files        %d\n", len(res.OutputFiles))
	for _, p := range res.OutputFiles {
		fmt.Printf("    %s\n", p)
	}
	entries, err := fs.MetadataEntries(ctx)
	if err == nil {
		fmt.Printf("  metadata entries    %d\n", entries)
	}
}

// buildFramework boots the chosen backend (hdfs takes only the node
// count and block size from opts) with a tasktracker on every node.
func buildFramework(fsName string, opts blobseer.Options) (*mapreduce.Framework, func(), error) {
	switch fsName {
	case "bsfs":
		cluster, err := blobseer.NewCluster(opts)
		if err != nil {
			return nil, nil, err
		}
		fw, err := cluster.NewFramework()
		if err != nil {
			cluster.Close()
			return nil, nil, err
		}
		return fw, func() { fw.Close(); cluster.Close() }, nil
	case "hdfs":
		net := transport.NewMemNet()
		cluster, err := hdfs.NewCluster(net, hdfs.ClusterConfig{Datanodes: opts.Providers})
		if err != nil {
			return nil, nil, err
		}
		fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
			Net:   net,
			Hosts: cluster.DatanodeHosts(),
			Mount: func(host string) dfs.FileSystem { return cluster.Mount(host, opts.BlockSize) },
		})
		if err != nil {
			cluster.Close()
			return nil, nil, err
		}
		return fw, func() { fw.Close(); cluster.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("unknown fs %q", fsName)
	}
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrrun:", err)
	os.Exit(1)
}
