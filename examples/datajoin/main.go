// Datajoin: the paper's §4.3 evaluation application end-to-end — the
// same join job runs on the original framework layout (HDFS-style, one
// part file per reducer) and on the modified framework (BSFS, all
// reducers appending to a single shared file), then the outputs are
// verified to be identical multisets and the file counts compared.
//
//	go run ./examples/datajoin
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"blobseer"
	"blobseer/internal/apps/datajoin"
	"blobseer/internal/dfs"
	"blobseer/internal/hdfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/transport"
	"blobseer/internal/workload"
)

const reducers = 6

func main() {
	ctx := context.Background()
	contentA, contentB := workload.JoinInputs(workload.JoinConfig{Keys: 300, DupA: 4, DupB: 4, Seed: 7})
	want := datajoin.ReferenceJoin(contentA, contentB)
	fmt.Printf("inputs: %d + %d bytes; expected join rows: %d\n",
		len(contentA), len(contentB), count(want))

	bsfsRows, bsfsFiles := runBSFS(ctx, contentA, contentB)
	hdfsRows, hdfsFiles := runHDFS(ctx, contentA, contentB)

	for _, r := range []struct {
		name  string
		rows  map[string]int
		files int
	}{{"modified Hadoop + BSFS", bsfsRows, bsfsFiles}, {"original Hadoop + HDFS", hdfsRows, hdfsFiles}} {
		if !equal(r.rows, want) {
			log.Fatalf("%s: join output does not match the reference", r.name)
		}
		fmt.Printf("%-24s rows=%d output files=%d\n", r.name, count(r.rows), r.files)
	}
	fmt.Printf("\nsame result, but BSFS leaves %d file(s) and HDFS leaves %d —\n"+
		"the file-count problem the paper's append support removes.\n",
		bsfsFiles, hdfsFiles)
}

func runBSFS(ctx context.Context, a, b string) (map[string]int, int) {
	var opts blobseer.Options
	opts.Providers, opts.MetaProviders, opts.BlockSize = 8, 3, 32<<10
	cluster, err := blobseer.NewCluster(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fw, err := cluster.NewFramework()
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()
	return runJob(ctx, fw, a, b, mapreduce.SharedAppend)
}

func runHDFS(ctx context.Context, a, b string) (map[string]int, int) {
	net := transport.NewMemNet()
	cluster, err := hdfs.NewCluster(net, hdfs.ClusterConfig{Datanodes: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fw, err := mapreduce.NewFramework(mapreduce.FrameworkConfig{
		Net:   net,
		Hosts: cluster.DatanodeHosts(),
		Mount: func(host string) dfs.FileSystem { return cluster.Mount(host, 32<<10) },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()
	return runJob(ctx, fw, a, b, mapreduce.SeparateFiles)
}

func runJob(ctx context.Context, fw *mapreduce.Framework, a, b string, mode mapreduce.OutputMode) (map[string]int, int) {
	fs := fw.ClientFS()
	if err := dfs.WriteFile(ctx, fs, "/in/a", []byte(a)); err != nil {
		log.Fatal(err)
	}
	if err := dfs.WriteFile(ctx, fs, "/in/b", []byte(b)); err != nil {
		log.Fatal(err)
	}
	res, err := fw.Run(ctx, datajoin.Job("/in/a", "/in/b", "/out", reducers, mode))
	if err != nil {
		log.Fatal(err)
	}
	rows := map[string]int{}
	for _, p := range res.OutputFiles {
		data, err := dfs.ReadAll(ctx, fs, p)
		if err != nil {
			log.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line != "" {
				rows[line]++
			}
		}
	}
	return rows, len(res.OutputFiles)
}

func count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func equal(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
