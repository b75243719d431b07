// Wordcount on the modified framework: all reducers append their
// counts to a single shared output file, which is then verified
// against an in-memory reference count.
//
//	go run ./examples/wordcount
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"blobseer"
	"blobseer/internal/apps/wordcount"
	"blobseer/internal/dfs"
	"blobseer/internal/mapreduce"
	"blobseer/internal/workload"
)

func main() {
	ctx := context.Background()
	var opts blobseer.Options
	opts.Providers, opts.MetaProviders, opts.BlockSize = 8, 3, 16<<10
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

	text := workload.Text(200<<10, 3)
	fs := fw.ClientFS()
	if err := dfs.WriteFile(ctx, fs, "/in/corpus", []byte(text)); err != nil {
		log.Fatal(err)
	}

	res, err := fw.Run(ctx, wordcount.Job([]string{"/in/corpus"}, "/out", 4, mapreduce.SharedAppend))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job: %d maps (%d data-local), %d reducers, %v\n",
		res.MapTasks, res.LocalMaps, res.ReduceTasks, res.Duration.Round(1e6))
	fmt.Printf("output: %d file(s): %v\n", len(res.OutputFiles), res.OutputFiles)

	// Verify against the reference and print the top words.
	data, err := dfs.ReadAll(ctx, fs, res.OutputFiles[0])
	if err != nil {
		log.Fatal(err)
	}
	got := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		w, c, _ := strings.Cut(line, "\t")
		n, _ := strconv.Atoi(c)
		got[w] = n
	}
	want := wordcount.ReferenceCount(text)
	for w, n := range want {
		if got[w] != n {
			log.Fatalf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
	fmt.Printf("verified %d distinct words against the reference\n\n", len(want))

	type wc struct {
		w string
		n int
	}
	var top []wc
	for w, n := range got {
		top = append(top, wc{w, n})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].n > top[j].n })
	fmt.Println("top 10 words:")
	for _, e := range top[:10] {
		fmt.Printf("  %-12s %6d\n", e.w, e.n)
	}
}
