// Pipeline: the multiple-producer / concurrent-consumer log of §2.1
// and §5 — appenders keep extending one shared BSFS file (an HBase-like
// transaction log) while a reader tails it through version snapshots,
// never blocking the writers and never seeing torn data.
//
//	go run ./examples/pipeline
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"strings"
	"sync"
	"time"

	"blobseer"
	"blobseer/internal/dfs"
)

const logPath = "/wal/transactions"

func main() {
	ctx := context.Background()
	var opts blobseer.Options
	opts.Providers, opts.MetaProviders, opts.BlockSize = 6, 3, 4<<10
	cluster, err := blobseer.NewCluster(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	setup := cluster.Mount("node-000")
	defer setup.Close()
	if err := dfs.WriteFile(ctx, setup, logPath, nil); err != nil {
		log.Fatal(err)
	}

	const producers = 3
	const recordsEach = 40

	// Producers append transaction records concurrently; each Flush is
	// one atomic append, so records never tear across writers.
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			m := cluster.Mount(fmt.Sprintf("node-%03d", p))
			defer m.Close()
			w, err := m.Append(ctx, logPath)
			if err != nil {
				log.Fatal(err)
			}
			fl := w.(dfs.Flusher)
			for i := 0; i < recordsEach; i++ {
				fmt.Fprintf(w, "txn producer=%d seq=%d amount=%d\n", p, i, (p+1)*i)
				if err := fl.Flush(); err != nil {
					log.Fatal(err)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := w.Close(); err != nil {
				log.Fatal(err)
			}
		}(p)
	}

	// The consumer tails the log while producers run: read to the
	// pinned snapshot's end, then Refresh to pick up newly published
	// appends (§5: readers work in parallel with appenders).
	consumed := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	m := cluster.Mount("node-005")
	defer m.Close()
	f, err := m.Open(ctx, logPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	producersDone := false
	for {
		line, err := r.ReadString('\n')
		switch {
		case err == nil:
			if !strings.HasPrefix(line, "txn ") {
				log.Fatalf("torn record: %q", line)
			}
			consumed++
		case err == io.EOF:
			if producersDone {
				if _, err := f.Refresh(ctx); err != nil {
					log.Fatal(err)
				}
				if _, err := r.ReadString('\n'); err == io.EOF {
					// Fully drained after the final refresh.
					fmt.Printf("consumer drained the log: %d records from %d producers\n",
						consumed, producers)
					if consumed != producers*recordsEach {
						log.Fatalf("expected %d records", producers*recordsEach)
					}
					return
				}
				// More appeared; re-open the snapshot and continue.
				consumed++
				continue
			}
			select {
			case <-done:
				producersDone = true
			case <-time.After(5 * time.Millisecond):
			}
			if _, err := f.Refresh(ctx); err != nil {
				log.Fatal(err)
			}
			r = bufio.NewReaderSize(f, 4<<10)
		default:
			log.Fatal(err)
		}
	}
}
