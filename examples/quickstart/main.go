// Quickstart: boot an embedded BlobSeer+BSFS cluster, append to a
// shared file from several concurrent writers, and read snapshots back
// through the versioning interface.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"strings"
	"sync"

	"blobseer"
	"blobseer/internal/dfs"
)

func main() {
	ctx := context.Background()

	// An in-process deployment: 8 data providers, 3 metadata
	// providers, one version manager, one provider manager, one BSFS
	// namespace manager. 64 KiB blocks keep the demo snappy.
	// Options' knobs are promoted from the layers that own them, so
	// they are set by assignment.
	var opts blobseer.Options
	opts.Providers, opts.MetaProviders, opts.BlockSize = 8, 3, 64<<10
	cluster, err := blobseer.NewCluster(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// --- File-system level: concurrent appends to one shared file ---
	fs := cluster.Mount("node-000")
	defer fs.Close()
	if err := dfs.WriteFile(ctx, fs, "/logs/events", nil); err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer gets its own mount, co-located with a
			// provider, like the paper's clients.
			m := cluster.Mount(fmt.Sprintf("node-%03d", w))
			defer m.Close()
			f, err := m.Append(ctx, "/logs/events")
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				fmt.Fprintf(f, "writer-%d event-%d\n", w, i)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}(w)
	}
	wg.Wait()

	fi, err := fs.Stat(ctx, "/logs/events")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared file after 4 concurrent appenders: %d bytes (version %d)\n", fi.Size, fi.Version)

	// --- File-system level: the version axis ---
	// Every append published an immutable snapshot; enumerate them and
	// time-travel to the first one. The versioned open pins its
	// snapshot against garbage collection until the reader closes.
	history, err := fs.History(ctx, "/logs/events")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("history: %d published snapshots (first %d bytes, last %d bytes)\n",
		len(history), history[0].Size, history[len(history)-1].Size)
	first, err := fs.OpenVersion(ctx, "/logs/events", history[0].Version)
	if err != nil {
		log.Fatal(err)
	}
	firstBytes := make([]byte, first.Size())
	if _, err := first.ReadAt(firstBytes, 0); err != nil && err != io.EOF {
		log.Fatal(err)
	}
	fmt.Printf("snapshot %d 1st line: %q\n", first.Version(),
		strings.SplitN(string(firstBytes), "\n", 2)[0])
	first.Close()

	// Capability probing, the way the Map/Reduce framework does it:
	if _, ok := blobseer.AsVersioned(fs); !ok {
		log.Fatal("bsfs mount lost its versioned capability")
	}

	// --- BLOB level: versioning ---
	bc := cluster.BlobClient("node-001")
	defer bc.Close()
	blob, err := bc.Create(ctx, 4096)
	if err != nil {
		log.Fatal(err)
	}
	v1, err := blob.Append(ctx, []byte("first state of the world"))
	if err != nil {
		log.Fatal(err)
	}
	v2, err := blob.Append(ctx, []byte(" ... and an update"))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := blob.WaitPublished(ctx, v2.Ver); err != nil {
		log.Fatal(err)
	}

	// Every published version stays readable: this is the property
	// that lets readers work while appenders append.
	old, err := blob.ReadAt(ctx, v1.Ver, 0, v1.SizeAfter)
	if err != nil {
		log.Fatal(err)
	}
	cur, err := blob.ReadAt(ctx, v2.Ver, 0, v2.SizeAfter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("version %d: %q\n", v1.Ver, old)
	fmt.Printf("version %d: %q\n", v2.Ver, cur)

	// The scheduler-facing primitive: where does each page live?
	locs, err := blob.PageLocations(ctx, 0, 0, v2.SizeAfter)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range locs {
		fmt.Printf("page %d -> hosts %v\n", l.Index, l.Hosts)
	}
}
