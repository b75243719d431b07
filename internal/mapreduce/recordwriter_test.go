package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/dfs"
	"blobseer/internal/transport"
)

func newSharedFile(t *testing.T, block uint64, depth int) (*bsfs.Deployment, string) {
	t.Helper()
	cluster, err := blob.NewCluster(transport.NewMemNet(), blob.ClusterConfig{Providers: 4, MetaProviders: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	d, err := bsfs.Deploy(cluster, bsfs.DeployConfig{Tuning: bsfs.Tuning{BlockSize: block, WriteDepth: depth}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, "/shared-output"
}

// TestOversizedRecordsStayWhole: four reducers append records of two
// and a half blocks to one file. Each record is padded to three blocks
// and leaves as one append, so it comes back contiguous and intact
// wherever the other reducers' records landed.
func TestOversizedRecordsStayWhole(t *testing.T) {
	const block, writers, records = 256, 4, 10
	ctx := context.Background()
	d, path := newSharedFile(t, block, 4)
	record := func(wi, ri int) []byte {
		head := fmt.Sprintf("w%d-r%02d:", wi, ri)
		return []byte(head + strings.Repeat(string(rune('a'+wi)), block*5/2-len(head)-1) + "\n")
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for wi := 0; wi < writers; wi++ {
		fs := d.Mount(fmt.Sprintf("reducer-%d", wi))
		t.Cleanup(func() { fs.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := fs.Append(ctx, path)
			if err != nil {
				errs <- err
				return
			}
			rw := newRecordWriter(w, block, new(transport.Recycler[[]byte]))
			for ri := 0; ri < records; ri++ {
				if _, err := rw.Write(record(wi, ri)); err != nil {
					errs <- err
					break
				}
			}
			if err := rw.Close(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	reader := d.Mount("reader")
	defer reader.Close()
	got, err := dfs.ReadAll(ctx, reader, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*records*3*block {
		t.Fatalf("output is %d bytes, want %d records of 3 blocks", len(got), writers*records)
	}
	// Padding is empty lines; what is left must be exactly the records,
	// each in one piece.
	seen := make(map[string]bool)
	for _, line := range bytes.Split(got, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		seen[string(line)+"\n"] = true
	}
	for wi := 0; wi < writers; wi++ {
		for ri := 0; ri < records; ri++ {
			if !seen[string(record(wi, ri))] {
				t.Errorf("record %d of writer %d is missing or torn", ri, wi)
			}
		}
	}
	if len(seen) != writers*records {
		t.Errorf("%d distinct lines in the output, want the %d records", len(seen), writers*records)
	}
}

// TestRecordBeyondAtomicLimitFails: a record that needs more blocks
// than one append carries cannot be kept whole; the writer says so
// instead of splitting it.
func TestRecordBeyondAtomicLimitFails(t *testing.T) {
	const block, depth = 256, 2
	ctx := context.Background()
	d, path := newSharedFile(t, block, depth)
	fs := d.Mount("reducer")
	defer fs.Close()
	w, err := fs.Append(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	rw := newRecordWriter(w, block, new(transport.Recycler[[]byte]))
	if _, err := rw.Write(bytes.Repeat([]byte("x"), depth*block)); err != nil {
		t.Fatalf("a record of exactly %d blocks: %v", depth, err)
	}
	_, err = rw.Write(bytes.Repeat([]byte("y"), depth*block+1))
	if err == nil || !strings.Contains(err.Error(), "atomically") {
		t.Fatalf("a record over %d blocks: err = %v, want the atomic-append limit", depth, err)
	}
	if cerr := rw.Close(); cerr != err {
		t.Errorf("Close = %v, want the Write's error", cerr)
	}
	got, err := dfs.ReadAll(ctx, fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != depth*block || bytes.ContainsRune(got, 'y') {
		t.Errorf("output is %d bytes; only the %d-block record should be there", len(got), depth)
	}
}
