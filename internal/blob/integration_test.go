package blob

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"blobseer/internal/transport"
)

// TestClusterOverTCP proves the whole BlobSeer stack is a genuine
// networked system: the same cluster code runs over real TCP sockets
// on the loopback interface.
func TestClusterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	c, err := NewCluster(transport.NewTCPNet(), ClusterConfig{
		Providers: 4, MetaProviders: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client("tcp-cli")
	defer cl.Close()

	b, err := cl.Create(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(1, 512*5)
	if _, err := b.Append(ctx, want); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, 1); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(ctx, 1, 0, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch over TCP")
	}
}

// TestConcurrentUnalignedAppends exercises the boundary-merge path
// under concurrency: appenders write chunks whose sizes are NOT page
// multiples, so every append must fold in the previous version's
// partial tail page (waiting for its publication). The final content
// must be some interleaving of whole chunks, nothing torn.
func TestConcurrentUnalignedAppends(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 6, MetaProviders: 3})
	const appenders = 8
	const ps = 256

	cl0 := newTestClient(t, c, "cli-0")
	b0, err := cl0.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}

	// Chunk sizes are coprime with the page size.
	sizes := []int{101, 333, 77, 512, 95, 260, 129, 411}
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			cl := c.Client(fmt.Sprintf("cli-%d", a))
			defer cl.Close()
			b := cl.Handle(b0.ID(), b0.PageSize())
			if _, err := b.Append(ctx, pattern(byte(a+1), sizes[a])); err != nil {
				errs <- fmt.Errorf("appender %d: %w", a, err)
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, err := b0.WaitPublished(ctx, appenders); err != nil {
		t.Fatal(err)
	}
	info, err := b0.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if info.Size != uint64(total) {
		t.Fatalf("size = %d, want %d", info.Size, total)
	}
	all, err := b0.ReadAt(ctx, 0, 0, info.Size)
	if err != nil {
		t.Fatal(err)
	}
	// The file must be a concatenation of the 8 chunks in some order.
	remaining := all
	seen := make(map[byte]bool)
	for len(remaining) > 0 {
		matched := false
		for a := 0; a < appenders; a++ {
			if seen[byte(a+1)] {
				continue
			}
			chunk := pattern(byte(a+1), sizes[a])
			if len(remaining) >= len(chunk) && bytes.Equal(remaining[:len(chunk)], chunk) {
				seen[byte(a+1)] = true
				remaining = remaining[len(chunk):]
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("content at offset %d matches no appender's chunk start",
				total-len(remaining))
		}
	}
	if len(seen) != appenders {
		t.Fatalf("found %d of %d chunks", len(seen), appenders)
	}

	// Every intermediate version remains a consistent prefix chain:
	// version v's content is a prefix of... not necessarily (appends
	// only extend), so check sizes are strictly increasing and reads
	// succeed.
	var prev uint64
	for v := uint64(1); v <= appenders; v++ {
		vi, err := b0.GetVersion(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if vi.Size <= prev {
			t.Fatalf("version %d size %d not greater than %d", v, vi.Size, prev)
		}
		if _, err := b0.ReadAt(ctx, v, 0, vi.Size); err != nil {
			t.Fatalf("read version %d: %v", v, err)
		}
		prev = vi.Size
	}
}

// TestInterleavedReadersWritersManyVersions runs mixed read/append
// traffic on one BLOB and checks a global invariant at every step:
// earlier versions' contents are immutable prefixes of later ones
// (append-only BLOBs grow monotonically).
func TestInterleavedReadersWritersManyVersions(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4, MetaProviders: 2})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var reference []byte // what the blob must contain after each append

	const rounds = 30
	for v := 1; v <= rounds; v++ {
		chunk := pattern(byte(v), 64+(v*37)%300)
		mu.Lock()
		reference = append(reference, chunk...)
		want := append([]byte(nil), reference...)
		mu.Unlock()
		res, err := b.Append(ctx, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadAt(ctx, res.Ver, 0, uint64(len(want)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d diverged from reference", res.Ver)
		}
	}
}
