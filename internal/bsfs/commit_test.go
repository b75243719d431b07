package bsfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dfs"
	"blobseer/internal/segtree"
)

// TestAppendCommitsBesideItsPages: an append's metadata commit does not
// wait for its page acks. Every provider holds its acknowledgement until
// the metadata providers hold more nodes than before the write — the
// version's tree — for at most 2 s; a 4-block Write and its Flush must go
// through with no hold running out, and read back exactly. A commit that
// followed the acks would find every hold running out first.
func TestAppendCommitsBesideItsPages(t *testing.T) {
	const block = 256
	net, ack := heldAcks(blob.SvcProvider)
	d := newDeploymentOn(t, net, blob.ClusterConfig{}, block)
	d.WriteDepth = 4
	fs := mount(t, d, "cli")
	w, err := fs.Create(ctx, "/beside")
	if err != nil {
		t.Fatal(err)
	}
	nodes := func() (n int) {
		for _, m := range d.Blob.Metas {
			n += m.Len()
		}
		return n
	}
	before := nodes()
	var held, timedOut atomic.Int32
	hold := func() {
		held.Add(1)
		for deadline := time.Now().Add(2 * time.Second); nodes() == before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				timedOut.Add(1)
				return
			}
		}
	}
	ack.Store(&hold)
	data := pattern(1, 4*block)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.(dfs.Flusher).Flush(); err != nil {
		t.Fatal(err)
	}
	ack.Store(nil)
	if n := timedOut.Load(); n != 0 {
		t.Errorf("%d of %d page acks waited 2 s for the version's tree nodes: the commit waits for the pages", n, held.Load())
	}
	if n := held.Load(); n != 4 {
		t.Errorf("%d provider acks held, want the 4 page puts", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := dfs.ReadAll(ctx, fs, "/beside"); err != nil || !bytes.Equal(got, data) {
		t.Errorf("the file reads back %d bytes (%v), want the 4 blocks written", len(got), err)
	}
}

// TestSealIsLastWrite: an aborted append's metadata commit, which runs
// beside its page puts, has answered before the seal that aborts the
// version is sent, so the seal's hole is what the version's leaf holds.
// The append is aborted by providers refusing its puts, or by its
// context being cancelled while a provider holds the ack of a page it
// stored; the append is a whole page, or a fragment behind the bytes
// already in its page. Either way, once the next append publishes, a
// fresh client reads the aborted extent as zeros and the bytes around
// it intact, and the aborted version's stored leaf is a hole.
func TestSealIsLastWrite(t *testing.T) {
	const page = 256
	aborts := []struct {
		name  string
		abort func(t *testing.T, d *Deployment, ack *atomic.Pointer[func()], bl *blob.Blob, data []byte)
	}{
		{"puts refused", func(t *testing.T, d *Deployment, _ *atomic.Pointer[func()], bl *blob.Blob, data []byte) {
			for _, p := range d.Blob.Providers {
				p.SetFailPuts(true)
			}
			if _, err := bl.Append(ctx, data); !errors.Is(err, blob.ErrPageWrite) {
				t.Fatalf("append with every provider refusing puts: %v", err)
			}
			for _, p := range d.Blob.Providers {
				p.SetFailPuts(false)
			}
		}},
		{"cancelled", func(t *testing.T, _ *Deployment, ack *atomic.Pointer[func()], bl *blob.Blob, data []byte) {
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			release := make(chan struct{})
			var once sync.Once
			hold := func() {
				once.Do(cancel) // the page is stored; its ack is held
				<-release
			}
			ack.Store(&hold)
			_, err := bl.Append(cctx, data)
			ack.Store(nil)
			close(release)
			if err == nil {
				t.Fatal("an append cancelled while its put was held succeeded")
			}
		}},
	}
	for _, size := range []int{page, 100} {
		for _, tc := range aborts {
			t.Run(fmt.Sprintf("%s/%d bytes", tc.name, size), func(t *testing.T) {
				net, ack := heldAcks(blob.SvcProvider)
				d := newDeploymentOn(t, net, blob.ClusterConfig{}, page)
				cl := d.Blob.Client("writer")
				defer cl.Close()
				bl, err := cl.Create(ctx, page)
				if err != nil {
					t.Fatal(err)
				}
				first, third := pattern(1, size), pattern(3, size)
				if _, err := bl.Append(ctx, first); err != nil {
					t.Fatal(err)
				}
				tc.abort(t, d, ack, bl, pattern(2, size)) // version 2
				res, err := bl.Append(ctx, third)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := bl.WaitPublished(ctx, res.Ver); err != nil { // behind the seal
					t.Fatal(err)
				}
				fresh := d.Blob.Client("fresh")
				defer fresh.Close()
				got, err := fresh.Handle(bl.ID(), page).ReadAt(ctx, res.Ver, 0, uint64(3*size))
				if err != nil {
					t.Fatal(err)
				}
				if want := slices.Concat(first, make([]byte, size), third); !bytes.Equal(got, want) {
					t.Error("the aborted extent does not read as zeros between the bytes around it")
				}
				raw, err := fresh.NodeStore().GetNodes(ctx, []string{segtree.LeafKey(bl.ID(), 2, uint64(size/page))})
				if err != nil {
					t.Fatal(err)
				}
				if ref, err := segtree.DecodeLeaf(raw[0]); err != nil || !ref.Hole {
					t.Errorf("the aborted version's leaf is %+v (%v), want a hole", ref, err)
				}
			})
		}
	}
}
