package blob

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// newTestProvider serves store on a fresh in-process network and
// returns an rpc client of it.
func newTestProvider(t *testing.T, store pagestore.Store) *rpc.Client {
	t.Helper()
	net := transport.NewMemNet()
	addr := transport.Addr("prov-host/prov")
	p, err := NewProvider(net, addr, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c := rpc.NewClient(net, "cli-host/cli", addr)
	t.Cleanup(func() { c.Close() })
	return c
}

// putOnFirstDelete is a page store whose first Delete first stores
// another page: a put landing on the provider while a collector's
// delete batch runs.
type putOnFirstDelete struct {
	*pagestore.Memory
	once  sync.Once
	extra []byte
}

func (s *putOnFirstDelete) Delete(k pagestore.Key) (int, bool) {
	s.once.Do(func() {
		if err := s.Put(pagestore.Key{Blob: 99}, s.extra); err != nil {
			panic(err)
		}
	})
	return s.Memory.Delete(k)
}

// TestDeletePagesReportsBytesFreed: a delete batch reports the bytes
// of the pages it dropped, however many bytes a put stored meanwhile,
// and skips keys the provider does not hold.
func TestDeletePagesReportsBytesFreed(t *testing.T) {
	store := &putOnFirstDelete{Memory: pagestore.NewMemory(), extra: make([]byte, 700)}
	c := newTestProvider(t, store)
	keys := []pagestore.Key{{Blob: 1}, {Blob: 2}, {Blob: 3}}
	for i, k := range keys[:2] {
		if err := c.Call(ctx, ProvPutPage, &PutPageReq{Key: k, Data: pattern(byte(i), 1000+i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var resp DeletePagesResp
	if err := c.Call(ctx, ProvDeletePages, &DeletePagesReq{Keys: keys}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 2 || resp.BytesFreed != 2001 {
		t.Errorf("delete batch reported %d pages and %d bytes, want 2 and 2001", resp.Deleted, resp.BytesFreed)
	}
	if used := store.BytesUsed(); used != 700 {
		t.Errorf("provider holds %d bytes, want the 700 put during the batch", used)
	}
}

// TestGetPagePinHoldsAcrossRecycling: a provider answers a page read
// with the stored page pinned until rpc has marshalled it, so a Delete
// and a Put of the same length in between do not reach the answer; and
// marshalling the answer releases the pin, so the page's buffer is
// reused once it is deleted.
func TestGetPagePinHoldsAcrossRecycling(t *testing.T) {
	store := pagestore.NewMemory()
	p := &Provider{store: store}
	k := pagestore.Key{Blob: 1, Version: 1}
	want := pattern(1, 4096)
	if err := store.Put(k, want); err != nil {
		t.Fatal(err)
	}
	body, err := p.handleGetPage(wire.NewReader(wire.Marshal(&GetPageReq{Key: k})))
	if err != nil {
		t.Fatal(err)
	}
	store.Delete(k)
	if err := store.Put(pagestore.Key{Blob: 1, Version: 2}, pattern(2, 4096)); err != nil {
		t.Fatal(err)
	}
	var resp GetPageResp
	if err := wire.Unmarshal(wire.Marshal(body), &resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, want) {
		t.Errorf("the answer marshalled %d bytes starting %#x, want the page as it was pinned", len(resp.Data), resp.Data[:4])
	}
	transport.ReleaseFrame(resp.Data)

	// A marshalled answer has released its pin: once deleted, its page
	// holds the next page of its length.
	k = pagestore.Key{Blob: 1, Version: 2}
	body, err = p.handleGetPage(wire.NewReader(wire.Marshal(&GetPageReq{Key: k})))
	if err != nil {
		t.Fatal(err)
	}
	answered := wire.Marshal(body)
	store.Delete(k)
	next := pagestore.Key{Blob: 1, Version: 3}
	if err := store.Put(next, pattern(3, 4096)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answered[len(answered)-4096:], pattern(2, 4096)) {
		t.Error("the second answer did not carry its page")
	}
	if got := body.(*pinnedPage); &(*pagestore.Page)(got).Bytes()[0] != &stored(t, store, next)[0] {
		t.Error("a deleted page whose answer was marshalled was not reused: the answer kept its pin")
	}

	// Serving a read allocates nothing: the answer is the stored page.
	if testing.Short() {
		return // the race detector's short job allocates on its own
	}
	req := wire.Marshal(&GetPageReq{Key: next})
	frame := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(100, func() {
		body, err := p.handleGetPage(wire.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		frame = body.AppendTo(frame[:0])
	})
	if allocs != 0 {
		t.Errorf("a page read allocates %.0f objects on the provider, want 0", allocs)
	}
}

// stored returns the bytes store holds at k, for a test that compares
// buffers; the pin is released at once.
func stored(t *testing.T, store pagestore.Store, k pagestore.Key) []byte {
	t.Helper()
	page, err := store.Pin(k)
	if err != nil {
		t.Fatal(err)
	}
	page.Release()
	return page.Bytes()
}

// TestGetPagePinRacesRecycling: readers fetch the newest page over rpc
// while a writer stores the next one and deletes the one before, so
// every freed buffer holds the next page at once, most often the one a
// read is being answered from. Every page a reader gets must be the
// one it asked for.
func TestGetPagePinRacesRecycling(t *testing.T) {
	const readers, rounds, size = 3, 300, 2048
	c := newTestProvider(t, pagestore.NewMemory())
	key := func(r int64) pagestore.Key { return pagestore.Key{Blob: 5, Version: uint64(r)} }
	var latest atomic.Int64
	if err := c.Call(ctx, ProvPutPage, &PutPageReq{Key: key(0), Data: pattern(0, size)}, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer latest.Store(rounds) // readers stop even if the writer failed
		for r := int64(1); r < rounds; r++ {
			if err := c.Call(ctx, ProvPutPage, &PutPageReq{Key: key(r), Data: pattern(byte(r), size)}, nil); err != nil {
				t.Error(err)
				return
			}
			latest.Store(r)
			if err := c.Call(ctx, ProvDeletePages, &DeletePagesReq{Keys: []pagestore.Key{key(r - 1)}}, &DeletePagesResp{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp GetPageResp
			defer func() { transport.ReleaseFrame(resp.Data) }()
			for r := latest.Load(); r < rounds; r = latest.Load() {
				if err := c.Call(ctx, ProvGetPage, &GetPageReq{Key: key(r)}, &resp); err != nil {
					continue // deleted since
				}
				if !bytes.Equal(resp.Data, pattern(byte(r), size)) {
					t.Errorf("page %d read back %#x, not its own bytes", r, resp.Data[:4])
				}
			}
		}()
	}
	wg.Wait()
}
