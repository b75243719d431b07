package blob

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"blobseer/internal/segtree"
)

// published appends data and waits for its version to be readable.
func published(t *testing.T, b *Blob, data []byte) WriteResult {
	t.Helper()
	res, err := b.Append(ctx, data)
	if err == nil {
		_, err = b.WaitPublished(ctx, res.Ver)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// readExact fails unless bytes [off, off+len(want)) of version ver are
// want.
func readExact(t *testing.T, b *Blob, ver, off uint64, want []byte) {
	t.Helper()
	got, err := b.ReadAt(ctx, ver, off, uint64(len(want)))
	if err != nil {
		t.Fatalf("read v%d [%d,%d): %v", ver, off, off+uint64(len(want)), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v%d [%d,%d) reads wrong", ver, off, off+uint64(len(want)))
	}
}

// TestSealKeepsNeighbourBytes: sealing a version that begins mid-page
// must not zero what earlier versions stored in that page. Before
// fragments the seal committed a hole for the whole first page of the
// record, and acked bytes of version 1 read back as zeros.
func TestSealKeepsNeighbourBytes(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	first, third := pattern(1, 100), pattern(3, 100)
	published(t, b, first)
	a, _, _, err := b.assign(ctx, KindAppend, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(ctx, a.Ver); err != nil {
		t.Fatal(err)
	}
	res := published(t, b, third)
	for _, ver := range []uint64{a.Ver, res.Ver} {
		readExact(t, b, ver, 0, first)
		readExact(t, b, ver, 100, make([]byte, 100)) // the sealed bytes
	}
	readExact(t, b, res.Ver, 200, third)
}

// TestRecordAppendsStoreOnlyTheirBytes: records far smaller than a page
// cost the providers their own bytes and nothing else, and every
// version reads exactly — whole, across its tail, and page by page —
// through a client that wrote none of it.
func TestRecordAppendsStoreOnlyTheirBytes(t *testing.T) {
	const ps, recLen, records = 4096, 1000, 20
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	writer := newTestClient(t, c, "writer")
	reader := newTestClient(t, c, "reader")
	b, err := writer.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	rb := reader.Handle(b.ID(), ps)
	var want []byte
	for k := 0; k < records; k++ {
		rec := pattern(byte(k+1), recLen)
		want = append(want, rec...)
		res := published(t, b, rec)
		readExact(t, rb, res.Ver, 0, want)
		tail := want[max(0, len(want)-1500):]
		readExact(t, rb, res.Ver, uint64(len(want)-len(tail)), tail)
		last := uint64(len(want)-1) / ps
		view, err := rb.PageView(ctx, res.Ver, last)
		if err != nil || !bytes.Equal(view.Data, want[last*ps:]) {
			t.Fatalf("after record %d: last page views as %d bytes (%v), want %d", k, len(view.Data), err, uint64(len(want))-last*ps)
		}
		view.Release()
	}
	if got := c.ProviderBytes(); got != int64(len(want)) {
		t.Errorf("providers hold %d bytes for %d user bytes", got, len(want))
	}
	locs, err := rb.PageLocations(ctx, 0, 0, uint64(len(want)))
	if err != nil || len(locs) != (len(want)+ps-1)/ps {
		t.Errorf("PageLocations = %d entries (%v), want one per page", len(locs), err)
	}

	// A prefetched fragmented range is served from the cache alone.
	cold := newTestClient(t, c, "cold")
	cb := cold.Handle(b.ID(), ps)
	if err := cb.Prefetch(ctx, records, 0, uint64(len(want))); err != nil {
		t.Fatal(err)
	}
	before := cold.ReadStats().Snapshot().ProviderFetches
	// A record stores one page, two when it straddles a page boundary.
	if stored := uint64(records + (len(want)-1)/ps); before != stored {
		t.Errorf("prefetch fetched %d pages, want the %d stored", before, stored)
	}
	readExact(t, cb, records, 0, want)
	readExact(t, cb, records, 2500, want[2500:7000])
	if d := cold.ReadStats().Snapshot().ProviderFetches - before; d != 0 {
		t.Errorf("reads after the prefetch fetched %d pages from providers, want 0", d)
	}
}

// TestSlotChainBoundedAcrossCompactions: tiny appends grow a slot's
// chain to segtree.MaxSlotFragments pages and no further; the append
// that finds it full rewrites the slot prefix, and every version reads
// exactly on both sides of each rewrite.
func TestSlotChainBoundedAcrossCompactions(t *testing.T) {
	const ps, recLen, records = 2048, 30, 160
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	compactions, longest := 0, 0
	for k := 0; k < records; k++ {
		rec := pattern(byte(k), recLen)
		res := published(t, b, rec)
		want = append(want, rec...)
		info, err := b.GetVersion(ctx, res.Ver)
		if err != nil {
			t.Fatal(err)
		}
		slots, err := b.resolveSlots(ctx, info, info.Pages-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(slots) > segtree.MaxSlotFragments {
			t.Fatalf("after append %d the last page is stored as %d pages", k, len(slots))
		}
		longest = max(longest, len(slots))
		if len(slots) == 1 && res.Start%ps != 0 {
			compactions++
		}
		readExact(t, b, res.Ver, 0, want)
	}
	if longest != segtree.MaxSlotFragments || compactions == 0 {
		t.Errorf("longest chain %d, %d compactions: the run must reach the bound and cross it", longest, compactions)
	}
	for ver := uint64(1); ver <= records; ver += 9 {
		readExact(t, b, ver, 0, want[:ver*recLen])
	}
}

// TestUnalignedAppendDoesNotWaitForPredecessor: with version 1 assigned
// and held pending, the data path of an unaligned version 2 — pages,
// metadata, completion — finishes. It used to wait for version 1 to
// publish so that it could read the boundary page. Only publication is
// ordered: version 2 publishes once version 1 completes, or is sealed.
func TestUnalignedAppendDoesNotWaitForPredecessor(t *testing.T) {
	for _, end := range []string{"completes", "seals"} {
		t.Run("predecessor "+end, func(t *testing.T) {
			c := newTestCluster(t, ClusterConfig{Providers: 4})
			cl := newTestClient(t, c, "cli")
			b, err := cl.Create(ctx, 256)
			if err != nil {
				t.Fatal(err)
			}
			first, second := pattern(1, 100), pattern(2, 100)
			a, history, alloc, err := b.assign(ctx, KindAppend, 0, uint64(len(first)))
			if err != nil {
				t.Fatal(err)
			}
			pw, err := b.AppendAsync(ctx, [][]byte{second})
			if err != nil {
				t.Fatal(err)
			}
			wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			res, err := pw.Wait(wctx)
			if err != nil {
				t.Fatalf("version 2's data path behind a pending version 1: %v", err)
			}
			if info, err := b.GetVersion(ctx, res.Ver); err != nil || info.Published {
				t.Fatalf("version 2 = %+v, %v: it must not publish before version 1", info, err)
			}
			if end == "completes" {
				err = b.finishWrite(ctx, a, history, payload{first}, alloc)
			} else {
				err = b.Abort(ctx, a.Ver)
				first = make([]byte, len(first))
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.WaitPublished(wctx, res.Ver); err != nil {
				t.Fatal(err)
			}
			readExact(t, b, res.Ver, 0, append(first, second...))
		})
	}
}

// TestFragmentWriteShapes: the writes that begin mid-page past
// everything the page holds — a run of several buffers, a write past
// the end that leaves a gap — and the overwrite inside existing bytes
// that still merges.
func TestFragmentWriteShapes(t *testing.T) {
	const ps = 256
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(1, 100)
	published(t, b, want)

	// A run of whole-page buffers and a tail, onto an unaligned end.
	run := [][]byte{pattern(2, 2*ps), pattern(3, ps), pattern(4, 50)}
	pw, err := b.AppendAsync(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want = append(want, slices.Concat(run...)...)

	// Past the end, inside the partly filled last page: the gap is zeros.
	gap := uint64(len(want)) + 20
	if _, err := b.WriteAt(ctx, pattern(5, 300), gap); err != nil {
		t.Fatal(err)
	}
	want = append(append(want, make([]byte, 20)...), pattern(5, 300)...)
	stored := int64(len(want))
	if got := c.ProviderBytes(); got != stored {
		t.Errorf("providers hold %d bytes for %d bytes written so far", got, stored)
	}

	// Inside existing bytes, beginning and ending mid-page: a merge, which
	// stores both boundary pages whole.
	res, err := b.WriteAt(ctx, pattern(6, 400), 150)
	if err != nil {
		t.Fatal(err)
	}
	copy(want[150:], pattern(6, 400))
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	readExact(t, b, res.Ver, 0, want)
	if got := c.ProviderBytes(); got != stored+3*ps {
		t.Errorf("the overwrite of pages 0-2 stored %d bytes, want three whole pages", got-stored)
	}
	for v := uint64(1); v < res.Ver; v++ {
		if _, err := b.ReadAt(ctx, v, 0, 100); err != nil {
			t.Errorf("version %d after the overwrite: %v", v, err)
		}
	}
}

// TestWritePastPartlyFilledPage: a write beginning in a page past a
// partly filled last page stores that page's tail, zeros up to the write
// and then the write, as a fragment behind the last page's bytes. It used
// to start at its own page, and a read across the last page failed on
// its writer's short page.
func TestWritePastPartlyFilledPage(t *testing.T) {
	const ps = 256
	c := newTestCluster(t, ClusterConfig{Providers: 4})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	first, second := pattern(1, 100), pattern(2, 50)
	published(t, b, first)
	res, err := b.WriteAt(ctx, second, 600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, res.Ver); err != nil {
		t.Fatal(err)
	}
	want := slices.Concat(first, make([]byte, 500), second)
	readExact(t, b, res.Ver, 0, want)
	readExact(t, newTestClient(t, c, "reader").Handle(b.ID(), ps), res.Ver, 0, want)
	if got := c.ProviderBytes(); got != int64(len(want)) {
		t.Errorf("providers hold %d bytes for a %d-byte BLOB: the write must store from byte 100 on", got, len(want))
	}
}

// TestFragmentHeadsSurviveCheckpointAndReplay: the Head of every record
// is a function of the records before it, so a shard that restarts from
// a checkpoint plus raw journal records holds the records the live shard
// handed out, hands out the same kind next, and serves every version.
func TestFragmentHeadsSurviveCheckpointAndReplay(t *testing.T) {
	const ps = 512
	c := newTestCluster(t, ClusterConfig{Providers: 4, JournalDir: t.TempDir()})
	cl := newTestClient(t, c, "cli")
	b, err := cl.Create(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var contents [][]byte
	var want []byte
	pastEnd := map[uint64]uint64{} // version -> start of a write past the end
	grow := func(n int) {
		for k := 0; k < n; k++ {
			rec := make([]byte, 1+rng.Intn(40))
			rng.Read(rec)
			if k%10 != 9 {
				published(t, b, rec)
				want = append(want, rec...)
			} else { // in a later page, ending on a page boundary: the next append is whole pages
				start := (len(want)/ps+2)*ps - len(rec)
				res, err := b.WriteAt(ctx, rec, uint64(start))
				if err == nil {
					_, err = b.WaitPublished(ctx, res.Ver)
				}
				if err != nil {
					t.Fatal(err)
				}
				pastEnd[res.Ver] = uint64(start)
				want = append(append(want, make([]byte, start-len(want))...), rec...)
			}
			contents = append(contents, slices.Clone(want))
		}
	}
	records := func() []segtree.WriteRecord {
		bs, ok := c.ShardVM(0).st.lookup(b.ID())
		if !ok {
			t.Fatal("the shard lost the BLOB")
		}
		bs.mu.Lock()
		defer bs.mu.Unlock()
		return slices.Clone(bs.records)
	}

	grow(50)
	if err := c.ShardVM(0).journal.checkpoint(c.ShardVM(0).st); err != nil {
		t.Fatal(err)
	}
	grow(50) // journaled after the checkpoint: replayed record by record
	live := records()
	if err := c.KillVM(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartVM(0); err != nil {
		t.Fatal(err)
	}
	if replayed := records(); !slices.Equal(replayed, live) {
		t.Fatalf("replayed records differ from the live ones:\n%v\n%v", replayed, live)
	}
	grow(50)
	var frags, rewrites, gapped int
	for _, rec := range records() {
		if rec.Head != 0 {
			frags++
		} else if rec.Ver > 1 {
			rewrites++
		}
		if start, ok := pastEnd[rec.Ver]; ok && rec.Off*ps+rec.Head < start {
			gapped++
		}
	}
	if frags == 0 || rewrites == 0 || gapped == 0 {
		t.Errorf("%d fragments, %d whole-page records and %d writes stored from a partly filled page before them: the run must produce all three", frags, rewrites, gapped)
	}
	fresh := newTestClient(t, c, "fresh")
	fb := fresh.Handle(b.ID(), ps)
	for i, content := range contents {
		readExact(t, fb, uint64(i+1), 0, content)
	}
}

// TestCreateRejectsOversizedPage: an in-slot offset travels as a uint32.
func TestCreateRejectsOversizedPage(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	cl := newTestClient(t, c, "cli")
	if _, err := cl.Create(ctx, 1<<31); err != nil {
		t.Errorf("page size 1<<31: %v", err)
	}
	if _, err := cl.Create(ctx, 1<<31+1); err == nil {
		t.Error("page size 1<<31+1 accepted")
	}
}
