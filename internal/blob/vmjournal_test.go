package blob

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// vmPair feeds one op stream to two version managers: a journaled one
// that is crash-killed and replayed at random points, and an in-memory
// reference that never restarts. Every response and error must match —
// replay must reconstruct exactly the acknowledged state, no matter
// where the kills land relative to checkpoints and compactions.
type vmPair struct {
	t    *testing.T
	net  transport.Network
	pool *rpc.Pool

	durAddr transport.Addr
	refAddr transport.Addr
	durCfg  VersionManagerConfig
	dur     *VersionManager
	ref     *VersionManager
}

func newVMPair(t *testing.T) *vmPair {
	t.Helper()
	net := transport.NewMemNet()
	durAddr := transport.MakeAddr("vm-dur-host", SvcVersionManager)
	refAddr := transport.MakeAddr("vm-ref-host", SvcVersionManager)
	durCfg := VersionManagerConfig{
		Nodes:       segtree.NewMemStore(),
		JournalPath: filepath.Join(t.TempDir(), "vm.log"),
	}
	dur, err := NewVersionManager(net, durAddr, durCfg)
	if err != nil {
		t.Fatal(err)
	}
	shrinkJournal(dur)
	ref, err := NewVersionManager(net, refAddr, VersionManagerConfig{Nodes: segtree.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	pool := rpc.NewPool(net, transport.MakeAddr("vm-pair-cli", "client"))
	p := &vmPair{t: t, net: net, pool: pool, durAddr: durAddr, refAddr: refAddr, durCfg: durCfg, dur: dur, ref: ref}
	t.Cleanup(func() {
		p.dur.Close()
		p.ref.Close()
		pool.Close()
	})
	return p
}

// crash kills the journaled manager without a checkpoint and brings a
// fresh instance up from the journal at the same address.
func (p *vmPair) crash() {
	p.t.Helper()
	if err := p.dur.Kill(); err != nil {
		p.t.Fatal(err)
	}
	vm, err := NewVersionManager(p.net, p.durAddr, p.durCfg)
	if err != nil {
		p.t.Fatalf("replay after kill: %v", err)
	}
	shrinkJournal(vm)
	p.dur = vm
}

// shrinkJournal sets tiny checkpoint/compaction thresholds so a few
// hundred ops cross several checkpoint boundaries and at least one
// journal rewrite. It runs before the manager serves its first call.
func shrinkJournal(vm *VersionManager) {
	vm.journal.checkpointEvery = 16
	vm.journal.compactThreshold = 512
}

// call hits the journaled manager directly (the pool redials after a
// crash because the dead connection surfaces ErrConnLost exactly once).
func (p *vmPair) call(addr transport.Addr, method rpc.Method, req wire.Marshaler, resp wire.Unmarshaler) error {
	err := p.pool.Call(ctx, addr, method, req, resp)
	if retryableVMErr(err) {
		err = p.pool.Call(ctx, addr, method, req, resp)
	}
	return err
}

// check issues the same request to both managers and fails the test on
// any divergence in response or error. newResp may be nil for methods
// without a response body.
func (p *vmPair) check(op string, method rpc.Method, req wire.Marshaler, newResp func() wire.Unmarshaler) {
	p.t.Helper()
	var dresp, rresp wire.Unmarshaler
	if newResp != nil {
		dresp, rresp = newResp(), newResp()
	}
	derr := p.call(p.durAddr, method, req, dresp)
	rerr := p.call(p.refAddr, method, req, rresp)
	if fmt.Sprint(derr) != fmt.Sprint(rerr) {
		p.t.Fatalf("%s: journaled err = %v, reference err = %v", op, derr, rerr)
	}
	if newResp != nil && derr == nil {
		d, r := fmt.Sprintf("%+v", dresp), fmt.Sprintf("%+v", rresp)
		if d != r {
			p.t.Fatalf("%s: journaled resp = %s, reference resp = %s", op, d, r)
		}
	}
}

func TestJournalRandomOpsVsReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runJournalRandomOps(t, seed)
		})
	}
}

func runJournalRandomOps(t *testing.T, seed int64) {
	const ops = 240
	rng := rand.New(rand.NewSource(seed))
	p := newVMPair(t)

	var blobs []uint64              // live blob ids (kept in sync via list)
	assigned := map[uint64]uint64{} // blob -> highest assigned version
	lastAssign := map[uint64]*AssignReq{}

	list := func() {
		var resp ListBlobsResp
		if err := p.call(p.durAddr, VMListBlobs, nil, &resp); err != nil {
			t.Fatal(err)
		}
		blobs = resp.Blobs
	}
	create := func() {
		p.check("create", VMCreateBlob, &CreateBlobReq{PageSize: 128},
			func() wire.Unmarshaler { return &CreateBlobResp{} })
		list()
	}
	create() // always start with one blob

	kill1, kill2 := rng.Intn(ops), rng.Intn(ops)
	for i := 0; i < ops; i++ {
		if i == kill1 || i == kill2 {
			p.crash()
		}
		bl := blobs[rng.Intn(len(blobs))]
		switch r := rng.Float64(); {
		case r < 0.06:
			create()
		case r < 0.40:
			// One assign in four repeats the blob's last one, as a retry
			// whose answer was lost does: it must meet the same pending
			// version in both managers, across crashes and checkpoints.
			req := lastAssign[bl]
			if req == nil || rng.Intn(4) != 0 {
				req = &AssignReq{Blob: bl, Kind: KindAppend, Len: uint64(1 + rng.Intn(300)), Writer: uint64(i + 1)}
				lastAssign[bl] = req
			}
			p.check("assign", VMAssign, req, func() wire.Unmarshaler { return &AssignResp{} })
			assigned[bl]++
		case r < 0.70:
			// Complete a random version, valid or not: rejected and
			// idempotent paths must stay in lockstep too.
			ver := uint64(1 + rng.Intn(int(assigned[bl])+2))
			p.check("complete", VMComplete, &VersionRef{Blob: bl, Ver: ver}, nil)
		case r < 0.78:
			p.check("latest", VMLatest, &BlobRef{Blob: bl},
				func() wire.Unmarshaler { return &VersionInfo{} })
		case r < 0.86:
			ver := uint64(1 + rng.Intn(int(assigned[bl])+2))
			p.check("getversion", VMGetVersion, &GetVersionReq{Blob: bl, Ver: ver, SinceVer: ver},
				func() wire.Unmarshaler { return &VersionResp{} })
		case r < 0.92:
			p.check("history", VMHistory, &HistoryReq{Blob: bl},
				func() wire.Unmarshaler { return &HistoryResp{} })
		case r < 0.96:
			p.check("retention", VMSetRetention,
				&SetRetentionReq{Blob: bl, Retain: uint64(rng.Intn(4))}, nil)
		case r < 0.985:
			p.check("truncate", VMTruncateBefore,
				&VersionRef{Blob: bl, Ver: uint64(rng.Intn(int(assigned[bl]) + 2))}, nil)
		default:
			if len(blobs) > 1 {
				p.check("delete", VMDeleteBlob, &BlobRef{Blob: bl}, nil)
				list()
				delete(assigned, bl)
			}
		}
	}

	// One final crash, then a deep sweep: every surviving blob's whole
	// observable state must match the never-restarted reference.
	p.crash()
	p.check("final list", VMListBlobs, nil, func() wire.Unmarshaler { return &ListBlobsResp{} })
	p.check("final stats", VMStats, nil, func() wire.Unmarshaler { return &VMStatsResp{} })
	for _, bl := range blobs {
		p.check("final latest", VMLatest, &BlobRef{Blob: bl},
			func() wire.Unmarshaler { return &VersionInfo{} })
		p.check("final history", VMHistory, &HistoryReq{Blob: bl},
			func() wire.Unmarshaler { return &HistoryResp{} })
		for v := uint64(1); v <= assigned[bl]+1; v++ {
			p.check("final getversion", VMGetVersion, &GetVersionReq{Blob: bl, Ver: v, SinceVer: v},
				func() wire.Unmarshaler { return &VersionResp{} })
		}
	}
}

// TestJournalColdRestartServesHistory is the straight-line durability
// story: publish a handful of versions, crash, reopen cold, and read
// the full pre-crash history back.
func TestJournalColdRestartServesHistory(t *testing.T) {
	p := newVMPair(t)

	var created CreateBlobResp
	if err := p.call(p.durAddr, VMCreateBlob, &CreateBlobReq{PageSize: 128}, &created); err != nil {
		t.Fatal(err)
	}
	// 7 versions = 15 records (create + 7×assign + 7×complete), below
	// checkpointEvery, so the background checkpointer cannot absorb the
	// tail and the replay count is deterministic.
	const versions = 7
	for i := 0; i < versions; i++ {
		var a AssignResp
		if err := p.call(p.durAddr, VMAssign, &AssignReq{Blob: created.Blob, Kind: KindAppend, Len: 64}, &a); err != nil {
			t.Fatal(err)
		}
		if err := p.call(p.durAddr, VMComplete, &VersionRef{Blob: created.Blob, Ver: a.Ver}, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.crash()
	if n := p.dur.RecoveredRecords(); n != 2*versions+1 {
		t.Fatalf("cold restart replayed %d journal records, want %d", n, 2*versions+1)
	}
	var latest VersionInfo
	if err := p.call(p.durAddr, VMLatest, &BlobRef{Blob: created.Blob}, &latest); err != nil {
		t.Fatal(err)
	}
	if latest.Ver != versions || !latest.Published || latest.Size != versions*64 {
		t.Fatalf("latest after replay = %+v", latest)
	}
	var hist HistoryResp
	if err := p.call(p.durAddr, VMHistory, &HistoryReq{Blob: created.Blob}, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Infos) != versions {
		t.Fatalf("history after replay has %d versions, want %d", len(hist.Infos), versions)
	}
}

// TestRetriedAssignSurvivesRestart: the writer a pending version's
// assign named is in the journal record and in the checkpoint, so after
// a crash (replayed from records) and after a clean close (replayed
// from the snapshot) a retry of that assign gets the same version back.
// An assign that differs in length, or whose version is no longer
// pending, is a new version.
func TestRetriedAssignSurvivesRestart(t *testing.T) {
	p := newVMPair(t)
	var created CreateBlobResp
	if err := p.call(p.durAddr, VMCreateBlob, &CreateBlobReq{PageSize: 128}, &created); err != nil {
		t.Fatal(err)
	}
	assign := func(req *AssignReq) AssignResp {
		t.Helper()
		var a AssignResp
		if err := p.call(p.durAddr, VMAssign, req, &a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	first := &AssignReq{Blob: created.Blob, Kind: KindAppend, Len: 100, Writer: 7}
	a1 := assign(first)
	a2 := assign(&AssignReq{Blob: created.Blob, Kind: KindAppend, Len: 50, Writer: 8})
	for _, restart := range []struct {
		name string
		stop func(*VersionManager) error
	}{{"kill", (*VersionManager).Kill}, {"close", (*VersionManager).Close}} {
		if err := restart.stop(p.dur); err != nil {
			t.Fatal(err)
		}
		vm, err := NewVersionManager(p.net, p.durAddr, p.durCfg)
		if err != nil {
			t.Fatal(err)
		}
		p.dur = vm
		if got := assign(first); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", a1) {
			t.Fatalf("after %s: retried assign = %+v, want %+v", restart.name, got, a1)
		}
	}
	if got := assign(&AssignReq{Blob: created.Blob, Kind: KindAppend, Len: 99, Writer: 7}); got.Ver != 3 {
		t.Fatalf("an assign of another length under the same writer = v%d, want v3", got.Ver)
	}
	if err := p.call(p.durAddr, VMComplete, &VersionRef{Blob: created.Blob, Ver: a2.Ver}, nil); err != nil {
		t.Fatal(err)
	}
	if got := assign(&AssignReq{Blob: created.Blob, Kind: KindAppend, Len: 50, Writer: 8}); got.Ver != 4 {
		t.Fatalf("a repeat of a completed version's assign = v%d, want v4", got.Ver)
	}
}

// vmDigest is the decided state of every BLOB, in id order: each one's
// checkpoint encoding with asOf 0.
func vmDigest(st *vmState) string {
	es := st.blobStates()
	sort.Slice(es, func(a, b int) bool { return es[a].id < es[b].id })
	h := sha256.New()
	for _, e := range es {
		e.bs.mu.Lock()
		h.Write(encodeBlobSnapshot(e.id, e.bs, 0))
		e.bs.mu.Unlock()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// vmCrashScript is 45 transitions over four BLOBs: creates, appends and
// a write, completes, a seal, retention, truncation, frontiers, and a
// delete collected to a tombstone.
func vmCrashScript() []vmRecord {
	var recs []vmRecord
	for id := uint64(1); id <= 3; id++ {
		recs = append(recs, vmRecord{Op: vmOpCreate, Blob: id, Val: 128})
	}
	for i := uint64(0); i < 6; i++ {
		for id := uint64(1); id <= 3; id++ {
			recs = append(recs, vmRecord{Op: vmOpAssign, Blob: id, Kind: KindAppend, Len: 50 + 37*i + id})
		}
		for id := uint64(1); id <= 3; id++ {
			if (i+id)%3 != 0 {
				recs = append(recs, vmRecord{Op: vmOpComplete, Blob: id, Ver: i + 1})
			}
		}
	}
	return append(recs,
		vmRecord{Op: vmOpSealed, Blob: 1, Ver: 3},
		vmRecord{Op: vmOpRetain, Blob: 2, Val: 2},
		vmRecord{Op: vmOpAssign, Blob: 3, Kind: KindWrite, Off: 300, Len: 70},
		vmRecord{Op: vmOpTrunc, Blob: 2, Ver: 2},
		vmRecord{Op: vmOpFrontier, Blob: 2, Ver: 2},
		vmRecord{Op: vmOpCreate, Blob: 4, Val: 64},
		vmRecord{Op: vmOpAssign, Blob: 4, Kind: KindAppend, Len: 100},
		vmRecord{Op: vmOpComplete, Blob: 4, Ver: 1},
		vmRecord{Op: vmOpAssign, Blob: 1, Kind: KindAppend, Len: 33},
		vmRecord{Op: vmOpDelete, Blob: 3},
		vmRecord{Op: vmOpFrontier, Blob: 3, Ver: 8},
		vmRecord{Op: vmOpComplete, Blob: 1, Ver: 7},
	)
}

// TestVMJournalCrashPoints runs vmCrashScript through a journal, with
// checkpoints after records 20 and 36 and a compaction after the
// second, then cuts a copy of the log at every byte offset of its life
// (a compacted image is synced before it replaces the log, so cuts
// start past it). Each reopened copy must replay to the in-memory state
// after the last record wholly below the cut, however the cut splits a
// checkpoint's snapshots from its trim, and its next record must get
// that record's seq + 1.
func TestVMJournalCrashPoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vm.log")
	j, err := openVMJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	st := newVMState(0, 1, nil)
	now := time.Unix(1, 0)
	type point struct {
		end    int64
		digest string
		last   uint64
	}
	type logGen struct {
		data   []byte
		base   int64
		start  point
		points []point
	}
	readLog := func() []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cur := &logGen{start: point{digest: vmDigest(st)}}
	var gens []*logGen
	for i, rec := range vmCrashScript() {
		if err := j.append(&rec); err != nil {
			t.Fatal(err)
		}
		st.apply(rec, now)
		end, _ := j.kv.Size()
		cur.points = append(cur.points, point{end: end, digest: vmDigest(st), last: rec.Seq})
		if i+1 != 20 && i+1 != 36 {
			continue
		}
		if err := j.checkpoint(st); err != nil {
			t.Fatal(err)
		}
		if i+1 == 36 {
			cur.data = readLog()
			gens = append(gens, cur)
			if err := j.kv.Compact(); err != nil {
				t.Fatal(err)
			}
			image := readLog()
			cur = &logGen{data: image, base: int64(len(image)), start: cur.points[len(cur.points)-1]}
		}
	}
	cur.data = readLog()
	gens = append(gens, cur)
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.log")
	rng := rand.New(rand.NewSource(1))
	for _, g := range gens {
		for cut := g.base; cut <= int64(len(g.data)); cut++ {
			if testing.Short() && rng.Intn(8) != 0 {
				continue
			}
			want := g.start
			for _, p := range g.points {
				if p.end > cut {
					break
				}
				want = p
			}
			if err := os.WriteFile(cutPath, g.data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			rj, err := openVMJournal(cutPath)
			if err != nil {
				t.Fatalf("cut %d: open: %v", cut, err)
			}
			rst := newVMState(0, 1, nil)
			if _, err := rj.replay(rst, now); err != nil {
				t.Fatalf("cut %d: replay: %v", cut, err)
			}
			if got := vmDigest(rst); got != want.digest {
				t.Fatalf("cut %d: replayed state differs from the state after record %d", cut, want.last)
			}
			next := vmRecord{Op: vmOpCreate, Blob: 9, Val: 128}
			if err := rj.append(&next); err != nil || next.Seq != want.last+1 {
				t.Fatalf("cut %d: next record got seq %d, %v; want %d", cut, next.Seq, err, want.last+1)
			}
			rj.close()
		}
	}
}

// TestCheckpointedTombstoneReplays: a deleted BLOB collected to a
// tombstone keeps its published count and no records; a checkpoint of
// it, and of a live BLOB with a pending version that named a writer,
// replays to the same state.
func TestCheckpointedTombstoneReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vm.log")
	j, err := openVMJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	st := newVMState(0, 1, nil)
	now := time.Unix(1, 0)
	for _, rec := range []vmRecord{
		{Op: vmOpCreate, Blob: 1, Val: 128},
		{Op: vmOpCreate, Blob: 2, Val: 128},
		{Op: vmOpAssign, Blob: 1, Kind: KindAppend, Len: 100, Val: 5},
		{Op: vmOpComplete, Blob: 1, Ver: 1},
		{Op: vmOpAssign, Blob: 1, Kind: KindAppend, Len: 100, Val: 6},
		{Op: vmOpComplete, Blob: 1, Ver: 2},
		{Op: vmOpDelete, Blob: 1},
		{Op: vmOpFrontier, Blob: 1, Ver: 3},
		{Op: vmOpAssign, Blob: 2, Kind: KindWrite, Off: 40, Len: 100, Val: 7},
	} {
		if err := j.append(&rec); err != nil {
			t.Fatal(err)
		}
		st.apply(rec, now)
	}
	if err := j.checkpoint(st); err != nil {
		t.Fatal(err)
	}
	want := vmDigest(st)
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	rj, err := openVMJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.close()
	rst := newVMState(0, 1, nil)
	if n, err := rj.replay(rst, now); err != nil || n != 0 {
		t.Fatalf("replay of a checkpointed journal: %d records, %v; want 0, nil", n, err)
	}
	if got := vmDigest(rst); got != want {
		t.Fatal("the replayed checkpoint differs from the state it was taken of")
	}
	bs, _ := rst.lookup(2)
	if ver := bs.retriedLocked(&AssignReq{Blob: 2, Kind: KindWrite, Off: 40, Len: 100, Writer: 7}); ver != 1 {
		t.Fatalf("a retry of the checkpointed pending assign matched v%d, want v1", ver)
	}
}

// TestReplayParentJournal replays testdata/vmjournal-parent.log, written
// by the version manager before its journal moved onto kvlog.Journal:
// 44 records over four BLOBs, a checkpoint after record 36 that trimmed
// them, and 8 records after it. The format is unchanged, so it replays
// to the digest the writer computed from its own memory, and the next
// record continues the seq.
func TestReplayParentJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "vmjournal-parent.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vm.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openVMJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	st := newVMState(0, 1, nil)
	n, err := j.replay(st, time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	const digest = "822798219f3a9c095742c5caebacf74ab25a93a087e70d55da8069d24bffadcc"
	if got := vmDigest(st); got != digest || n != 8 || j.log.Last() != 44 {
		t.Fatalf("replayed digest %s, %d records, last seq %d; want %s, 8, 44", got, n, j.log.Last(), digest)
	}
	rec := vmRecord{Op: vmOpCreate, Blob: 9, Val: 128}
	if err := j.append(&rec); err != nil || rec.Seq != 45 {
		t.Fatalf("next record got seq %d, %v; want 45", rec.Seq, err)
	}
}

// TestVMJournalAppendAllocationBudget: one journal append costs its key,
// its encoding, and the one buffer the store frames the record in — 3
// objects.
func TestVMJournalAppendAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget: skipped under -short")
	}
	j, err := openVMJournal(filepath.Join(t.TempDir(), "vm.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	rec := vmRecord{Op: vmOpAssign, Blob: 1, Kind: KindAppend, Len: 1000}
	for i := 0; i < 300; i++ {
		if err := j.append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { j.append(&rec) }); n > 3 {
		t.Fatalf("a journal append allocates %.2f objects, budget 3", n)
	}
}

// TestCheckpointRacingCreateKeepsBlob: a checkpoint that starts between
// a create's journal append and its install must still cover the
// create, in its snapshots or above the seq it trims through, so the
// BLOB opens after a crash and a restart. The seam starts the
// checkpoint there and gives it 100 ms: one that nothing holds off
// finishes in that time and trims the create away.
func TestCheckpointRacingCreateKeepsBlob(t *testing.T) {
	net := transport.NewMemNet()
	addr := transport.MakeAddr("vm-race-host", SvcVersionManager)
	cfg := VersionManagerConfig{Nodes: segtree.NewMemStore(), JournalPath: filepath.Join(t.TempDir(), "vm.log")}
	dur, err := NewVersionManager(net, addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := rpc.NewPool(net, transport.MakeAddr("vm-race-cli", "client"))
	defer pool.Close()
	checkpointed := make(chan error, 1)
	dur.createLogged = func() {
		go func() { checkpointed <- dur.journal.checkpoint(dur.st) }()
		select {
		case err := <-checkpointed:
			checkpointed <- err
		case <-time.After(100 * time.Millisecond):
		}
	}
	var created CreateBlobResp
	if err := pool.Call(ctx, addr, VMCreateBlob, &CreateBlobReq{PageSize: 64}, &created); err != nil {
		t.Fatal(err)
	}
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
	if err := dur.Kill(); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewVersionManager(net, addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	open := func() error {
		return pool.Call(ctx, addr, VMLatest, &BlobRef{Blob: created.Blob}, &VersionInfo{})
	}
	err = open()
	if retryableVMErr(err) {
		err = open() // the pool redials the restarted manager
	}
	if err != nil {
		t.Fatalf("blob %d after a checkpoint raced its create and a restart: %v", created.Blob, err)
	}
}
