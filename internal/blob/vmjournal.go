package blob

// vmjournal.go persists the version manager's decided state through
// internal/kvlog. The layout has two key spaces:
//
//	j/<seq hex>  — one vmRecord per decided transition, in order
//	s/<blob id>  — per-BLOB checkpoint snapshot, tagged with the
//	               journal sequence it covers (asOf)
//
// Handlers journal the record BEFORE mutating memory (write-ahead), so
// after a crash the journal is never behind the acknowledged state.
// Recovery installs the snapshots, then replays every record whose Seq
// exceeds the owning BLOB's asOf — snapshots of different BLOBs may
// cover different prefixes of the journal (checkpointing never stops
// the world), and the per-blob asOf filter makes that safe.
//
// Checkpoints bound replay time and journal growth: once snapshots
// cover sequence S, every j-record ≤ S is deleted, and the store is
// compacted once its dead bytes pass a threshold (the pagestore.Durable
// pattern), so long-lived shards don't replay unbounded publish/seal
// churn on restart.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blobseer/internal/kvlog"
)

// Journal tuning defaults.
const (
	// vmCheckpointEvery is the number of journaled records between
	// automatic checkpoints.
	vmCheckpointEvery = 4096
	// vmCompactThreshold is the dead-bytes threshold past which the
	// backing kvlog store is rewritten.
	vmCompactThreshold = 1 << 20
)

func jkey(seq uint64) string { return fmt.Sprintf("j/%016x", seq) }
func skey(id uint64) string  { return fmt.Sprintf("s/%d", id) }

// vmJournal wraps a kvlog store with sequence numbering and checkpoint
// bookkeeping. The mutex serializes sequence assignment with the store
// append, so on-disk record order always matches sequence order; it is
// only ever taken while holding (or outside of) a blobState lock, never
// the reverse, so the global lock order stays bs.mu → j.mu.
type vmJournal struct {
	kv *kvlog.Store

	mu  sync.Mutex
	seq uint64 // last assigned sequence
	n   int    // records since last checkpoint kick

	checkpointEvery  int
	compactThreshold int64
	kick             chan struct{} // signals the checkpoint loop
}

func openVMJournal(path string, syncEvery, checkpointEvery int, compactThreshold int64) (*vmJournal, error) {
	kv, err := kvlog.Open(path, kvlog.Options{SyncEvery: syncEvery})
	if err != nil {
		return nil, err
	}
	if checkpointEvery <= 0 {
		checkpointEvery = vmCheckpointEvery
	}
	if compactThreshold <= 0 {
		compactThreshold = vmCompactThreshold
	}
	return &vmJournal{
		kv:               kv,
		checkpointEvery:  checkpointEvery,
		compactThreshold: compactThreshold,
		kick:             make(chan struct{}, 1),
	}, nil
}

// append assigns rec the next sequence number and persists it. On
// error nothing was acknowledged and the caller must not mutate state.
func (j *vmJournal) append(rec *vmRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec.Seq = j.seq + 1
	// Write-ahead ordering: the record must be durable before the
	// state change it journals is acknowledged, and seq order must
	// equal log order — both hinge on the append happening under j.mu.
	//lint:lockhold WAL append must commit under j.mu so seq order matches log order; every contender is an append needing the same ordering
	if err := j.kv.Put(jkey(rec.Seq), rec.encode()); err != nil {
		return err
	}
	j.seq = rec.Seq
	j.n++
	if j.n >= j.checkpointEvery {
		j.n = 0
		select {
		case j.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// seqNow returns the last acknowledged sequence.
func (j *vmJournal) seqNow() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// pending reports records appended since the last checkpoint kick —
// the replay debt a crash right now would leave behind (the cluster
// monitor's journal-lag gauge).
func (j *vmJournal) pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// bytes reports the journal store's total on-disk footprint.
func (j *vmJournal) bytes() int64 {
	total, _ := j.kv.Size()
	return total
}

// replay rebuilds st from the store: snapshots first, then every
// record newer than the owning BLOB's snapshot, in sequence order.
// It returns the number of records replayed (for recovery metrics).
func (j *vmJournal) replay(st *vmState, now time.Time) (int, error) {
	asOf := make(map[uint64]uint64)
	var recs []vmRecord
	var maxSeq uint64
	err := j.kv.Scan(func(key string, value []byte) error {
		switch {
		case strings.HasPrefix(key, "s/"):
			id, bs, cover, err := decodeBlobSnapshot(value, now)
			if err != nil {
				return fmt.Errorf("blob: snapshot %s: %w", key, err)
			}
			st.mu.Lock()
			st.blobs[id] = bs
			st.mu.Unlock()
			st.noteID(id)
			st.assigned.Add(uint64(len(bs.records)))
			st.publishedCount.Add(bs.published)
			for _, v := range bs.status {
				if v == vsSealed {
					st.sealed.Add(1)
				}
			}
			asOf[id] = cover
			if cover > maxSeq {
				maxSeq = cover
			}
		case strings.HasPrefix(key, "j/"):
			rec, err := decodeVMRecord(value)
			if err != nil {
				return fmt.Errorf("blob: journal %s: %w", key, err)
			}
			recs = append(recs, rec)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Seq < recs[k].Seq })
	applied := 0
	for _, rec := range recs {
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		if rec.Seq <= asOf[rec.Blob] {
			continue
		}
		st.apply(rec, now)
		applied++
	}
	j.mu.Lock()
	j.seq = maxSeq
	j.mu.Unlock()
	return applied, nil
}

// checkpoint snapshots every BLOB and trims the journal prefix the
// snapshots cover. It never holds j.mu across a blobState lock and
// never stops the world: each BLOB is snapshotted under its own lock
// with its own asOf (≥ start, so every trimmed record is covered), and
// a crash mid-checkpoint is safe because replay filters per BLOB by
// each snapshot's own asOf.
func (j *vmJournal) checkpoint(st *vmState) error {
	start := j.seqNow()
	for _, e := range st.blobStates() {
		e.bs.mu.Lock()
		cover := j.seqNow()
		data := encodeBlobSnapshot(e.id, e.bs, cover)
		e.bs.mu.Unlock()
		if err := j.kv.Put(skey(e.id), data); err != nil {
			return err
		}
	}
	for _, key := range j.kv.Keys() {
		if !strings.HasPrefix(key, "j/") {
			continue
		}
		seq, err := strconv.ParseUint(key[2:], 16, 64)
		if err != nil || seq > start {
			continue
		}
		if err := j.kv.Delete(key); err != nil {
			return err
		}
	}
	_, err := j.kv.CompactIfDead(j.compactThreshold)
	return err
}

func (j *vmJournal) close() error { return j.kv.Close() }
