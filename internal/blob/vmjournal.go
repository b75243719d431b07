package blob

// vmjournal.go persists the version manager's decided state in one
// internal/kvlog store. The store holds two key spaces:
//
//	j/…      — a kvlog.Journal: one vmRecord per decided transition, its
//	           journal seq stamped into the record as Seq
//	s/<id>   — per-BLOB checkpoint snapshot, tagged with the journal
//	           seq it covers (asOf)
//
// Handlers journal the record BEFORE mutating memory (write-ahead), so
// after a crash the journal is never behind the acknowledged state.
// Recovery installs the snapshots, then replays every record whose Seq
// exceeds the owning BLOB's asOf — snapshots of different BLOBs may
// cover different prefixes of the journal (checkpointing never stops
// the world), and the per-blob asOf filter makes that safe. The
// journal's own contract (a torn tail is never replayed, never a gap)
// is kvlog's; TestVMJournalCrashPoints checks the two together at every
// byte offset.
//
// A record costs three objects (TestVMJournalAppendAllocationBudget):
// its key, its encoding, and the one buffer kvlog frames it in.
//
// Checkpoints bound replay time and journal growth: once snapshots
// cover seq S, the journal is trimmed through S, and the store is
// compacted once its dead bytes pass a threshold, so long-lived shards
// don't replay unbounded publish/seal churn on restart. The trim writes
// one tombstone per record under the journal's lock, so every assign
// and complete on the shard waits for it: 5 to 9 ms per 4096-record
// checkpoint.

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"blobseer/internal/kvlog"
)

// vmJournal is a version manager's kvlog store: its record journal plus
// the checkpoint policy. The journal serializes seq assignment with the
// store append, so log order is seq order; a handler appends while
// holding its blobState lock, never the reverse.
type vmJournal struct {
	kv  *kvlog.Store
	log *kvlog.Journal

	n atomic.Int64 // records since the last checkpoint kick

	// checkpointEvery is the number of records between automatic
	// checkpoints, and compactThreshold the dead bytes past which the
	// store is rewritten; tests shrink both.
	checkpointEvery  int64
	compactThreshold int64
	kick             chan struct{} // signals the checkpoint loop
}

func openVMJournal(path string) (*vmJournal, error) {
	kv, err := kvlog.Open(path, kvlog.Options{})
	if err != nil {
		return nil, err
	}
	return &vmJournal{
		kv:               kv,
		log:              kv.Journal("j/"),
		checkpointEvery:  4096,
		compactThreshold: 1 << 20,
		kick:             make(chan struct{}, 1),
	}, nil
}

func skey(id uint64) string { return "s/" + strconv.FormatUint(id, 10) }

// append journals rec as the next record, stamping its Seq. On error
// nothing was acknowledged and the caller must not mutate state.
func (j *vmJournal) append(rec *vmRecord) error {
	if _, err := j.log.Append(func(seq uint64) ([]byte, error) {
		rec.Seq = seq
		return rec.encode(), nil
	}); err != nil {
		return err
	}
	if n := j.n.Add(1); n >= j.checkpointEvery && j.n.CompareAndSwap(n, 0) {
		select {
		case j.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// pending reports records appended since the last checkpoint kick —
// the replay debt a crash right now would leave behind (the cluster
// monitor's journal-lag gauge).
func (j *vmJournal) pending() int { return int(j.n.Load()) }

// bytes reports the journal store's total on-disk footprint.
func (j *vmJournal) bytes() int64 {
	total, _ := j.kv.Size()
	return total
}

// replay rebuilds st from the store: snapshots first, then every
// record newer than the owning BLOB's snapshot, in seq order. It
// returns the number of records replayed (for recovery metrics).
func (j *vmJournal) replay(st *vmState, now time.Time) (int, error) {
	asOf := make(map[uint64]uint64)
	var covered uint64
	err := j.kv.Scan(func(key string, value []byte) error {
		if !strings.HasPrefix(key, "s/") {
			return nil
		}
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
		covered = max(covered, cover)
		return nil
	})
	if err != nil {
		return 0, err
	}
	// A checkpoint that trimmed every record leaves the journal no seq
	// of its own: resume past what the snapshots cover.
	j.log.SkipThrough(covered)
	applied := 0
	err = j.log.Replay(func(seq uint64, data []byte) error {
		rec, err := decodeVMRecord(data)
		if err != nil {
			return fmt.Errorf("blob: journal record %d: %w", seq, err)
		}
		if rec.Seq <= asOf[rec.Blob] {
			return nil
		}
		st.apply(rec, now)
		applied++
		return nil
	})
	return applied, err
}

// checkpoint snapshots every BLOB and trims the journal prefix the
// snapshots cover. It never stops the world: each BLOB is snapshotted
// under its own lock with its own asOf (≥ start, so every trimmed
// record is covered), and a crash mid-checkpoint is safe because
// replay filters per BLOB by each snapshot's own asOf. start is read
// with the listing, under st.creating, which a create holds from its
// journal append to its install, so no BLOB created at or below start
// is missing from the listing.
func (j *vmJournal) checkpoint(st *vmState) error {
	st.creating.Lock()
	start, blobs := j.log.Last(), st.blobStates()
	st.creating.Unlock()
	for _, e := range blobs {
		e.bs.mu.Lock()
		data := encodeBlobSnapshot(e.id, e.bs, j.log.Last())
		e.bs.mu.Unlock()
		if err := j.kv.Put(skey(e.id), data); err != nil {
			return err
		}
	}
	if err := j.log.TrimThrough(start); err != nil {
		return err
	}
	_, err := j.kv.CompactIfDead(j.compactThreshold)
	return err
}

func (j *vmJournal) close() error { return j.kv.Close() }
