package flight

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"blobseer/internal/kvlog"
	"blobseer/internal/monitor"
	"blobseer/internal/obs"
)

// RecorderOptions bound the flight log.
type RecorderOptions struct {
	// MaxEvents caps retained events; the oldest are deleted past it
	// (default 4096).
	MaxEvents int
	// MaxBytes caps the live payload bytes; oldest events are deleted
	// past it (default 8 MiB).
	MaxBytes int64
	// CompactSlack is the dead-byte threshold past which the backing
	// kvlog is rewritten (default 1 MiB, the vmjournal convention).
	CompactSlack int64
	// SyncEvery forces an fsync per N events; zero leaves flushing to
	// the OS (a flight recorder tolerates losing the last instants —
	// crash recovery truncates the torn tail).
	SyncEvery int
}

func (o RecorderOptions) withDefaults() RecorderOptions {
	if o.MaxEvents <= 0 {
		o.MaxEvents = 4096
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 8 << 20
	}
	if o.CompactSlack <= 0 {
		o.CompactSlack = 1 << 20
	}
	return o
}

// Recorder is the bounded on-disk event journal. Events append under
// keys "e/%016x" (hex seq, so lexical key order is append order);
// retention deletes the oldest keys and compacts the log when dead
// bytes pile up. Safe for concurrent use.
type Recorder struct {
	opts RecorderOptions

	// now is the injected clock stamping events; tests override it to
	// keep timelines deterministic.
	now func() time.Time

	mu        sync.Mutex
	store     *kvlog.Store
	seq       uint64 // last assigned seq
	oldest    uint64 // seq of the oldest retained event (seq+1 when empty)
	count     int
	liveBytes int64
	closed    bool
}

func eventKey(seq uint64) string { return fmt.Sprintf("e/%016x", seq) }

// Open opens (or creates) a flight log at path and replays its index.
// Reopening a log abandoned by a killed process recovers every intact
// event — the whole point.
func Open(path string, opts RecorderOptions) (*Recorder, error) {
	opts = opts.withDefaults()
	store, err := kvlog.Open(path, kvlog.Options{SyncEvery: opts.SyncEvery})
	if err != nil {
		return nil, fmt.Errorf("flight open: %w", err)
	}
	r := &Recorder{opts: opts, store: store, now: time.Now}
	var seqs []uint64
	for _, k := range store.Keys() {
		var s uint64
		if !strings.HasPrefix(k, "e/") {
			continue
		}
		if _, err := fmt.Sscanf(k[2:], "%016x", &s); err != nil {
			continue
		}
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if len(seqs) > 0 {
		r.oldest = seqs[0]
		r.seq = seqs[len(seqs)-1]
		r.count = len(seqs)
		_, live := store.Size()
		r.liveBytes = live
	} else {
		r.oldest = 1
	}
	return r, nil
}

// Append persists one event, assigning its Seq and At, and enforces
// retention.
func (r *Recorder) Append(ev Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("flight: recorder closed")
	}
	r.seq++
	ev.Seq = r.seq
	if ev.At.IsZero() {
		ev.At = r.now()
	}
	buf, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("flight append: %w", err)
	}
	// r.mu exists to serialize log appends: seq assignment and the
	// kvlog write must commit in the same order, and every contender
	// is itself an append that needs the disk write ordered anyway.
	//lint:lockhold r.mu's purpose is serializing the append + seq assignment; contenders are appends that must wait for the write regardless
	if err := r.store.Put(eventKey(ev.Seq), buf); err != nil {
		return err
	}
	r.count++
	r.liveBytes += int64(len(buf))
	for r.count > r.opts.MaxEvents || (r.liveBytes > r.opts.MaxBytes && r.count > 1) {
		key := eventKey(r.oldest)
		if v, err := r.store.Get(key); err == nil {
			r.liveBytes -= int64(len(v))
		}
		//lint:lockhold retention must delete under the same critical section that admitted the event past the cap
		if err := r.store.Delete(key); err != nil {
			return err
		}
		r.oldest++
		r.count--
	}
	//lint:lockhold compaction rewrites the log file; appends racing it would write into the pre-rename fd
	_, err = r.store.CompactIfDead(r.opts.CompactSlack)
	return err
}

// RecordTrace persists a sampled span tree.
func (r *Recorder) RecordTrace(traceID uint64, reason string, rootDur time.Duration, spans []obs.SpanInfo) error {
	return r.Append(Event{Kind: KindTrace, Trace: &TraceEvent{
		TraceID: traceID,
		Reason:  reason,
		RootMs:  float64(rootDur.Nanoseconds()) / 1e6,
		Spans:   spans,
	}})
}

// RecordSnapshot persists a monitor cluster view.
func (r *Recorder) RecordSnapshot(snap monitor.ClusterSnapshot) error {
	return r.Append(Event{Kind: KindSnapshot, Snapshot: &snap})
}

// RecordHealth persists a component health transition.
func (r *Recorder) RecordHealth(h HealthEvent) error {
	return r.Append(Event{Kind: KindHealth, Health: &h})
}

// RecordAlert persists a watchdog rule transition.
func (r *Recorder) RecordAlert(a AlertEvent) error {
	return r.Append(Event{Kind: KindAlert, Alert: &a})
}

// Len reports retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Replay returns every retained event in append order.
func (r *Recorder) Replay() ([]Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("flight: recorder closed")
	}
	events := make([]Event, 0, r.count)
	err := r.store.Scan(func(key string, value []byte) error {
		if !strings.HasPrefix(key, "e/") {
			return nil
		}
		var ev Event
		if jerr := json.Unmarshal(value, &ev); jerr != nil {
			return fmt.Errorf("flight replay %s: %w", key, jerr)
		}
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	return events, nil
}

// Sync flushes the backing log to disk.
func (r *Recorder) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	//lint:lockhold Sync must order against in-flight appends; r.mu is the append serializer
	return r.store.Sync()
}

// Close closes the backing log. A kill skips this — by design the log
// is still replayable.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	return r.store.Close()
}

// FormatTimeline renders replayed events as a human-readable incident
// timeline: one line per snapshot/health/alert event, sampled traces
// expanded into their causal trees via obs.RenderTree.
func FormatTimeline(events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight timeline: %d events\n", len(events))
	for _, ev := range events {
		ts := ev.At.Format("15:04:05.000")
		switch ev.Kind {
		case KindTrace:
			if t := ev.Trace; t != nil {
				fmt.Fprintf(&b, "%s TRACE %d kept (%s, root %.2fms)\n", ts, t.TraceID, t.Reason, t.RootMs)
				tree := obs.RenderTree(t.TraceID, t.Spans)
				for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
					fmt.Fprintf(&b, "             %s\n", line)
				}
			}
		case KindSnapshot:
			if s := ev.Snapshot; s != nil {
				fmt.Fprintf(&b, "%s SNAPSHOT collections=%d lag=%.0f imbalance=%.2f components=%d\n",
					ts, s.Collections, s.MaxJournalLag, s.ReplicaImbalance, len(s.Components))
			}
		case KindHealth:
			if h := ev.Health; h != nil {
				state := "healthy"
				if !h.Healthy {
					state = "UNHEALTHY"
				}
				fmt.Fprintf(&b, "%s HEALTH %s -> %s", ts, h.Component, state)
				if h.Detail != "" {
					fmt.Fprintf(&b, " (%s)", h.Detail)
				}
				b.WriteByte('\n')
			}
		case KindAlert:
			if a := ev.Alert; a != nil {
				fmt.Fprintf(&b, "%s ALERT %s %s value=%.3f limit=%.3f", ts, a.Rule, strings.ToUpper(a.State), a.Value, a.Limit)
				if a.Detail != "" {
					fmt.Fprintf(&b, " (%s)", a.Detail)
				}
				b.WriteByte('\n')
			}
		default:
			fmt.Fprintf(&b, "%s %s (seq %d)\n", ts, ev.Kind, ev.Seq)
		}
	}
	return b.String()
}
