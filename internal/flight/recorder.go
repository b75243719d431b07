package flight

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"blobseer/internal/kvlog"
	"blobseer/internal/obs"
)

// Recorder is the bounded on-disk event journal: a kvlog.Journal under
// the "e/" prefix, one JSON event per record, with the record's seq as
// the event's Seq. Retention trims the oldest events past 4096 events
// or 8 MiB of live bytes, and the log compacts past 1 MiB of dead
// bytes. Crash recovery truncates a torn tail, so a recorder needs no
// fsync: it can lose only its last instants. Safe for concurrent use.
type Recorder struct {
	// now is the injected clock stamping events; tests override it to
	// keep timelines deterministic.
	now func() time.Time

	// Retention bounds; tests shrink them.
	maxEvents    int
	maxBytes     int64
	compactSlack int64

	store *kvlog.Store
	log   *kvlog.Journal
	// mu makes an append and the retention it triggers one step, so
	// Len never reads past maxEvents.
	mu sync.Mutex
}

// Open opens (or creates) a flight log at path and replays its index.
// Reopening a log abandoned by a killed process recovers every intact
// event — the whole point.
func Open(path string) (*Recorder, error) {
	store, err := kvlog.Open(path, kvlog.Options{})
	if err != nil {
		return nil, fmt.Errorf("flight open: %w", err)
	}
	return &Recorder{
		now:          time.Now,
		maxEvents:    4096,
		maxBytes:     8 << 20,
		compactSlack: 1 << 20,
		store:        store,
		log:          store.Journal("e/"),
	}, nil
}

// Append persists one event, assigning its Seq and At, and enforces
// retention. An event that fails to encode is not stored and uses no
// Seq.
func (r *Recorder) Append(ev Event) error {
	if err := r.append(ev); err != nil {
		return err
	}
	_, err := r.store.CompactIfDead(r.compactSlack)
	return err
}

func (r *Recorder) append(ev Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	//lint:lockhold r.mu admits the event and trims past the caps as one step; contenders are appends that wait for the write regardless
	seq, err := r.log.Append(func(seq uint64) ([]byte, error) {
		ev.Seq = seq
		if ev.At.IsZero() {
			ev.At = r.now()
		}
		return json.Marshal(ev)
	})
	if err != nil {
		return fmt.Errorf("flight append: %w", err)
	}
	// Under r.mu the retained run ends at seq, so it starts at
	// seq-n+1. The newest event is always kept.
	for n := r.log.Len(); n > 1; n-- {
		if _, live := r.store.Size(); n <= r.maxEvents && live <= r.maxBytes {
			break
		}
		//lint:lockhold retention deletes under the critical section that admitted the event past the cap
		if err := r.log.TrimThrough(seq - uint64(n) + 1); err != nil {
			return err
		}
	}
	return nil
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

// Len reports retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Len()
}

// Replay returns every retained event in append order.
func (r *Recorder) Replay() ([]Event, error) {
	events := make([]Event, 0, r.log.Len())
	err := r.log.Replay(func(seq uint64, rec []byte) error {
		var ev Event
		if err := json.Unmarshal(rec, &ev); err != nil {
			return fmt.Errorf("flight replay event %d: %w", seq, err)
		}
		events = append(events, ev)
		return nil
	})
	return events, err
}

// Close closes the backing log. A kill skips this — by design the log
// is still replayable.
func (r *Recorder) Close() error { return r.store.Close() }

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
