package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call the harness made into the program's public API (or
// an "op" root grouping such calls), recorded from outside the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int64  `json:"op"`     // spans of one op share this id
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing: the untraced pass calls the same
// workload code and pays one nil check per call.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// maxSpans bounds the trace file; spans past it are dropped, not the run.
const maxSpans = 400_000

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanStat aggregates the finished spans of one name.
type spanStat struct {
	calls int
	total time.Duration // wall
	self  time.Duration // wall minus the part covered by child spans
}

// byName sums duration and self time per span name. The harness's
// children never overlap one another (each client issues its calls in
// sequence), so self time is duration minus the children's durations.
func (t *tracer) byName() map[string]spanStat {
	out := map[string]spanStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		st.calls++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - child[i])
		out[s.Name] = st
	}
	return out
}

// meanMs is the mean duration per call of the named span, 0 if the
// workload never made the call.
func meanMs(stats map[string]spanStat, name string) float64 {
	st := stats[name]
	if st.calls == 0 {
		return 0
	}
	return ms(st.total) / float64(st.calls)
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
