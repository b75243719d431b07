package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed step of a traced operation. Spans form a causal
// tree via Parent; the rpc layer carries (Trace, ID) across the wire
// so a server-side dispatch span parents under the client's call span
// even when the two run in different processes.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64 // 0 = root
	Name   string
	Where  string // host/endpoint annotation (set by the rpc server side)
	Start  time.Time
	Dur    time.Duration
	Err    string
	Notes  []string

	mu    sync.Mutex
	ended bool
	coll  *Collector
}

var (
	nextTraceID atomic.Uint64
	nextSpanID  atomic.Uint64
)

// spanKey carries the active span identity in a context.
type spanKeyType struct{}

var spanKey spanKeyType

type spanRef struct{ trace, span uint64 }

// SpanIDs extracts the active trace and span ids from ctx. ok is false
// when the context is untraced.
func SpanIDs(ctx context.Context) (trace, span uint64, ok bool) {
	ref, ok := ctx.Value(spanKey).(spanRef)
	return ref.trace, ref.span, ok
}

// StartTrace begins a new trace rooted at a span called name. The
// returned context carries the trace; every StartSpan and rpc call
// under it records into the default collector.
func StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{
		Trace: nextTraceID.Add(1),
		ID:    nextSpanID.Add(1),
		Name:  name,
		Start: time.Now(),
		coll:  Spans,
	}
	return context.WithValue(ctx, spanKey, spanRef{s.Trace, s.ID}), s
}

// StartSpan begins a child span under ctx's active span. When ctx is
// untraced it returns (ctx, nil) without allocating; a nil *Span is a
// no-op receiver for Annotate and End, so call sites need no guards.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	ref, ok := ctx.Value(spanKey).(spanRef)
	if !ok {
		return ctx, nil
	}
	s := &Span{
		Trace:  ref.trace,
		ID:     nextSpanID.Add(1),
		Parent: ref.span,
		Name:   name,
		Start:  time.Now(),
		coll:   Spans,
	}
	return context.WithValue(ctx, spanKey, spanRef{s.Trace, s.ID}), s
}

// StartChild begins a child span without deriving a new context — for
// leaf operations (one rpc call) that never propagate the context
// further in-process. Returns nil when ctx is untraced.
func StartChild(ctx context.Context, name string) *Span {
	ref, ok := ctx.Value(spanKey).(spanRef)
	if !ok {
		return nil
	}
	return &Span{
		Trace:  ref.trace,
		ID:     nextSpanID.Add(1),
		Parent: ref.span,
		Name:   name,
		Start:  time.Now(),
		coll:   Spans,
	}
}

// StartRemote begins a span for work done on behalf of a remote
// caller: trace and parent arrived over the wire, where names the
// serving endpoint. Returns nil when trace is zero (untraced call).
func StartRemote(trace, parent uint64, name, where string) *Span {
	if trace == 0 {
		return nil
	}
	return &Span{
		Trace:  trace,
		ID:     nextSpanID.Add(1),
		Parent: parent,
		Name:   name,
		Where:  where,
		Start:  time.Now(),
		coll:   Spans,
	}
}

// Annotate attaches a formatted note to the span. Safe on a nil span.
func (s *Span) Annotate(format string, args ...any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Notes = append(s.Notes, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// End completes the span (recording err when non-nil) and hands it to
// the collector. Safe on a nil span; second End is a no-op.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.Dur = time.Since(s.Start)
	if err != nil {
		s.Err = err.Error()
	}
	coll := s.coll
	s.mu.Unlock()
	if coll != nil {
		coll.add(s)
	}
}

// Collector retains completed spans in a fixed ring buffer and flags
// slow operations. It is the process-wide sink: memnet deployments
// run every service in one process, so one ring holds the full causal
// tree of a traced operation.
type Collector struct {
	mu  sync.Mutex
	cap int
	// ring is allocated on the first completed span: a megabyte of
	// pointer-bearing retention would otherwise be scanned by every
	// runtime GC cycle in processes that never trace anything.
	ring []SpanInfo
	next int
	full bool

	slow atomic.Int64 // slow-op threshold in nanoseconds; 0 = off

	// observers holds the completion hooks (tail samplers) as an
	// immutable []observer slice swapped under obsMu; add() loads it
	// with one atomic read, so untraced workloads never feel it.
	obsMu     sync.Mutex
	observers atomic.Value // []observer
	obsNext   uint64
}

// observer is one registered completion hook.
type observer struct {
	id uint64
	fn func(SpanInfo)
}

// Observe registers fn to run synchronously after every completed span
// lands in the ring — the tail-sampling hook: a flight recorder decides
// on root-span completion whether the finished trace is worth keeping.
// fn must be fast and must not End spans into the same collector. The
// returned cancel removes the hook.
func (c *Collector) Observe(fn func(SpanInfo)) (cancel func()) {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	c.obsNext++
	id := c.obsNext
	var cur []observer
	if v := c.observers.Load(); v != nil {
		cur = v.([]observer)
	}
	next := make([]observer, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, observer{id: id, fn: fn})
	c.observers.Store(next)
	return func() {
		c.obsMu.Lock()
		defer c.obsMu.Unlock()
		var have []observer
		if v := c.observers.Load(); v != nil {
			have = v.([]observer)
		}
		pruned := make([]observer, 0, len(have))
		for _, o := range have {
			if o.id != id {
				pruned = append(pruned, o)
			}
		}
		c.observers.Store(pruned)
	}
}

// SpanInfo is the immutable record of one completed span — what a
// Collector retains and what trace queries return.
type SpanInfo struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Name   string
	Where  string
	Start  time.Time
	Dur    time.Duration
	Err    string
	Notes  []string
}

// NewCollector returns a collector retaining the last capacity spans.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = 1
	}
	return &Collector{cap: capacity}
}

// Spans is the process-wide span collector.
var Spans = NewCollector(8192)

// SetSlowThreshold arms slow-op logging: any span ending with a
// duration at or above d logs a warning through Log. d <= 0 disarms.
func (c *Collector) SetSlowThreshold(d time.Duration) { c.slow.Store(int64(d)) }

func (c *Collector) add(s *Span) {
	cs := SpanInfo{
		Trace:  s.Trace,
		ID:     s.ID,
		Parent: s.Parent,
		Name:   s.Name,
		Where:  s.Where,
		Start:  s.Start,
		Dur:    s.Dur,
		Err:    s.Err,
		Notes:  s.Notes,
	}
	c.mu.Lock()
	if c.ring == nil {
		c.ring = make([]SpanInfo, c.cap)
	}
	c.ring[c.next] = cs
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
		c.full = true
	}
	c.mu.Unlock()

	if slow := c.slow.Load(); slow > 0 && int64(cs.Dur) >= slow {
		Log.Warnf("slow op: %s took %v (trace=%d span=%d%s)",
			cs.Name, cs.Dur.Round(time.Microsecond), cs.Trace, cs.ID, whereSuffix(cs.Where))
	}
	if cs.Err != "" {
		Log.Debugf("span error: %s: %s (trace=%d)", cs.Name, cs.Err, cs.Trace)
	}

	if v := c.observers.Load(); v != nil {
		for _, o := range v.([]observer) {
			o.fn(cs)
		}
	}
}

func whereSuffix(where string) string {
	if where == "" {
		return ""
	}
	return " @" + where
}

// snapshot returns the retained spans, oldest first.
func (c *Collector) snapshot() []SpanInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.full {
		return append([]SpanInfo(nil), c.ring[:c.next]...)
	}
	out := make([]SpanInfo, 0, len(c.ring))
	out = append(out, c.ring[c.next:]...)
	out = append(out, c.ring[:c.next]...)
	return out
}

// Trace returns the retained spans of one trace, start-ordered.
func (c *Collector) Trace(trace uint64) []SpanInfo {
	var out []SpanInfo
	for _, cs := range c.snapshot() {
		if cs.Trace == trace {
			out = append(out, cs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceIDs returns the ids of recently retained traces, newest first,
// at most max (0 = all).
func (c *Collector) TraceIDs(max int) []uint64 {
	seen := make(map[uint64]bool)
	var ids []uint64
	spans := c.snapshot()
	for i := len(spans) - 1; i >= 0; i-- {
		id := spans[i].Trace
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
		if max > 0 && len(ids) == max {
			break
		}
	}
	return ids
}

// Tree renders one trace as an indented causal tree: every span under
// its parent, siblings in start order, with durations, endpoints,
// errors, and annotations. Spans whose parent fell out of the ring
// render as roots, so a partially retained trace still displays.
func (c *Collector) Tree(trace uint64) string {
	spans := c.Trace(trace)
	if len(spans) == 0 {
		return fmt.Sprintf("trace %d: no spans retained\n", trace)
	}
	return RenderTree(trace, spans)
}

// RenderTree renders an already-collected span set as the same causal
// tree Collector.Tree prints — the shared renderer for live traces and
// traces replayed from a flight log after the process that recorded
// them died.
func RenderTree(trace uint64, spans []SpanInfo) string {
	if len(spans) == 0 {
		return fmt.Sprintf("trace %d: no spans retained\n", trace)
	}
	spans = append([]SpanInfo(nil), spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	byID := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	children := make(map[uint64][]SpanInfo)
	var roots []SpanInfo
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d (%d spans)\n", trace, len(spans))
	var render func(s SpanInfo, prefix string, last bool)
	render = func(s SpanInfo, prefix string, last bool) {
		branch, childPrefix := "├─ ", prefix+"│  "
		if last {
			branch, childPrefix = "└─ ", prefix+"   "
		}
		fmt.Fprintf(&b, "%s%s%s %v%s", prefix, branch, s.Name, s.Dur.Round(time.Microsecond), whereSuffix(s.Where))
		if s.Err != "" {
			fmt.Fprintf(&b, " ERR(%s)", s.Err)
		}
		b.WriteByte('\n')
		for _, note := range s.Notes {
			fmt.Fprintf(&b, "%s   · %s\n", childPrefix, note)
		}
		kids := children[s.ID]
		for i, k := range kids {
			render(k, childPrefix, i == len(kids)-1)
		}
	}
	for i, r := range roots {
		render(r, "", i == len(roots)-1)
	}
	return b.String()
}
