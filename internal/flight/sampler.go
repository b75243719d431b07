package flight

import (
	"log/slog"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/obs"
)

// Tail-sampling policy.
const (
	// defaultSlowFloor is the root duration kept regardless of the live
	// distribution when AttachSampler is given 0.
	defaultSlowFloor = 50 * time.Millisecond
	// minCount is the sample count an op histogram needs before its p99
	// is trusted.
	minCount = 50
)

// Sampler decides, at root-span completion, whether the finished trace
// is worth persisting — tail sampling: the whole causal tree is kept
// or dropped based on how the operation actually went, never on a coin
// flip taken up front. A trace is kept when its root is slow (past the
// floor, or past the live p99 of the same-named metrics.Default op
// histogram) or when any retained span of the trace errored.
type Sampler struct {
	slowFloor time.Duration
	rec       *Recorder
	coll      *obs.Collector
	cancel    func()
}

// AttachSampler hooks a tail sampler between coll and rec that keeps
// roots running at least slowFloor (0 means 50 ms). Detach with Close.
func AttachSampler(coll *obs.Collector, rec *Recorder, slowFloor time.Duration) *Sampler {
	if slowFloor <= 0 {
		slowFloor = defaultSlowFloor
	}
	s := &Sampler{slowFloor: slowFloor, rec: rec, coll: coll}
	s.cancel = coll.Observe(s.onSpan)
	return s
}

// onSpan fires on every completed span; only roots trigger a verdict.
func (s *Sampler) onSpan(si obs.SpanInfo) {
	if si.Parent != 0 {
		return
	}
	reason := s.verdict(si)
	if reason == "" {
		// The root itself passed; the trace may still carry an error
		// in a child span — that alone warrants keeping it.
		spans := s.coll.Trace(si.Trace)
		for _, sp := range spans {
			if sp.Err != "" {
				s.keep(si, "error", spans)
				return
			}
		}
		return
	}
	s.keep(si, reason, s.coll.Trace(si.Trace))
}

// verdict classifies the root span alone: "slow", "error", or "" for
// unremarkable.
func (s *Sampler) verdict(root obs.SpanInfo) string {
	if root.Err != "" {
		return "error"
	}
	if root.Dur >= s.slowFloor {
		return "slow"
	}
	if snap, ok := metrics.Default.OpSnapshot(root.Name); ok && snap.Count >= minCount {
		if p99 := snap.Quantile(0.99); p99 > 0 && float64(root.Dur) >= p99 {
			return "slow"
		}
	}
	return ""
}

func (s *Sampler) keep(root obs.SpanInfo, reason string, spans []obs.SpanInfo) {
	if len(spans) == 0 {
		spans = []obs.SpanInfo{root}
	}
	if err := s.rec.RecordTrace(root.Trace, reason, root.Dur, spans); err != nil {
		slog.Error("flight: record trace", "trace", root.Trace, "err", err)
	}
}

// Close detaches the sampler from the collector.
func (s *Sampler) Close() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}
