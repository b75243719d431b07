package flight

import (
	"context"
	"errors"
	"testing"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/obs"
)

// traceInto runs one two-span trace through the process-wide obs.Spans
// collector (the only sink obs.StartTrace records into), sleeping d in
// the root, optionally erroring the child.
func traceInto(d time.Duration, childErr error) {
	ctx, root := obs.StartTrace(context.Background(), "test.op")
	child := obs.StartChild(ctx, "test.child")
	time.Sleep(d)
	child.End(childErr)
	root.End(nil)
}

func newTestSampler(t *testing.T, opts SamplerOptions) (*Sampler, *Recorder) {
	t.Helper()
	rec, _ := openTemp(t)
	t.Cleanup(func() { rec.Close() })
	s := AttachSampler(obs.Spans, rec, opts)
	t.Cleanup(s.Close)
	return s, rec
}

func TestSamplerKeepsSlowTrace(t *testing.T) {
	s, rec := newTestSampler(t, SamplerOptions{SlowFloor: 10 * time.Millisecond, Registry: metrics.NewRegistry()})

	traceInto(20*time.Millisecond, nil) // slow: kept
	traceInto(0, nil)                   // fast: dropped

	kept, dropped := s.Stats()
	if kept != 1 || dropped != 1 {
		t.Fatalf("kept=%d dropped=%d, want 1/1", kept, dropped)
	}
	events, err := rec.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(events) != 1 || events[0].Kind != KindTrace {
		t.Fatalf("events = %+v, want one trace", events)
	}
	tr := events[0].Trace
	if tr.Reason != "slow" {
		t.Fatalf("reason = %q, want slow", tr.Reason)
	}
	// The full causal tree came along, not just the root.
	if len(tr.Spans) != 2 {
		t.Fatalf("persisted %d spans, want 2 (root + child)", len(tr.Spans))
	}
}

func TestSamplerKeepsErroredChild(t *testing.T) {
	s, rec := newTestSampler(t, SamplerOptions{SlowFloor: time.Hour, Registry: metrics.NewRegistry()})

	// Fast trace, but the child errored: tail sampling must still keep
	// it — the verdict looks at the whole tree, not just the root.
	traceInto(0, errors.New("page put failed"))

	kept, _ := s.Stats()
	if kept != 1 {
		t.Fatalf("kept=%d, want 1 (errored child)", kept)
	}
	events, _ := rec.Replay()
	if len(events) != 1 || events[0].Trace.Reason != "error" {
		t.Fatalf("events = %+v, want one error-reason trace", events)
	}
}

func TestSamplerPercentileGate(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Op("test.op")
	// Tight distribution around 1ms, enough samples to trust p99.
	for i := 0; i < 200; i++ {
		h.RecordDuration(time.Millisecond)
	}
	s, _ := newTestSampler(t, SamplerOptions{
		SlowFloor: -1, // floor off: only the percentile gate judges
		P99Factor: 1.0,
		MinCount:  50,
		Registry:  reg,
	})

	traceInto(30*time.Millisecond, nil) // ≫ p99 of 1ms: kept
	traceInto(0, nil)                   // ~µs, below p99 bucket: dropped

	kept, dropped := s.Stats()
	if kept != 1 || dropped != 1 {
		t.Fatalf("kept=%d dropped=%d, want 1/1 via percentile gate", kept, dropped)
	}
}

func TestSamplerCancelDetaches(t *testing.T) {
	s, _ := newTestSampler(t, SamplerOptions{SlowFloor: time.Nanosecond, Registry: metrics.NewRegistry()})
	s.Close()
	traceInto(2*time.Millisecond, nil)
	kept, dropped := s.Stats()
	if kept != 0 || dropped != 0 {
		t.Fatalf("closed sampler still observing: kept=%d dropped=%d", kept, dropped)
	}
}
