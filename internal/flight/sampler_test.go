package flight

import (
	"context"
	"errors"
	"testing"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/obs"
)

// traceInto runs one two-span trace rooted at op through the
// process-wide obs.Spans collector (the only sink obs.StartTrace
// records into), sleeping d in the root, optionally erroring the
// child. Each test roots its traces at its own op, so the sampler's
// p99 gate reads only that test's metrics.Default histogram.
func traceInto(op string, d time.Duration, childErr error) {
	ctx, root := obs.StartTrace(context.Background(), op)
	child := obs.StartChild(ctx, "test.child")
	time.Sleep(d)
	child.End(childErr)
	root.End(nil)
}

// kept replays rec and counts the traces the sampler persisted.
func kept(t *testing.T, rec *Recorder) int {
	t.Helper()
	events, err := rec.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	n := 0
	for _, ev := range events {
		if ev.Kind == KindTrace {
			n++
		}
	}
	return n
}

func newTestSampler(t *testing.T, slowFloor time.Duration) (*Sampler, *Recorder) {
	t.Helper()
	rec, _ := openTemp(t)
	t.Cleanup(func() { rec.Close() })
	s := AttachSampler(obs.Spans, rec, slowFloor)
	t.Cleanup(s.Close)
	return s, rec
}

func TestSamplerKeepsSlowTrace(t *testing.T) {
	_, rec := newTestSampler(t, 10*time.Millisecond)

	traceInto("test.slow", 20*time.Millisecond, nil) // slow: kept
	traceInto("test.slow", 0, nil)                   // fast: dropped

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
	_, rec := newTestSampler(t, time.Hour)

	// Fast trace, but the child errored: tail sampling must still keep
	// it — the verdict looks at the whole tree, not just the root.
	traceInto("test.errchild", 0, errors.New("page put failed"))

	events, _ := rec.Replay()
	if len(events) != 1 || events[0].Trace.Reason != "error" {
		t.Fatalf("events = %+v, want one error-reason trace", events)
	}
}

func TestSamplerPercentileGate(t *testing.T) {
	h := metrics.Default.Op("test.percentile")
	// Tight distribution around 1ms, enough samples to trust p99.
	for i := 0; i < 200; i++ {
		h.RecordDuration(time.Millisecond)
	}
	// An hour's floor never binds: only the percentile gate judges.
	_, rec := newTestSampler(t, time.Hour)

	traceInto("test.percentile", 30*time.Millisecond, nil) // ≫ p99 of 1ms: kept
	traceInto("test.percentile", 0, nil)                   // ~µs, below p99 bucket: dropped

	if n := kept(t, rec); n != 1 {
		t.Fatalf("kept %d of 2 traces, want 1 via percentile gate", n)
	}
}

func TestSamplerCancelDetaches(t *testing.T) {
	s, rec := newTestSampler(t, time.Nanosecond)
	s.Close()
	traceInto("test.detached", 2*time.Millisecond, nil)
	if n := kept(t, rec); n != 0 {
		t.Fatalf("closed sampler still observing: kept %d traces", n)
	}
}
