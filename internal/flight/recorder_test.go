package flight

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blobseer/internal/monitor"
	"blobseer/internal/obs"
)

func openTemp(t *testing.T, opts RecorderOptions) (*Recorder, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flight.log")
	r, err := Open(path, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return r, path
}

func TestAppendReplayRoundTrip(t *testing.T) {
	r, _ := openTemp(t, RecorderOptions{})
	defer r.Close()

	if err := r.RecordAlert(AlertEvent{Rule: "journal_lag", State: StateFiring, Value: 900, Limit: 512}); err != nil {
		t.Fatalf("alert: %v", err)
	}
	if err := r.RecordHealth(HealthEvent{Component: "vm-shard-1", Healthy: false, Detail: "timeout"}); err != nil {
		t.Fatalf("health: %v", err)
	}
	if err := r.RecordSnapshot(monitor.ClusterSnapshot{Collections: 7, MaxJournalLag: 900}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	spans := []obs.SpanInfo{
		{Trace: 42, ID: 1, Name: "blob.append", Dur: 80 * time.Millisecond, Start: time.Now()},
		{Trace: 42, ID: 2, Parent: 1, Name: "vm.publish", Dur: 60 * time.Millisecond, Start: time.Now()},
	}
	if err := r.RecordTrace(42, "slow", 80*time.Millisecond, spans); err != nil {
		t.Fatalf("trace: %v", err)
	}

	events, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	kinds := []string{KindAlert, KindHealth, KindSnapshot, KindTrace}
	for i, ev := range events {
		if ev.Kind != kinds[i] {
			t.Errorf("event %d kind = %s, want %s", i, ev.Kind, kinds[i])
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	tr := events[3].Trace
	if tr == nil || tr.TraceID != 42 || len(tr.Spans) != 2 || tr.Reason != "slow" {
		t.Fatalf("trace event mismatch: %+v", tr)
	}
}

// TestReopenAfterAbandon is the crash-survival contract: a recorder
// abandoned without Close (the killed process) must replay fully from
// a fresh Open on the same path.
func TestReopenAfterAbandon(t *testing.T) {
	r, path := openTemp(t, RecorderOptions{})
	for i := 0; i < 10; i++ {
		if err := r.RecordAlert(AlertEvent{Rule: "r", State: StateFiring, Value: float64(i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// No Close: simulate the kill. The fd leaks for the test's
	// duration, which is the point.
	r2, err := Open(path, RecorderOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	events, err := r2.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(events) != 10 {
		t.Fatalf("got %d events after reopen, want 10", len(events))
	}
	// Appends continue past the recovered seq.
	if err := r2.RecordAlert(AlertEvent{Rule: "r", State: StateOK}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	events, _ = r2.Replay()
	if got := events[len(events)-1].Seq; got != 11 {
		t.Fatalf("post-reopen seq = %d, want 11", got)
	}
}

// TestReplayParentSnapshot replays a log written while snapshots still
// listed hot pages: its snapshot events carry hot_reads/hot_writes,
// which decode as unknown fields and cost the event nothing else.
func TestReplayParentSnapshot(t *testing.T) {
	r, path := openTemp(t, RecorderOptions{})
	const old = `{"seq":1,"at":"2026-01-02T03:04:05Z","kind":"snapshot","snapshot":{"collections":7,"age_ms":0,` +
		`"components":[{"kind":"provider","name":"node-000","rates":{"read_bytes_per_sec":10},"samples":3}],` +
		`"replica_imbalance":1.5,"max_journal_lag":900,` +
		`"hot_reads":[{"blob":1,"page":4,"weight":2.5,"touches":3}],"hot_writes":[{"blob":1,"page":0,"weight":1,"touches":1}]}}`
	if err := r.store.Put(eventKey(1), []byte(old)); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r, err := Open(path, RecorderOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	events, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(events) != 1 || events[0].Kind != KindSnapshot || events[0].Snapshot == nil {
		t.Fatalf("events = %+v", events)
	}
	s := events[0].Snapshot
	if s.Collections != 7 || s.MaxJournalLag != 900 || s.ReplicaImbalance != 1.5 ||
		len(s.Components) != 1 || s.Components[0].Samples != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
	if out := FormatTimeline(events); !strings.Contains(out, "SNAPSHOT collections=7 lag=900 imbalance=1.50 components=1") {
		t.Errorf("timeline:\n%s", out)
	}
}

func TestRetentionMaxEvents(t *testing.T) {
	r, _ := openTemp(t, RecorderOptions{MaxEvents: 5})
	defer r.Close()
	for i := 0; i < 20; i++ {
		if err := r.RecordAlert(AlertEvent{Rule: "r", Value: float64(i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if n := r.Len(); n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
	events, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	// The oldest retained must be seq 16 (events 1..15 evicted).
	if events[0].Seq != 16 || events[4].Seq != 20 {
		t.Fatalf("retained seqs %d..%d, want 16..20", events[0].Seq, events[4].Seq)
	}
}

func TestRetentionCompacts(t *testing.T) {
	r, path := openTemp(t, RecorderOptions{MaxEvents: 8, CompactSlack: 4 << 10})
	defer r.Close()
	big := strings.Repeat("x", 512)
	for i := 0; i < 200; i++ {
		if err := r.RecordAlert(AlertEvent{Rule: "r", Detail: big}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	total, live := r.store.Size()
	if total-live > (4<<10)+2048 {
		t.Fatalf("dead bytes %d exceed compact slack", total-live)
	}
	// Retention state survives the compaction: reopen agrees.
	r.Close()
	r2, err := Open(path, RecorderOptions{MaxEvents: 8})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if n := r2.Len(); n != 8 {
		t.Fatalf("reopened Len = %d, want 8", n)
	}
}

func TestFormatTimeline(t *testing.T) {
	events := []Event{
		{Seq: 1, At: time.Now(), Kind: KindSnapshot, Snapshot: &monitor.ClusterSnapshot{Collections: 3, MaxJournalLag: 12}},
		{Seq: 2, At: time.Now(), Kind: KindAlert, Alert: &AlertEvent{Rule: "journal_lag", State: StateFiring, Value: 900, Limit: 512}},
		{Seq: 3, At: time.Now(), Kind: KindHealth, Health: &HealthEvent{Component: "vm-shard-0", Healthy: false, Detail: "rpc timeout"}},
		{Seq: 4, At: time.Now(), Kind: KindTrace, Trace: &TraceEvent{
			TraceID: 9, Reason: "slow", RootMs: 120,
			Spans: []obs.SpanInfo{
				{Trace: 9, ID: 1, Name: "blob.append", Start: time.Now(), Dur: 120 * time.Millisecond},
				{Trace: 9, ID: 2, Parent: 1, Name: "provider.put", Start: time.Now(), Dur: 80 * time.Millisecond},
			},
		}},
	}
	out := FormatTimeline(events)
	for _, want := range []string{"SNAPSHOT", "ALERT journal_lag FIRING", "HEALTH vm-shard-0 -> UNHEALTHY", "TRACE 9 kept (slow", "blob.append", "provider.put"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	path := filepath.Join(b.TempDir(), "flight.log")
	r, err := Open(path, RecorderOptions{MaxEvents: 1024})
	if err != nil {
		b.Fatalf("open: %v", err)
	}
	defer r.Close()
	spans := []obs.SpanInfo{
		{Trace: 1, ID: 1, Name: "blob.append", Dur: 75 * time.Millisecond},
		{Trace: 1, ID: 2, Parent: 1, Name: "vm.publish", Dur: 30 * time.Millisecond},
		{Trace: 1, ID: 3, Parent: 1, Name: "provider.put", Dur: 20 * time.Millisecond},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RecordTrace(uint64(i+1), "slow", 75*time.Millisecond, spans); err != nil {
			b.Fatalf("record: %v", err)
		}
	}
}
