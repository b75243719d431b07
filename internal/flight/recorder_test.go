package flight

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blobseer/internal/monitor"
	"blobseer/internal/obs"
)

func openTemp(t *testing.T) (*Recorder, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flight.log")
	r, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return r, path
}

func TestAppendReplayRoundTrip(t *testing.T) {
	r, _ := openTemp(t)
	defer r.Close()

	if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "journal_lag", State: StateFiring, Value: 900, Limit: 512}}); err != nil {
		t.Fatalf("alert: %v", err)
	}
	if err := r.Append(Event{Kind: KindHealth, Health: &HealthEvent{Component: "vm-shard-1", Healthy: false, Detail: "timeout"}}); err != nil {
		t.Fatalf("health: %v", err)
	}
	if err := r.Append(Event{Kind: KindSnapshot, Snapshot: &monitor.ClusterSnapshot{Collections: 7, MaxJournalLag: 900}}); err != nil {
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
	r, path := openTemp(t)
	for i := 0; i < 10; i++ {
		if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r", State: StateFiring, Value: float64(i)}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// No Close: simulate the kill. The fd leaks for the test's
	// duration, which is the point.
	r2, err := Open(path)
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
	if err := r2.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r", State: StateOK}}); err != nil {
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
	r, path := openTemp(t)
	const old = `{"seq":1,"at":"2026-01-02T03:04:05Z","kind":"snapshot","snapshot":{"collections":7,"age_ms":0,` +
		`"components":[{"kind":"provider","name":"node-000","rates":{"read_bytes_per_sec":10},"samples":3}],` +
		`"replica_imbalance":1.5,"max_journal_lag":900,` +
		`"hot_reads":[{"blob":1,"page":4,"weight":2.5,"touches":3}],"hot_writes":[{"blob":1,"page":0,"weight":1,"touches":1}]}}`
	if _, err := r.log.Append(func(uint64) ([]byte, error) { return []byte(old), nil }); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r, err := Open(path)
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
	r, _ := openTemp(t)
	r.maxEvents = 5
	defer r.Close()
	for i := 0; i < 20; i++ {
		if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r", Value: float64(i)}}); err != nil {
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
	r, path := openTemp(t)
	r.maxEvents, r.compactSlack = 8, 4<<10
	defer r.Close()
	big := strings.Repeat("x", 512)
	for i := 0; i < 200; i++ {
		if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r", Detail: big}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	total, live := r.store.Size()
	if total-live > (4<<10)+2048 {
		t.Fatalf("dead bytes %d exceed compact slack", total-live)
	}
	// Retention state survives the compaction: reopen agrees.
	r.Close()
	r2, err := Open(path)
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
	r, err := Open(path)
	if err != nil {
		b.Fatalf("open: %v", err)
	}
	r.maxEvents = 1024
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

// TestFailedAppendLeavesNoGap: an event that fails to encode is not
// stored and uses no Seq, so the next event follows the last stored one
// and retention counts only what the log holds.
func TestFailedAppendLeavesNoGap(t *testing.T) {
	r, _ := openTemp(t)
	r.maxEvents = 3
	defer r.Close()
	if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r", Value: math.NaN()}}); err == nil {
		t.Fatal("an alert with a NaN value encoded")
	}
	for i := 2; i <= 4; i++ {
		if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r", Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	events, err := r.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || len(events) != 3 {
		t.Fatalf("Len %d, replayed %d events; want 3 and 3", r.Len(), len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+2) || ev.Alert.Value != float64(i+2) {
			t.Fatalf("event %d = seq %d value %v, want seq %d value %d", i, ev.Seq, ev.Alert.Value, i+2, i+2)
		}
	}
}

// TestReplayParentLog replays testdata/flight-parent.log, written by the
// recorder before it moved onto kvlog.Journal: 12 events under a
// retention of 5, abandoned without Close. It replays the same events
// the writer's own reopen did (flight-parent.events.json), and the next
// event continues the seq.
func TestReplayParentLog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "flight-parent.log"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flight-parent.events.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flight.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	events, err := r.Replay()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(events, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("replayed:\n%s\nwant:\n%s", got, want)
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r"}}); err != nil {
		t.Fatal(err)
	}
	if events, _ = r.Replay(); events[len(events)-1].Seq != 13 {
		t.Fatalf("next event seq = %d, want 13", events[len(events)-1].Seq)
	}
}

// TestFlightCrashPoints appends 40 events under a retention of 8, with a
// compaction after the 20th, then cuts a copy of the log at every byte
// offset of its life (past the compacted image, which is synced before
// it replaces the log). Each reopened recorder must replay exactly the
// retained run of appended events as of the last record wholly below
// the cut — including the event a cut between an append and its trim
// leaves one past the cap — and its next event must follow the last.
func TestFlightCrashPoints(t *testing.T) {
	dir := t.TempDir()
	r, path := openTemp(t)
	r.maxEvents = 8
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	r.now = func() time.Time { return base }
	type logGen struct {
		data   []byte
		base   int64
		start  []uint64
		ends   []int64
		models [][]uint64 // retained seqs after each record
	}
	readLog := func() []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var retained []uint64
	cur := &logGen{}
	var gens []*logGen
	for seq := uint64(1); seq <= 40; seq++ {
		if err := r.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "r", Value: float64(seq)}}); err != nil {
			t.Fatal(err)
		}
		// The append's put, then one delete per event past the cap.
		models := [][]uint64{append(retained[:len(retained):len(retained)], seq)}
		for m := models[0]; len(m) > 8; {
			m = m[1:]
			models = append(models, m)
		}
		retained = models[len(models)-1]
		data := readLog()
		from := cur.base
		if n := len(cur.ends); n > 0 {
			from = cur.ends[n-1]
		}
		for off := from; off < int64(len(data)); {
			off += 9 + int64(binary.LittleEndian.Uint32(data[off+5:off+9]))
			cur.ends = append(cur.ends, off)
		}
		if len(cur.ends) != len(cur.models)+len(models) {
			t.Fatalf("event %d wrote %d records, want %d", seq, len(cur.ends)-len(cur.models), len(models))
		}
		cur.models = append(cur.models, models...)
		cur.data = data
		if seq == 20 {
			gens = append(gens, cur)
			if err := r.store.Compact(); err != nil {
				t.Fatal(err)
			}
			image := readLog()
			cur = &logGen{data: image, base: int64(len(image)), start: retained}
		}
	}
	gens = append(gens, cur)
	r.Close()

	cutPath := filepath.Join(dir, "cut.log")
	rng := rand.New(rand.NewSource(1))
	for _, g := range gens {
		for cut := g.base; cut <= int64(len(g.data)); cut++ {
			if testing.Short() && rng.Intn(8) != 0 {
				continue
			}
			want := g.start
			for i, end := range g.ends {
				if end > cut {
					break
				}
				want = g.models[i]
			}
			if err := os.WriteFile(cutPath, g.data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			rr, err := Open(cutPath)
			if err != nil {
				t.Fatalf("cut %d: open: %v", cut, err)
			}
			events, err := rr.Replay()
			if err != nil {
				t.Fatalf("cut %d: replay: %v", cut, err)
			}
			var got []uint64
			for _, ev := range events {
				if ev.Alert == nil || ev.Alert.Value != float64(ev.Seq) {
					t.Fatalf("cut %d: event %d replayed as %+v", cut, ev.Seq, ev)
				}
				got = append(got, ev.Seq)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || rr.Len() != len(want) {
				t.Fatalf("cut %d: replayed seqs %v (Len %d), want %v", cut, got, rr.Len(), want)
			}
			var last uint64
			if len(want) > 0 {
				last = want[len(want)-1]
			}
			if err := rr.Append(Event{Kind: KindAlert, Alert: &AlertEvent{Rule: "next"}}); err != nil || rr.log.Last() != last+1 {
				t.Fatalf("cut %d: next event got seq %d, %v; want %d", cut, rr.log.Last(), err, last+1)
			}
			rr.Close()
		}
	}
}
