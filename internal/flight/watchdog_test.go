package flight

import (
	"context"
	"testing"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
)

// lagMonitor builds a monitor with a single vmshard source whose
// journal_pending gauge tracks *lag.
func lagMonitor(lag *float64) *monitor.Monitor {
	m := monitor.New(0)
	m.Register(monitor.KindVMShard, "vm-0", func() metrics.RegistrySnapshot {
		return metrics.RegistrySnapshot{Gauges: map[string]float64{monitor.KeyJournalPending: *lag}}
	})
	return m
}

// firing counts the rules w reports firing.
func firing(w *Watchdog) int {
	n := 0
	for _, a := range w.Alerts() {
		if a.State == StateFiring {
			n++
		}
	}
	return n
}

func TestWatchdogHysteresis(t *testing.T) {
	lag := 0.0
	m := lagMonitor(&lag)
	rec, _ := openTemp(t)
	defer rec.Close()

	w := NewWatchdog(m, rec, []Rule{RuleJournalLag(100)}, 2, nil)

	eval := func() { m.CollectOnce(); w.Evaluate() }

	// One breach must not fire (hysteresis).
	lag = 500
	eval()
	if firing(w) != 0 {
		t.Fatal("fired after one breach; want hysteresis to hold")
	}
	// Second consecutive breach fires.
	eval()
	if firing(w) != 1 {
		t.Fatal("did not fire after FireAfter consecutive breaches")
	}
	// Two OKs are not enough to clear.
	lag = 0
	eval()
	eval()
	if firing(w) != 1 {
		t.Fatal("cleared before ClearAfter consecutive OKs")
	}
	// Third OK clears.
	eval()
	if firing(w) != 0 {
		t.Fatal("did not clear after ClearAfter consecutive OKs")
	}

	// A single OK blip while breaching must reset the breach run.
	lag = 500
	eval()
	lag = 0
	eval()
	lag = 500
	eval()
	if firing(w) != 0 {
		t.Fatal("fired across a non-consecutive breach run")
	}

	// Every evaluation left a snapshot, and exactly one fire + one
	// clear event landed in the flight log.
	events, err := rec.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	var snapshots, fires, clears int
	for _, ev := range events {
		switch ev.Kind {
		case KindSnapshot:
			snapshots++
			continue
		case KindAlert:
		default:
			t.Fatalf("unexpected event kind %s", ev.Kind)
		}
		switch ev.Alert.State {
		case StateFiring:
			fires++
		case StateOK:
			clears++
		}
	}
	if snapshots != int(w.Evals()) {
		t.Fatalf("got %d snapshots over %d evaluations", snapshots, w.Evals())
	}
	if fires != 1 || clears != 1 {
		t.Fatalf("got %d fires / %d clears, want 1 / 1", fires, clears)
	}

	alerts := w.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "journal_lag" || alerts[0].State != StateOK {
		t.Fatalf("alerts = %+v", alerts)
	}
	if alerts[0].Fires != 1 {
		t.Fatalf("lifetime fires = %d, want 1", alerts[0].Fires)
	}
}

// TestWatchdogArmEvaluatesOnCollection pins the pairing of the armed
// ticker: every tick collects the monitor and evaluates once, so after
// Close the two counts agree, and a collection nobody evaluates (one
// made after Close) leaves the watchdog untouched.
func TestWatchdogArmEvaluatesOnCollection(t *testing.T) {
	lag := 1000.0
	m := lagMonitor(&lag)
	w := NewWatchdog(m, nil, []Rule{RuleJournalLag(100)}, 1, nil)
	w.Arm(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for w.Evals() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	w.Close()
	if w.Evals() < 3 {
		t.Fatalf("armed watchdog evaluated %d times in 5s", w.Evals())
	}
	if firing(w) != 1 {
		t.Fatal("armed watchdog did not fire on collection")
	}
	if got, want := m.Snapshot().Collections, w.Evals(); got != want {
		t.Fatalf("collections = %d, evals = %d; want one evaluation per collection", got, want)
	}
	evals := w.Evals()
	m.CollectOnce()
	if w.Evals() != evals {
		t.Fatal("closed watchdog evaluated on a collection")
	}
}

// TestWatchdogArmTicksAndCloses pins the watchdog's cadence: Arm
// starts a ticker that collects the monitor and evaluates with nobody
// calling either, Fresh reports it, and Close stops it for good.
func TestWatchdogArmTicksAndCloses(t *testing.T) {
	lag := 1000.0
	m := lagMonitor(&lag)
	w := NewWatchdog(m, nil, []Rule{RuleJournalLag(100)}, 1, nil)
	if iv, fresh := w.Fresh(); iv != 0 || fresh {
		t.Fatalf("new watchdog Fresh = %v, %v; want unarmed", iv, fresh)
	}

	w.Arm(10 * time.Millisecond)
	w.Arm(time.Hour) // already armed: no second ticker, interval kept
	deadline := time.Now().Add(5 * time.Second)
	for firing(w) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if firing(w) != 1 || m.Snapshot().Collections == 0 {
		t.Fatalf("armed watchdog: firing=%d collections=%d", firing(w), m.Snapshot().Collections)
	}
	if iv, fresh := w.Fresh(); iv != 10*time.Millisecond || !fresh {
		t.Fatalf("armed Fresh = %v, %v", iv, fresh)
	}

	w.Close()
	w.Close() // idempotent
	if iv, fresh := w.Fresh(); iv != 0 || fresh {
		t.Fatalf("closed Fresh = %v, %v; want unarmed", iv, fresh)
	}
	evals := w.Evals()
	time.Sleep(30 * time.Millisecond)
	if w.Evals() != evals {
		t.Fatalf("closed watchdog still evaluating: %d -> %d", evals, w.Evals())
	}
}

// TestWatchdogFreshness drives the injected clock: an armed watchdog
// is fresh while its last evaluation is within two intervals.
func TestWatchdogFreshness(t *testing.T) {
	m := monitor.New(0)
	w := NewWatchdog(m, nil, nil, 0, nil)
	now := time.Unix(5000, 0)
	w.now = func() time.Time { return now }
	w.Arm(time.Hour) // no tick lands during the test
	defer w.Close()
	if _, fresh := w.Fresh(); fresh {
		t.Fatal("fresh before any evaluation")
	}
	w.Evaluate()
	now = now.Add(2 * time.Hour)
	if _, fresh := w.Fresh(); !fresh {
		t.Fatal("stale two intervals after an evaluation")
	}
	now = now.Add(time.Second)
	if _, fresh := w.Fresh(); fresh {
		t.Fatal("fresh past two intervals")
	}
}

func TestWatchdogHealthTransitions(t *testing.T) {
	healthy := true
	m := monitor.New(0)
	rec, _ := openTemp(t)
	defer rec.Close()
	w := NewWatchdog(m, rec, []Rule{RuleHealth()}, 1, func(_ context.Context) monitor.HealthReport {
		var r monitor.HealthReport
		r.Healthy = true
		detail := ""
		if !healthy {
			detail = "ping timeout"
		}
		r.AddTimed("vm-shard-0", healthy, detail, 3*time.Millisecond)
		return r
	})

	w.Evaluate()
	if firing(w) != 0 {
		t.Fatal("fired while healthy")
	}
	healthy = false
	w.Evaluate()
	if firing(w) != 1 {
		t.Fatal("health rule did not fire on unhealthy component")
	}
	healthy = true
	for i := 0; i < clearAfter; i++ {
		w.Evaluate()
	}
	if firing(w) != 0 {
		t.Fatal("health rule did not clear")
	}

	events, _ := rec.Replay()
	var healthEvents []HealthEvent
	for _, ev := range events {
		if ev.Kind == KindHealth {
			healthEvents = append(healthEvents, *ev.Health)
		}
	}
	if len(healthEvents) != 2 {
		t.Fatalf("got %d health transitions, want 2 (down, up)", len(healthEvents))
	}
	if healthEvents[0].Healthy || !healthEvents[1].Healthy {
		t.Fatalf("health transition order wrong: %+v", healthEvents)
	}
	if healthEvents[0].LatencyMs <= 0 {
		t.Fatal("health event lost check latency")
	}
}
