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
	m := monitor.New(monitor.Config{})
	m.Register(monitor.KindVMShard, "vm-0", func() monitor.Sample {
		return monitor.Sample{monitor.KeyJournalPending: *lag}
	})
	return m
}

func TestWatchdogHysteresis(t *testing.T) {
	lag := 0.0
	m := lagMonitor(&lag)
	rec, _ := openTemp(t)
	defer rec.Close()

	w := NewWatchdog(m, rec, []Rule{RuleJournalLag(100)}, WatchdogOptions{
		FireAfter: 2, ClearAfter: 3, SnapshotEvery: -1,
	})

	eval := func() { m.CollectOnce(); w.Evaluate() }

	// One breach must not fire (hysteresis).
	lag = 500
	eval()
	if w.Firing() != 0 {
		t.Fatal("fired after one breach; want hysteresis to hold")
	}
	// Second consecutive breach fires.
	eval()
	if w.Firing() != 1 {
		t.Fatal("did not fire after FireAfter consecutive breaches")
	}
	// Two OKs are not enough to clear.
	lag = 0
	eval()
	eval()
	if w.Firing() != 1 {
		t.Fatal("cleared before ClearAfter consecutive OKs")
	}
	// Third OK clears.
	eval()
	if w.Firing() != 0 {
		t.Fatal("did not clear after ClearAfter consecutive OKs")
	}

	// A single OK blip while breaching must reset the breach run.
	lag = 500
	eval()
	lag = 0
	eval()
	lag = 500
	eval()
	if w.Firing() != 0 {
		t.Fatal("fired across a non-consecutive breach run")
	}

	// Exactly one fire + one clear event landed in the flight log.
	events, err := rec.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	var fires, clears int
	for _, ev := range events {
		if ev.Kind != KindAlert {
			t.Fatalf("unexpected event kind %s", ev.Kind)
		}
		switch ev.Alert.State {
		case StateFiring:
			fires++
		case StateOK:
			clears++
		}
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

func TestWatchdogArmEvaluatesOnCollection(t *testing.T) {
	lag := 1000.0
	m := lagMonitor(&lag)
	w := NewWatchdog(m, nil, []Rule{RuleJournalLag(100)}, WatchdogOptions{FireAfter: 1, SnapshotEvery: -1})
	w.Arm()
	defer w.Close()

	m.CollectOnce()
	if w.Evals() != 1 {
		t.Fatalf("evals = %d after one collection, want 1", w.Evals())
	}
	if w.Firing() != 1 {
		t.Fatal("armed watchdog did not fire on collection")
	}
	w.Close()
	m.CollectOnce()
	if w.Evals() != 1 {
		t.Fatal("closed watchdog still evaluating")
	}
}

func TestWatchdogHealthTransitions(t *testing.T) {
	healthy := true
	m := monitor.New(monitor.Config{})
	rec, _ := openTemp(t)
	defer rec.Close()
	w := NewWatchdog(m, rec, []Rule{RuleHealth()}, WatchdogOptions{
		FireAfter: 1, ClearAfter: 1, SnapshotEvery: -1,
		HealthCheck: func(_ context.Context) monitor.HealthReport {
			var r monitor.HealthReport
			r.Healthy = true
			detail := ""
			if !healthy {
				detail = "ping timeout"
			}
			r.AddTimed("vm-shard-0", healthy, detail, 3*time.Millisecond)
			return r
		},
	})

	w.Evaluate()
	if w.Firing() != 0 {
		t.Fatal("fired while healthy")
	}
	healthy = false
	w.Evaluate()
	if w.Firing() != 1 {
		t.Fatal("health rule did not fire on unhealthy component")
	}
	healthy = true
	w.Evaluate()
	if w.Firing() != 0 {
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

func TestRuleLatencyWindowed(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Op("blob.append")
	rule := RuleLatency(reg, "blob.append", 10 /* ms */, 2.0)

	// Slow history: everything at 100ms.
	for i := 0; i < 100; i++ {
		h.RecordDuration(100 * time.Millisecond)
	}
	_, _, breached, _ := rule.Evaluate(monitor.ClusterSnapshot{}, nil)
	if !breached {
		t.Fatal("100ms p99 vs 20ms limit did not breach")
	}
	// Fast window after the slow history: the windowed delta must
	// judge only the new samples, not the cumulative distribution.
	for i := 0; i < 100; i++ {
		h.RecordDuration(1 * time.Millisecond)
	}
	value, limit, breached, _ := rule.Evaluate(monitor.ClusterSnapshot{}, nil)
	if breached {
		t.Fatalf("fast window breached: p99 %.2fms vs %.2fms", value, limit)
	}
	// Idle window: no samples, no breach.
	_, _, breached, detail := rule.Evaluate(monitor.ClusterSnapshot{}, nil)
	if breached || detail != "idle window" {
		t.Fatalf("idle window: breached=%v detail=%q", breached, detail)
	}
}
