package flight

import (
	"context"
	"sort"
	"sync"
	"time"

	"blobseer/internal/monitor"
	"blobseer/internal/obs"
)

// Rule is one SLO check. Evaluate inspects the fresh cluster snapshot
// (and optional health report) and returns the observed value, the
// committed limit, whether the limit is breached, and a short detail.
type Rule struct {
	Name     string
	Evaluate func(snap monitor.ClusterSnapshot, health *monitor.HealthReport) (value, limit float64, breached bool, detail string)
}

// WatchdogOptions tune the rule engine.
type WatchdogOptions struct {
	// FireAfter is how many consecutive breaches arm an alert
	// (default 2); ClearAfter is how many consecutive OK evaluations
	// clear a firing one (default 3). Hysteresis: one noisy sample
	// neither pages nor silences.
	FireAfter  int
	ClearAfter int
	// SnapshotEvery persists the cluster snapshot to the flight log on
	// every Nth evaluation (default 1 — every collection; 0 keeps the
	// default, negative disables snapshot recording).
	SnapshotEvery int
	// HealthCheck, when set, runs per evaluation (under HealthTimeout,
	// default 2s) and feeds health rules plus health-transition events.
	HealthCheck   func(ctx context.Context) monitor.HealthReport
	HealthTimeout time.Duration
}

func (o WatchdogOptions) withDefaults() WatchdogOptions {
	if o.FireAfter <= 0 {
		o.FireAfter = 2
	}
	if o.ClearAfter <= 0 {
		o.ClearAfter = 3
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = 2 * time.Second
	}
	return o
}

// AlertState is one rule's live status, served on /alerts.
type AlertState struct {
	Rule     string    `json:"rule"`
	State    string    `json:"state"` // StateFiring | StateOK
	Value    float64   `json:"value"`
	Limit    float64   `json:"limit"`
	Detail   string    `json:"detail,omitempty"`
	Since    time.Time `json:"since,omitempty"`
	Breaches int       `json:"breaches"` // consecutive breach count
	Fires    uint64    `json:"fires"`    // lifetime fire transitions
}

// ruleState is the hysteresis counter pair for one rule.
type ruleState struct {
	breaches int
	oks      int
	firing   bool
	since    time.Time
	fires    uint64
	last     AlertState
}

// Watchdog evaluates rules over the monitor plane, applies hysteresis,
// and emits alert transitions into the flight recorder. Hook it to a
// monitor with Arm (evaluates on every collection) or call Evaluate
// directly from tests.
type Watchdog struct {
	opts  WatchdogOptions
	mon   *monitor.Monitor
	rec   *Recorder
	rules []Rule

	// now is the injected clock behind alert Since stamps; tests
	// override it for deterministic hysteresis timelines.
	now func() time.Time

	mu         sync.Mutex
	states     map[string]*ruleState
	lastHealth map[string]bool
	evals      uint64
	cancel     func()
}

// NewWatchdog builds an idle watchdog; rec may be nil (alerts stay
// in memory only).
func NewWatchdog(mon *monitor.Monitor, rec *Recorder, rules []Rule, opts WatchdogOptions) *Watchdog {
	return &Watchdog{
		opts:       opts.withDefaults(),
		mon:        mon,
		rec:        rec,
		rules:      rules,
		now:        time.Now,
		states:     make(map[string]*ruleState),
		lastHealth: make(map[string]bool),
	}
}

// Arm hooks Evaluate into every monitor collection pass. Disarm with
// Close.
func (w *Watchdog) Arm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cancel != nil {
		return
	}
	w.cancel = w.mon.OnCollect(func() { w.Evaluate() })
}

// Close detaches the watchdog from the monitor.
func (w *Watchdog) Close() {
	w.mu.Lock()
	cancel := w.cancel
	w.cancel = nil
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Evaluate runs one rule pass against a fresh snapshot (and health
// check when configured), updates hysteresis state, and records
// snapshot/health/alert events. Journal writes are decided under
// w.mu but performed after it is released: a kvlog append (worst
// case: a compaction rewrite) under the state lock would stall every
// /alerts and Firing reader — the same holding-a-lock-across-I/O
// class the monitor's OnCollect design avoids, enforced here by the
// lockhold analyzer.
func (w *Watchdog) Evaluate() {
	snap := w.mon.Snapshot()

	var health *monitor.HealthReport
	if w.opts.HealthCheck != nil {
		// The ping is driven by the collector tick, not an RPC caller:
		// there is no inbound context to thread, only the timeout.
		//lint:detached health pings run on the monitor's collection goroutine; HealthTimeout bounds them
		ctx, cancel := context.WithTimeout(context.Background(), w.opts.HealthTimeout)
		h := w.opts.HealthCheck(ctx)
		cancel()
		health = &h
	}

	var pending []Event

	w.mu.Lock()
	w.evals++
	if w.rec != nil && w.opts.SnapshotEvery > 0 && w.evals%uint64(w.opts.SnapshotEvery) == 0 {
		s := snap
		pending = append(pending, Event{Kind: KindSnapshot, Snapshot: &s})
	}
	if health != nil {
		pending = append(pending, w.healthTransitionsLocked(health)...)
	}

	for _, rule := range w.rules {
		value, limit, breached, detail := rule.Evaluate(snap, health)
		st := w.states[rule.Name]
		if st == nil {
			st = &ruleState{}
			w.states[rule.Name] = st
		}
		if breached {
			st.breaches++
			st.oks = 0
		} else {
			st.oks++
			st.breaches = 0
		}
		switch {
		case !st.firing && st.breaches >= w.opts.FireAfter:
			st.firing = true
			st.since = w.now()
			st.fires++
			pending = append(pending, w.transitionLocked(rule.Name, StateFiring, value, limit, detail)...)
		case st.firing && st.oks >= w.opts.ClearAfter:
			st.firing = false
			st.since = w.now()
			pending = append(pending, w.transitionLocked(rule.Name, StateOK, value, limit, detail)...)
		}
		state := StateOK
		if st.firing {
			state = StateFiring
		}
		st.last = AlertState{
			Rule:     rule.Name,
			State:    state,
			Value:    value,
			Limit:    limit,
			Detail:   detail,
			Since:    st.since,
			Breaches: st.breaches,
			Fires:    st.fires,
		}
	}
	w.mu.Unlock()

	// Journal the decided events with the state lock released. The
	// recorder serializes appends itself, so within this Evaluate the
	// snapshot -> health -> alert order is preserved.
	for _, ev := range pending {
		if err := w.rec.Append(ev); err != nil {
			obs.Log.Errorf("flight: record %s: %v", ev.Kind, err)
		}
	}
}

// transitionLocked logs one fire/clear transition and returns the
// event to journal (empty without a recorder); callers hold w.mu.
func (w *Watchdog) transitionLocked(rule, state string, value, limit float64, detail string) []Event {
	if state == StateFiring {
		obs.Log.Warnf("alert FIRING: %s value=%.3f limit=%.3f %s", rule, value, limit, detail)
	} else {
		obs.Log.Infof("alert cleared: %s value=%.3f limit=%.3f", rule, value, limit)
	}
	if w.rec == nil {
		return nil
	}
	return []Event{{Kind: KindAlert, Alert: &AlertEvent{Rule: rule, State: state, Value: value, Limit: limit, Detail: detail}}}
}

// healthTransitionsLocked updates per-component health memory and
// returns one event per flip; callers hold w.mu.
func (w *Watchdog) healthTransitionsLocked(h *monitor.HealthReport) []Event {
	var events []Event
	for _, c := range h.Components {
		prev, seen := w.lastHealth[c.Component]
		w.lastHealth[c.Component] = c.Healthy
		if seen && prev == c.Healthy {
			continue
		}
		if !seen && c.Healthy {
			continue // first sighting healthy: not a transition worth a record
		}
		if w.rec == nil {
			continue
		}
		events = append(events, Event{Kind: KindHealth, Health: &HealthEvent{
			Component: c.Component, Healthy: c.Healthy, Detail: c.Detail, LatencyMs: c.LatencyMs,
		}})
	}
	return events
}

// Alerts returns the current per-rule states, firing first, then by
// rule name — the /alerts payload.
func (w *Watchdog) Alerts() []AlertState {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]AlertState, 0, len(w.states))
	for _, st := range w.states {
		if st.last.Rule != "" {
			out = append(out, st.last)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.State == StateFiring) != (b.State == StateFiring) {
			return a.State == StateFiring
		}
		return a.Rule < b.Rule
	})
	return out
}

// Firing reports how many rules are currently firing.
func (w *Watchdog) Firing() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, st := range w.states {
		if st.firing {
			n++
		}
	}
	return n
}

// Evals reports evaluation passes run.
func (w *Watchdog) Evals() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.evals
}
