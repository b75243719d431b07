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

// Hysteresis and health-check bounds of every watchdog.
const (
	// defaultFireAfter is how many consecutive breaches fire an alert
	// when NewWatchdog is given 0; clearAfter is how many consecutive
	// OK evaluations clear a firing one. One noisy sample neither pages
	// nor silences.
	defaultFireAfter = 2
	clearAfter       = 3
	// healthTimeout bounds one evaluation's health check.
	healthTimeout = 2 * time.Second
)

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
// and emits alert transitions into the flight recorder. Arm starts its
// ticker, which collects the monitor and evaluates once per interval;
// tests call Evaluate directly.
type Watchdog struct {
	mon       *monitor.Monitor
	rec       *Recorder
	rules     []Rule
	fireAfter int
	health    func(ctx context.Context) monitor.HealthReport

	// now is the injected clock behind alert Since stamps and
	// freshness; tests override it for deterministic timelines.
	now func() time.Time

	mu         sync.Mutex
	states     map[string]*ruleState
	lastHealth map[string]bool
	evals      uint64
	lastEval   time.Time
	interval   time.Duration // 0 while unarmed
	stop       chan struct{}
	stopped    chan struct{}
}

// NewWatchdog builds an unarmed watchdog. fireAfter consecutive
// breaches fire an alert (0 means 2). health, when set, runs on every
// evaluation and feeds the health rule and health-transition events.
// rec may be nil (alerts stay in memory only).
func NewWatchdog(mon *monitor.Monitor, rec *Recorder, rules []Rule, fireAfter int, health func(ctx context.Context) monitor.HealthReport) *Watchdog {
	if fireAfter <= 0 {
		fireAfter = defaultFireAfter
	}
	return &Watchdog{
		mon:        mon,
		rec:        rec,
		rules:      rules,
		fireAfter:  fireAfter,
		health:     health,
		now:        time.Now,
		states:     make(map[string]*ruleState),
		lastHealth: make(map[string]bool),
	}
}

// Arm starts the watchdog's ticker: every interval it collects the
// monitor and evaluates the rules. Arming an armed watchdog does
// nothing; Close stops it.
func (w *Watchdog) Arm(interval time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stop != nil {
		return
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	w.interval, w.stop, w.stopped = interval, stop, stopped
	go func() {
		defer close(stopped)
		//lint:walltime the evaluation cadence is wall-clock by design; Evaluate is the seam tests drive
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				w.mon.CollectOnce()
				w.Evaluate()
			}
		}
	}()
}

// Close stops the ticker and waits for an evaluation in progress to
// finish. Safe to call twice, or on a watchdog never armed.
func (w *Watchdog) Close() {
	w.mu.Lock()
	stop, stopped := w.stop, w.stopped
	w.interval, w.stop, w.stopped = 0, nil, nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-stopped
	}
}

// Fresh reports the armed interval (0 when unarmed) and whether an
// evaluation began within the last two intervals: the deployment's
// "monitor" health check.
func (w *Watchdog) Fresh() (interval time.Duration, fresh bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.interval == 0 || w.lastEval.IsZero() {
		return w.interval, false
	}
	return w.interval, w.now().Sub(w.lastEval) <= 2*w.interval
}

// Evaluate runs one rule pass against a fresh snapshot (and health
// check when configured), updates hysteresis state, and records
// snapshot/health/alert events. Journal writes are decided under
// w.mu but performed after it is released: a kvlog append (worst
// case: a compaction rewrite) under the state lock would stall every
// /alerts and Firing reader — the holding-a-lock-across-I/O class the
// lockhold analyzer rejects.
func (w *Watchdog) Evaluate() {
	// Stamped before the health check, which reads Fresh: the pass in
	// progress counts as evidence the cadence is alive.
	w.mu.Lock()
	w.lastEval = w.now()
	w.mu.Unlock()
	snap := w.mon.Snapshot()

	var health *monitor.HealthReport
	if w.health != nil {
		// The ping is driven by the ticker, not an RPC caller: there is
		// no inbound context to thread, only the timeout.
		//lint:detached health pings run on the watchdog's ticker goroutine; healthTimeout bounds them
		ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
		h := w.health(ctx)
		cancel()
		health = &h
	}

	var pending []Event

	w.mu.Lock()
	w.evals++
	if w.rec != nil {
		pending = append(pending, Event{Kind: KindSnapshot, Snapshot: &snap})
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
		case !st.firing && st.breaches >= w.fireAfter:
			st.firing = true
			st.since = w.now()
			st.fires++
			pending = append(pending, w.transitionLocked(rule.Name, StateFiring, value, limit, detail)...)
		case st.firing && st.oks >= clearAfter:
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
