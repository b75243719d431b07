// Package flight is the postmortem plane: a crash-surviving flight
// recorder plus an SLO watchdog over the live monitor.
//
// Everything PR 7/8 built — spans, metrics, the cluster monitor — is
// volatile: a killed process takes its evidence with it. The flight
// recorder fixes that by persisting a bounded event journal (backed by
// internal/kvlog, so it inherits CRC framing, crash recovery, and
// compaction) holding three event kinds: tail-sampled span trees
// (whole traces kept only when slow or erroring — the decision is made
// at root-span completion, never up front), periodic cluster snapshot
// deltas, and health/alert transitions. After a kill, reopening the
// same path replays the minutes before the outage.
//
// The watchdog turns monitor snapshots into decisions: a rule set
// (journal lag, NIC utilization, replica imbalance, component health)
// evaluated on every tick of the watchdog's own ticker, which collects
// the monitor first, with hysteresis — N consecutive breaches to fire,
// 3 consecutive OKs to clear — so one noisy sample neither pages nor
// silences. Fire/clear transitions land in the flight log and are
// served on /alerts by internal/obshttp; `bsfsctl diag` folds alerts,
// the replayed timeline, /cluster, and /metrics.json into one archive.
package flight

import (
	"time"

	"blobseer/internal/monitor"
	"blobseer/internal/obs"
)

// Event kinds persisted in the flight log.
const (
	KindTrace    = "trace"    // a tail-sampled span tree
	KindSnapshot = "snapshot" // a periodic monitor.ClusterSnapshot
	KindHealth   = "health"   // a component health transition
	KindAlert    = "alert"    // a watchdog rule fire/clear
)

// Event is one flight-log record. Exactly one of Trace, Snapshot,
// Health, Alert is set, per Kind.
type Event struct {
	Seq  uint64    `json:"seq"`
	At   time.Time `json:"at"`
	Kind string    `json:"kind"`

	// Trace carries the full causal tree of one sampled trace along
	// with why it was kept.
	Trace *TraceEvent `json:"trace,omitempty"`

	// Snapshot is a monitor cluster view at At.
	Snapshot *monitor.ClusterSnapshot `json:"snapshot,omitempty"`

	// Health is a component health transition.
	Health *HealthEvent `json:"health,omitempty"`

	// Alert is a watchdog rule transition.
	Alert *AlertEvent `json:"alert,omitempty"`
}

// TraceEvent is a persisted span tree plus the sampling verdict.
type TraceEvent struct {
	TraceID uint64         `json:"trace_id"`
	Reason  string         `json:"reason"` // "slow" | "error"
	RootMs  float64        `json:"root_ms"`
	Spans   []obs.SpanInfo `json:"spans"`
}

// HealthEvent records one component flipping healthy<->unhealthy.
type HealthEvent struct {
	Component string  `json:"component"`
	Healthy   bool    `json:"healthy"`
	Detail    string  `json:"detail,omitempty"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
}

// Alert states.
const (
	StateFiring = "firing"
	StateOK     = "ok"
)

// AlertEvent records one watchdog rule transition.
type AlertEvent struct {
	Rule   string  `json:"rule"`
	State  string  `json:"state"` // StateFiring | StateOK
	Value  float64 `json:"value"`
	Limit  float64 `json:"limit"`
	Detail string  `json:"detail,omitempty"`
}
