package flight

import (
	"fmt"
	"strings"

	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
)

// RuleJournalLag breaches when any metadata shard's journal backlog
// (records not yet retired by a checkpoint) exceeds maxLag.
func RuleJournalLag(maxLag float64) Rule {
	return Rule{
		Name: "journal_lag",
		Evaluate: func(snap monitor.ClusterSnapshot, _ *monitor.HealthReport) (float64, float64, bool, string) {
			lag := snap.MaxJournalLag
			return lag, maxLag, lag > maxLag, fmt.Sprintf("max journal_pending %.0f", lag)
		},
	}
}

// RuleUtilization breaches when any provider's NIC utilization exceeds
// maxUtil (1.0 = the modeled NIC is saturated).
func RuleUtilization(maxUtil float64) Rule {
	return Rule{
		Name: "nic_utilization",
		Evaluate: func(snap monitor.ClusterSnapshot, _ *monitor.HealthReport) (float64, float64, bool, string) {
			var worst float64
			var who string
			for _, c := range snap.Components {
				if c.Kind == monitor.KindProvider && c.Utilization > worst {
					worst = c.Utilization
					who = c.Name
				}
			}
			return worst, maxUtil, worst > maxUtil, fmt.Sprintf("hottest provider %s", who)
		},
	}
}

// RuleImbalance breaches when the read-load replica imbalance (hottest
// provider / mean) exceeds maxRatio.
func RuleImbalance(maxRatio float64) Rule {
	return Rule{
		Name: "replica_imbalance",
		Evaluate: func(snap monitor.ClusterSnapshot, _ *monitor.HealthReport) (float64, float64, bool, string) {
			r := snap.ReplicaImbalance
			return r, maxRatio, r > maxRatio, fmt.Sprintf("max/mean read rate %.2f", r)
		},
	}
}

// RuleHealth breaches when any component health check fails. Value is
// the unhealthy component count.
func RuleHealth() Rule {
	return Rule{
		Name: "component_health",
		Evaluate: func(_ monitor.ClusterSnapshot, health *monitor.HealthReport) (float64, float64, bool, string) {
			if health == nil {
				return 0, 0, false, "no health check wired"
			}
			var bad []string
			for _, c := range health.Components {
				if !c.Healthy {
					bad = append(bad, c.Component)
				}
			}
			return float64(len(bad)), 0, len(bad) > 0, strings.Join(bad, ",")
		},
	}
}

// RuleLatency breaches when the windowed (since the previous
// evaluation) p99 of the named op histogram exceeds factor ×
// baselineP99Ms. The closure holds the previous cumulative
// snapshot, so each evaluation judges only the operations completed
// since the last one.
func RuleLatency(reg *metrics.Registry, op string, baselineP99Ms, factor float64) Rule {
	if reg == nil {
		reg = metrics.Default
	}
	if factor <= 0 {
		factor = 2.0
	}
	limit := baselineP99Ms * factor
	var prev metrics.HistogramSnapshot
	return Rule{
		Name: "latency_p99:" + op,
		Evaluate: func(_ monitor.ClusterSnapshot, _ *monitor.HealthReport) (float64, float64, bool, string) {
			cur, ok := reg.OpSnapshot(op)
			if !ok {
				return 0, limit, false, "no samples"
			}
			win := cur.Sub(prev)
			prev = cur
			if win.Count == 0 {
				return 0, limit, false, "idle window"
			}
			p99Ms := win.Quantile(0.99) / 1e6
			return p99Ms, limit, p99Ms > limit,
				fmt.Sprintf("windowed p99 %.2fms vs baseline %.2fms ×%.1f (n=%d)", p99Ms, baselineP99Ms, factor, win.Count)
		},
	}
}

// StandardRulesOptions configure the default rule set.
type StandardRulesOptions struct {
	MaxJournalLag  float64 // default 512 pending records
	MaxUtilization float64 // default 0.95
	MaxImbalance   float64 // default 3.0
	// Health toggles the component-health rule (needs the watchdog's
	// HealthCheck wired to mean anything).
	Health bool
}

// StandardRules builds the default SLO rule set.
func StandardRules(o StandardRulesOptions) []Rule {
	if o.MaxJournalLag <= 0 {
		o.MaxJournalLag = 512
	}
	if o.MaxUtilization <= 0 {
		o.MaxUtilization = 0.95
	}
	if o.MaxImbalance <= 0 {
		o.MaxImbalance = 3.0
	}
	rules := []Rule{
		RuleJournalLag(o.MaxJournalLag),
		RuleUtilization(o.MaxUtilization),
		RuleImbalance(o.MaxImbalance),
	}
	if o.Health {
		rules = append(rules, RuleHealth())
	}
	return rules
}
