package flight

import (
	"fmt"
	"strings"

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

// StandardRules is the SLO rule set a deployment's watchdog runs:
// journal lag past 512 pending records, a provider NIC past 95 %
// utilization, read imbalance past 3×, and any unhealthy component.
func StandardRules() []Rule {
	return []Rule{
		RuleJournalLag(512),
		RuleUtilization(0.95),
		RuleImbalance(3.0),
		RuleHealth(),
	}
}
