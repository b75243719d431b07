package experiments

import "testing"

// TestIncident runs the flight-recorder drill end to end: kill a VM
// shard mid-workload under an armed watchdog, assert the health alert
// fires and clears with hysteresis, and verify a post-crash replay of
// the flight log reconstructs the incident timeline. The scenario
// enforces its own acceptance checks; the test adds the bounds that
// matter for the figure.
func TestIncident(t *testing.T) {
	if testing.Short() {
		t.Skip("incident drill skipped in -short")
	}
	res, err := Incident(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// FireAfter=1 on a 50ms watchdog cadence: the alert must land
	// within a handful of evaluations of the kill, each one collection
	// pass (one to notice, plus the health ping timeout the check itself
	// burns).
	if res.FireCollections > 6 {
		t.Errorf("alert fired after %d collections; want within a collection interval or so", res.FireCollections)
	}
	if res.ClearEvals < 3 {
		t.Errorf("alert cleared after %d evals; hysteresis demands >= 3", res.ClearEvals)
	}
	if res.ReplaySlowTraceSpans < 2 {
		t.Errorf("largest replayed slow trace has %d spans; want a causal tree (>= 2)", res.ReplaySlowTraceSpans)
	}
	if res.SnapshotsBeforeKill == 0 || res.SnapshotsAfterRestart == 0 {
		t.Errorf("snapshot timeline does not bracket the outage: %d before kill, %d after restart",
			res.SnapshotsBeforeKill, res.SnapshotsAfterRestart)
	}
	if res.AlertFires == 0 || res.AlertClears == 0 {
		t.Errorf("replay missing alert transitions: %d fires, %d clears", res.AlertFires, res.AlertClears)
	}
	if res.HealthTransitions == 0 {
		t.Error("replay recorded no component health transitions across a shard kill")
	}
	if !res.TimelineRendered {
		t.Error("FormatTimeline rendered nothing for a non-empty replay")
	}
	t.Logf("incident: fire after %.1fms (%d collections), clear after %d evals, replay %d events (%d traces, %d snapshots)",
		res.FireDelayMS, res.FireCollections, res.ClearEvals, res.ReplayEvents, res.ReplayTraces, res.ReplaySnapshots)
}
