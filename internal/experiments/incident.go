package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/flight"
	"blobseer/internal/obs"
)

// Incident scenario knobs: a journaled 3-shard deployment under an
// armed SLO watchdog loses a VM shard mid-workload while a Zipf read
// hotspot runs, and the flight recorder must reconstruct the incident
// after the fact.
const (
	incidentShards   = 3
	incidentWriters  = 6
	incidentReaders  = 4
	incidentHotPages = 16                    // pages pre-appended to the hotspot BLOB
	incidentNumReads = 40                    // Zipf reads per reader per phase
	incidentZipfS    = 1.2                   // skew of the hot reads
	incidentOpsPre   = 4                     // appends per writer before the kill
	incidentOpsPost  = 6                     // appends per writer once the kill lands
	incidentInterval = 50 * time.Millisecond // monitor collection cadence
	incidentPingTmo  = 150 * time.Millisecond
	incidentOutage   = 300 * time.Millisecond
)

// IncidentResult is the machine-checkable outcome of the incident
// drill.
type IncidentResult struct {
	Shards      int `json:"shards"`
	Writers     int `json:"writers"`
	KilledShard int `json:"killed_shard"`

	// OutageMS is how long the victim shard was down.
	OutageMS float64 `json:"outage_ms"`

	// FireDelayMS is kill -> health alert firing; FireCollections is
	// the same delay in monitor collection passes (the acceptance bar:
	// within one interval, so a small number of passes).
	FireDelayMS     float64 `json:"fire_delay_ms"`
	FireCollections uint64  `json:"fire_collections"`
	// ClearEvals is how many evaluation passes after the restart the
	// alert took to clear (hysteresis: >= ClearAfter).
	ClearEvals uint64 `json:"clear_evals"`

	// Replay: what a fresh Recorder opened on the abandoned flight log
	// (the "post-restart" view) reconstructed.
	ReplayEvents          int  `json:"replay_events"`
	ReplayTraces          int  `json:"replay_traces"`
	ReplaySlowTraceSpans  int  `json:"replay_slow_trace_spans"` // span count of the largest slow trace
	ReplaySnapshots       int  `json:"replay_snapshots"`
	SnapshotsBeforeKill   int  `json:"snapshots_before_kill"`
	SnapshotsAfterRestart int  `json:"snapshots_after_restart"`
	AlertFires            int  `json:"alert_fires"`
	AlertClears           int  `json:"alert_clears"`
	HealthTransitions     int  `json:"health_transitions"`
	TimelineRendered      bool `json:"timeline_rendered"`
}

// Incident runs the flight-recorder drill: journaled BSFS deployment,
// armed watchdog (FireAfter=1, ClearAfter=3), traced append workload
// plus a Zipf read hotspot, VM-shard kill and journal-replay restart —
// then replays the abandoned flight log the way a post-crash restart
// would and verifies the timeline brackets the outage.
func Incident(cfg Config) (*IncidentResult, error) {
	cfg = cfg.withDefaults()

	dir, err := os.MkdirTemp("", "blobseer-incident-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	flightPath := filepath.Join(dir, "flight.log")

	envCfg := cfg
	envCfg.VMShards = incidentShards
	envCfg.JournalDir = filepath.Join(dir, "journal")
	envCfg.HealthPingTimeout = incidentPingTmo
	if err := os.MkdirAll(envCfg.JournalDir, 0o755); err != nil {
		return nil, err
	}
	env, err := newBSFSEnv(envCfg)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	d := env.deploy

	if err := d.EnableFlight(flightPath, bsfs.FlightConfig{
		Sampler: flight.SamplerOptions{SlowFloor: 2 * time.Millisecond},
		Watchdog: flight.WatchdogOptions{
			FireAfter:     1,
			ClearAfter:    3,
			SnapshotEvery: 1,
			HealthTimeout: time.Second,
		},
		Rules: flight.StandardRulesOptions{Health: true},
	}); err != nil {
		return nil, err
	}
	d.SetMonitorInterval(incidentInterval)

	// Workload BLOBs: one per writer, plus the hotspot BLOB that the
	// Zipf readers hammer.
	clients := make([]*blob.Client, incidentWriters)
	blobs := make([]*blob.Blob, incidentWriters)
	hosts := env.cluster.ProviderHosts()
	for w := range clients {
		// The drill's clients keep the library's page cache whatever the
		// environment's -cachemb says: the hot readers are read load
		// beside the outage, and readers that re-fetched every hot page
		// over the shaped net would outlast the outage they overlap.
		cc := env.cluster.ClientConfig(hosts[w%len(hosts)])
		cc.CacheBytes = 0
		clients[w] = blob.NewClient(cc)
		bl, err := clients[w].Create(ctx, cfg.BlockSize)
		if err != nil {
			return nil, err
		}
		blobs[w] = bl
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// The victim is the shard owning writer 0's BLOB: at least one
	// writer provably routes through the outage. The hotspot BLOB is
	// any blob on a DIFFERENT shard, so the read hotspot keeps read load
	// and utilization flowing while the victim is down.
	victim := -1
	victimAddr := clients[0].VMRouter().Shard(blobs[0].ID())
	for i, a := range env.cluster.VMAddrs() {
		if a == victimAddr {
			victim = i
		}
	}
	if victim < 0 {
		return nil, fmt.Errorf("incident: victim shard for blob %d not found", blobs[0].ID())
	}
	hot := -1
	for w, bl := range blobs {
		if clients[w].VMRouter().Shard(bl.ID()) != victimAddr {
			hot = w
			break
		}
	}
	if hot < 0 {
		return nil, fmt.Errorf("incident: no blob landed off the victim shard")
	}
	var hotVer uint64
	for p := 0; p < incidentHotPages; p++ {
		wr, err := blobs[hot].Append(ctx, chunk(cfg, p))
		if err != nil {
			return nil, err
		}
		if _, err := blobs[hot].WaitPublished(ctx, wr.Ver); err != nil {
			return nil, err
		}
		hotVer = wr.Ver
	}

	// tracedAppend is the workload op the sampler sees: a full trace
	// rooted at blob.append, slow by construction on the shaped net.
	tracedAppend := func(w, op int) error {
		tctx, root := obs.StartTrace(ctx, "blob.append")
		wr, err := blobs[w].Append(tctx, chunk(cfg, w*1000+op))
		if err == nil {
			_, err = blobs[w].WaitPublished(tctx, wr.Ver)
		}
		root.End(err)
		return err
	}
	runWriters := func(opLo, opHi int) error {
		errs := make(chan error, incidentWriters)
		for w := 0; w < incidentWriters; w++ {
			go func(w int) {
				for op := opLo; op < opHi; op++ {
					if err := tracedAppend(w, op); err != nil {
						errs <- fmt.Errorf("writer %d op %d: %w", w, op, err)
						return
					}
				}
				errs <- nil
			}(w)
		}
		var first error
		for w := 0; w < incidentWriters; w++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	// runHotspot fires Zipf-skewed reads at the hot BLOB: the read load
	// behind the drill's utilization signal.
	runHotspot := func(seedOff int64) error {
		errs := make(chan error, incidentReaders)
		for r := 0; r < incidentReaders; r++ {
			go func(r int) {
				rng := rand.New(rand.NewSource(cfg.Seed + seedOff + int64(r)))
				zipf := rand.NewZipf(rng, incidentZipfS, 1, incidentHotPages-1)
				buf := make([]byte, cfg.BlockSize)
				for i := 0; i < incidentNumReads; i++ {
					page := zipf.Uint64()
					if _, err := blobs[hot].ReadAtInto(ctx, hotVer, page*cfg.BlockSize, buf); err != nil {
						errs <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
				}
				errs <- nil
			}(r)
		}
		var first error
		for r := 0; r < incidentReaders; r++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	// Phase 1: healthy traffic, enough collections for pre-kill
	// snapshots and a settled health baseline.
	if err := runWriters(0, incidentOpsPre); err != nil {
		return nil, err
	}
	if err := runHotspot(11); err != nil {
		return nil, err
	}
	for d.Monitor.Collections() < 3 {
		time.Sleep(incidentInterval)
	}

	healthRule := "component_health"
	firingNow := func() bool {
		for _, a := range d.Watchdog.Alerts() {
			if a.Rule == healthRule && a.State == flight.StateFiring {
				return true
			}
		}
		return false
	}
	if firingNow() {
		return nil, fmt.Errorf("incident: health alert firing before the kill")
	}

	// Phase 2: kill the victim mid-workload. Writers ride the routed
	// retry loop; the watchdog's next health check sees the dead shard.
	killTime := time.Now()
	collAtKill := d.Monitor.Collections()
	if err := env.cluster.KillVM(victim); err != nil {
		return nil, err
	}
	phaseErr := make(chan error, 2)
	go func() { phaseErr <- runWriters(incidentOpsPre, incidentOpsPre+incidentOpsPost) }()
	go func() { phaseErr <- runHotspot(29) }()

	// The alert must fire within one collection interval (plus the ping
	// timeout the check itself burns); give the poll a generous cap so
	// a loaded CI host doesn't flake, but record the actual delay.
	var fireDelay time.Duration
	var fireCollections uint64
	fireDeadline := time.Now().Add(10 * time.Second)
	for {
		if firingNow() {
			fireDelay = time.Since(killTime)
			fireCollections = d.Monitor.Collections() - collAtKill
			break
		}
		if time.Now().After(fireDeadline) {
			return nil, fmt.Errorf("incident: health alert did not fire within %v of the kill", 10*time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}

	time.Sleep(incidentOutage)
	if err := env.cluster.RestartVM(victim); err != nil {
		return nil, err
	}
	outage := time.Since(killTime)
	restartTime := time.Now()
	evalsAtRestart := d.Watchdog.Evals()
	for i := 0; i < 2; i++ {
		if err := <-phaseErr; err != nil {
			return nil, err
		}
	}

	// The alert clears only after ClearAfter consecutive healthy
	// evaluations — hysteresis, not a single good sample.
	var clearEvals uint64
	clearDeadline := time.Now().Add(10 * time.Second)
	for firingNow() {
		if time.Now().After(clearDeadline) {
			return nil, fmt.Errorf("incident: health alert did not clear within %v of the restart", 10*time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
	clearEvals = d.Watchdog.Evals() - evalsAtRestart

	// Let a couple more snapshots land past the recovery so the replay
	// provably brackets the outage.
	collAfterClear := d.Monitor.Collections()
	for d.Monitor.Collections() < collAfterClear+2 {
		time.Sleep(incidentInterval)
	}
	d.Monitor.SetInterval(0) // quiesce: no more writes into the flight log

	// Post-crash replay: open a SECOND recorder on the same path while
	// the deployment's own handle is still live-but-abandoned — exactly
	// what a restarted process sees after a kill (no clean Close).
	replayRec, err := flight.Open(flightPath)
	if err != nil {
		return nil, fmt.Errorf("incident: post-kill reopen: %w", err)
	}
	defer replayRec.Close()
	events, err := replayRec.Replay()
	if err != nil {
		return nil, fmt.Errorf("incident: replay: %w", err)
	}

	res := &IncidentResult{
		Shards:          incidentShards,
		Writers:         incidentWriters,
		KilledShard:     victim,
		OutageMS:        float64(outage.Microseconds()) / 1000,
		FireDelayMS:     float64(fireDelay.Microseconds()) / 1000,
		FireCollections: fireCollections,
		ClearEvals:      clearEvals,
		ReplayEvents:    len(events),
	}
	for _, ev := range events {
		switch ev.Kind {
		case flight.KindTrace:
			res.ReplayTraces++
			if ev.Trace.Reason == "slow" && len(ev.Trace.Spans) > res.ReplaySlowTraceSpans {
				res.ReplaySlowTraceSpans = len(ev.Trace.Spans)
			}
		case flight.KindSnapshot:
			res.ReplaySnapshots++
			if ev.At.Before(killTime) {
				res.SnapshotsBeforeKill++
			}
			if ev.At.After(restartTime) {
				res.SnapshotsAfterRestart++
			}
		case flight.KindAlert:
			switch ev.Alert.State {
			case flight.StateFiring:
				res.AlertFires++
			case flight.StateOK:
				res.AlertClears++
			}
		case flight.KindHealth:
			res.HealthTransitions++
		}
	}
	res.TimelineRendered = len(flight.FormatTimeline(events)) > 0

	// Hard acceptance checks, enforced here so both the CLI run and the
	// test fail loudly when the drill degrades.
	if res.ReplaySlowTraceSpans < 2 {
		return nil, fmt.Errorf("incident: no replayed slow trace with a multi-span tree (best %d spans)", res.ReplaySlowTraceSpans)
	}
	if res.SnapshotsBeforeKill == 0 || res.SnapshotsAfterRestart == 0 {
		return nil, fmt.Errorf("incident: snapshot timeline does not bracket the kill (%d before, %d after)",
			res.SnapshotsBeforeKill, res.SnapshotsAfterRestart)
	}
	if res.AlertFires == 0 || res.AlertClears == 0 {
		return nil, fmt.Errorf("incident: replay missing alert transitions (%d fires, %d clears)", res.AlertFires, res.AlertClears)
	}
	if res.ClearEvals < 3 {
		return nil, fmt.Errorf("incident: alert cleared after %d evals; hysteresis demands >= 3", res.ClearEvals)
	}
	return res, nil
}
