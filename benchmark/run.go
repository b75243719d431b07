package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloadDef is how to set a workload up. Its name, and why it is
// here, are declared in BENCHMARK.json.
type workloadDef struct {
	setup     func(ctx context.Context, e *env) (instance, error)
	plan      func(seed int64, scale float64, h io.Writer)
	minSlices int
}

var workloads = map[string]workloadDef{
	"append_shared":     {setup: setupAppendShared(false), plan: planAppendShared(false), minSlices: 4},
	"append_shared_lan": {setup: setupAppendShared(true), plan: planAppendShared(true), minSlices: 4},
	"record_append":     {setup: setupRecordAppend, plan: planRecordAppend, minSlices: 4},
	"read_under_append": {setup: setupReadUnderAppend, plan: planReadUnderAppend, minSlices: 4},
	"mr_datajoin":       {setup: setupMRDataJoin, plan: planMRDataJoin, minSlices: 6},
}

// runConfig is one contract-mode invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string
	bench    *benchmarkFile // names, units and bounds of everything reported
}

// selfTestFault makes the harness corrupt its own writes ("flip" a
// payload byte, "drop" a record). Only the self-test sets it, to prove
// that verification fails the run.
var selfTestFault string

// result is what one invocation prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Not part of the last line: detail for the human-readable table.
	detail   map[string]summary
	ungated  map[string]summary // untraced pass: the timings, which only a traced run reports as metrics
	failure  error
	planHash uint64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// settle returns the heap to a comparable state between passes.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runWorkload runs one invocation — untraced for the end-to-end
// metrics, or traced (plus an untraced reference and the layer probes)
// for the per-layer ones — and returns the result to print.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	def, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	hash, err := planHash(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	res := &result{planHash: hash}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		err = runEndToEnd(ctx, cfg, def, budget, res)
	} else {
		err = runPerLayer(ctx, cfg, def, budget, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no op", cfg.workload)
	}
	return res, nil
}

func (cfg runConfig) env(traced bool) *env {
	e := &env{seed: cfg.seed, scale: cfg.scale, outDir: cfg.outDir, fault: selfTestFault}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// pass is one measured instance: its slices, what its finish reported,
// and how its ops fared.
type pass struct {
	slices    []sliceStat
	extra     map[string]float64
	attempted int64
	failed    int64
	failure   error
}

// measureAndClose measures inst for budget, runs its end-of-run
// verification, and closes it.
func measureAndClose(ctx context.Context, inst instance, budget time.Duration, minSlices int) (*pass, error) {
	var p pass
	var err error
	if p.slices, err = measure(ctx, inst, budget, minSlices); err == nil {
		p.extra, err = inst.finish(ctx)
	}
	p.attempted, p.failed = inst.counts()
	p.failure = inst.firstFailure()
	if cerr := inst.Close(); err == nil {
		err = cerr
	}
	settle()
	return &p, err
}

func (p *pass) into(res *result) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	if res.failure == nil {
		res.failure = p.failure
	}
}

// runEndToEnd sets the workload up three times (once below full scale,
// whose numbers are not recorded), so that setup_s is a median like the
// rest, and measures the last instance untraced (by then the process's
// heap has grown to its working size). Measuring a share of the budget
// on each instance instead was tried and made no metric steadier: what
// varies between runs on a shared machine is the machine, not the boot.
func runEndToEnd(ctx context.Context, cfg runConfig, def workloadDef, budget time.Duration, res *result) error {
	var inst instance
	var setup []float64
	setups := 3
	if cfg.scale < 1 {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.Close(); err != nil {
				return err
			}
			settle()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(ctx, cfg.env(false)); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	p, err := measureAndClose(ctx, inst, budget, def.minSlices)
	if err != nil {
		return err
	}
	p.into(res)
	res.detail = endToEnd(p.slices, setup)
	res.ungated = timings(p.slices)
	vals := make(map[string]float64, len(res.detail))
	for k, v := range res.detail {
		vals[k] = v.Median
	}
	res.Metrics, err = declared(cfg.bench.EndToEnd, vals)
	return err
}

// declared gives every produced value the unit BENCHMARK.json declares
// for it, and refuses a value that is not declared or a declaration
// that got no value.
func declared(defs []benchMetric, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not produced", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for k := range vals {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %s is produced but not declared", k)
		}
	}
	return out, nil
}

// runPerLayer splits the budget: an untraced reference pass (state
// deltas through public accessors, and the wall time per op that the
// traced pass is compared with), the traced pass (transport decorator
// and harness spans), then the layer probes.
func runPerLayer(ctx context.Context, cfg runConfig, def workloadDef, budget time.Duration, res *result) error {
	var passes [2]*pass
	var tr *tracer
	for i, traced := range []bool{false, true} {
		e := cfg.env(traced)
		inst, err := def.setup(ctx, e)
		if err != nil {
			return fmt.Errorf("set-up (traced %v): %w", traced, err)
		}
		if passes[i], err = measureAndClose(ctx, inst, budget*3/8, def.minSlices/2); err != nil {
			return err
		}
		passes[i].into(res)
		tr = e.tr
	}
	if err := tr.writeFile(filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json")); err != nil {
		return err
	}
	vals := layerMetrics(passes[0].slices, passes[1].slices, tr.byName(), passes[0].extra)
	probes, err := runProbes(ctx, cfg.outDir, budget/4, cfg.scale)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		vals[k] = v
	}
	vals["harness.fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	res.Metrics, err = declared(cfg.bench.PerLayer, vals)
	return err
}

// printTable writes every metric by name with its unit.
func printTable(w io.Writer, cfg runConfig, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %g  plan %016x  trace %v\n", cfg.workload, cfg.seed, cfg.scale, res.planHash, cfg.trace)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		if d, ok := res.detail[k]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s (q1 %.4f, q3 %.4f, n=%d)\n", k, m.Value, m.Unit, d.Q1, d.Q3, d.N)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
	for _, m := range cfg.bench.PerLayer {
		if d, ok := res.ungated[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s (q1 %.4f, q3 %.4f, n=%d; ungated)\n", m.Name, d.Median, m.Unit, d.Q1, d.Q3, d.N)
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Failed == 0)
	if res.failure != nil {
		fmt.Fprintf(w, "  first failure: %v\n", res.failure)
	}
}
