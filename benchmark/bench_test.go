package main

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func loadBench(t *testing.T) *benchmarkFile {
	t.Helper()
	bench, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bench
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload BENCHMARK.json declares runs at about 1/50 scale,
// verifies, and emits exactly the metric names the file declares: none
// missing, none extra, in either pass.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	bench := loadBench(t)
	charset := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(ms []benchMetric) []string {
		var out []string
		for _, m := range ms {
			if !charset.MatchString(m.Name) {
				t.Errorf("metric name %q is outside the allowed charset", m.Name)
			}
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	wantE2E, wantLayer := declared(bench.EndToEnd), declared(bench.PerLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the code has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if !charset.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the allowed charset", w.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.05, trace: trace, scale: 0.02, outDir: t.TempDir(), bench: bench}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s (trace %v): attempted %d, failed %d: %v", w.Name, trace, res.Attempted, res.Failed, res.failure)
			}
			want := wantE2E
			if trace {
				want = wantLayer
			}
			if got := keys(res.Metrics); !equal(got, want) {
				t.Errorf("%s (trace %v) emitted %v\nwant %v", w.Name, trace, got, want)
			}
		}
	}
}

func equal(a, b []string) bool {
	return strings.Join(a, "\x00") == strings.Join(b, "\x00")
}

// The seed, and nothing else, decides the op plan.
func TestPlanHashFollowsSeed(t *testing.T) {
	for name := range workloads {
		a, err := planHash(name, 1, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := planHash(name, 1, 0.02)
		c, _ := planHash(name, 2, 0.02)
		if a != b {
			t.Errorf("%s: seed 1 gave plans %x and %x", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same plan %x", name, a)
		}
	}
}

// Verification must notice a flipped payload byte and a dropped record:
// the harness corrupts its own writes, and the run must count failures,
// report incorrect, and exit non-zero.
func TestSelfTestVerificationFailsTheRun(t *testing.T) {
	defer func() { selfTestFault = "" }()
	for workload, fault := range map[string]string{"append_shared": "flip", "record_append": "drop"} {
		selfTestFault = fault
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{
			"-workload", workload, "-scale", "0.02", "-seconds", "0.05", "-out", t.TempDir(), "-benchmark-json", "../BENCHMARK.json",
		}, &stdout, &stderr)
		if code == 0 {
			t.Errorf("%s with fault %s exited 0", workload, fault)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: no result line: %v\n%s%s", workload, err, stdout.String(), stderr.String())
		}
		if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
			t.Errorf("%s with fault %s: correct %v, failed %d of %d; want a fail ratio above zero", workload, fault, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	p := newPayloads(3, 1000)
	unit := make([]byte, 1000)
	p.fill(unit, 1, 42)
	if c, seq, err := p.check(unit); err != nil || c != 1 || seq != 42 {
		t.Fatalf("check of a fresh unit: (%d, %d), %v", c, seq, err)
	}
	unit[500] ^= 1
	if _, _, err := p.check(unit); err == nil {
		t.Error("a flipped body byte passed")
	}
	o := newOrderCheck()
	for _, seq := range []uint64{0, 1, 3} {
		if err := o.add(0, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.add(0, 3); err == nil {
		t.Error("a duplicate passed")
	}
	if err := o.complete(1, 4); err == nil {
		t.Error("a gap passed as complete")
	}
}
