package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultSet is what suite mode saves and -agree compares: for every
// workload, the end-to-end metrics of each untraced run and the
// per-layer metrics of one traced run.
type resultSet struct {
	Seed      int64                          `json:"seed"`
	Seconds   float64                        `json:"seconds"`
	Scale     float64                        `json:"scale"`
	EndToEnd  map[string][]map[string]metric `json:"end_to_end"` // workload -> runs
	PerLayer  map[string]map[string]metric   `json:"per_layer"`  // workload -> metrics
	Attempted map[string]int64               `json:"attempted"`
	Failed    map[string]int64               `json:"failed"`
}

// suiteRuns is how many untraced runs per workload make a result set.
const suiteRuns = 3

// suite runs every workload the way the driver does — a fresh process
// per run, so no run inherits another's heap — and prints one table.
func suite(ctx context.Context, cfg runConfig, benchPath, save string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if save == "" {
		save = filepath.Join(cfg.outDir, "result.json")
	}
	set := resultSet{
		Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		EndToEnd: map[string][]map[string]metric{}, PerLayer: map[string]map[string]metric{},
		Attempted: map[string]int64{}, Failed: map[string]int64{},
	}
	for _, wl := range cfg.bench.Workloads {
		name := wl.Name
		for run := 0; run <= suiteRuns; run++ {
			trace := run == suiteRuns // the last run of each workload is the traced one
			res, err := child(ctx, self, cfg, benchPath, name, trace, stderr)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, run, err)
			}
			set.Attempted[name] += res.Attempted
			set.Failed[name] += res.Failed
			if trace {
				set.PerLayer[name] = res.Metrics
			} else {
				set.EndToEnd[name] = append(set.EndToEnd[name], res.Metrics)
			}
			fmt.Fprintf(stderr, "%s run %d/%d done (trace %v)\n", name, run+1, suiteRuns+1, trace)
		}
	}
	if err := os.MkdirAll(filepath.Dir(save), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(save, data, 0o644); err != nil {
		return err
	}
	set.print(stdout, cfg.bench)
	fmt.Fprintf(stdout, "result set written to %s\n", save)
	for name, failed := range set.Failed {
		if failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed or did not verify", name, failed, set.Attempted[name])
		}
	}
	return nil
}

// child runs one contract-mode invocation and parses its last line.
func child(ctx context.Context, self string, cfg runConfig, benchPath, workload string, trace bool, stderr io.Writer) (*result, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-out", cfg.outDir, "-benchmark-json", benchPath, "-workload", workload, "-trace", t,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no result line: %w", jerr)
	}
	return &res, nil // a failed verification exits non-zero but still reports
}

func metricValues(runs []map[string]metric, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func (s *resultSet) print(w io.Writer, bench *benchmarkFile) {
	for _, wl := range bench.Workloads {
		name := wl.Name
		fmt.Fprintf(w, "\n%s — %s\n", name, wl.Why)
		for _, m := range bench.EndToEnd {
			sum := summarize(metricValues(s.EndToEnd[name], m.Name))
			fmt.Fprintf(w, "  %-34s %14.4f %-6s (q1 %.4f, q3 %.4f, n=%d runs)\n", m.Name, sum.Median, m.Unit, sum.Q1, sum.Q3, sum.N)
		}
		for _, m := range bench.PerLayer {
			if v, ok := s.PerLayer[name][m.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v.Value, m.Unit)
			}
		}
		fmt.Fprintf(w, "  attempted %d  failed %d\n", s.Attempted[name], s.Failed[name])
	}
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// spread is the interquartile range over the median.
func spread(v []float64) float64 {
	s := summarize(v)
	return div(s.Q3-s.Q1, s.Median)
}

// agreeCmd compares result set b (the candidate) with a (the base),
// metric by metric, against the bounds BENCHMARK.json declares: "ok",
// "regressed" (b's median worse than a's by more than the bound), or
// "unresolved" (either set's spread is wider than the bound, so the
// comparison means nothing; not applied to setup_s). A workload on
// which b failed more of its ops than a did regressed, whatever its
// metrics say.
func agreeCmd(w io.Writer, bench *benchmarkFile, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-agree takes two result sets: a.json b.json")
	}
	var sets [2]resultSet
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	bad := 0
	fmt.Fprintf(w, "%-18s %-22s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, wl := range bench.Workloads {
		fa := div(float64(sets[0].Failed[wl.Name]), float64(sets[0].Attempted[wl.Name]))
		fb := div(float64(sets[1].Failed[wl.Name]), float64(sets[1].Attempted[wl.Name]))
		verdict := "ok"
		if fb > fa { // the issue's fail_ratio: any increase
			verdict = "regressed"
			bad++
		}
		fmt.Fprintf(w, "%-18s %-22s %12.6f %12.6f %8s %8s %6s  %s\n", wl.Name, "failed/attempted", fa, fb, "", "", "", verdict)
		for _, m := range bench.EndToEnd {
			a, b := metricValues(sets[0].EndToEnd[wl.Name], m.Name), metricValues(sets[1].EndToEnd[wl.Name], m.Name)
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s/%s is missing from a result set", wl.Name, m.Name)
			}
			ma, mb := median(a), median(b)
			worse := div(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sp := spread(a)
			if s := spread(b); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case worse > *m.Bound:
				verdict = "regressed"
				bad++
			case sp > *m.Bound && m.Name != "setup_s":
				// Three medians of three boots have no spread worth
				// judging; the driver does not judge setup_s's either.
				verdict = "unresolved"
				bad++
			}
			fmt.Fprintf(w, "%-18s %-22s %12.4f %12.4f %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*div(mb-ma, ma), 100*sp, 100**m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of the (workload, metric) pairs regressed or are unresolved", bad)
	}
	return nil
}
