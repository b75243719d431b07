// Command benchmark is the repository's one gated benchmark: five
// named workloads driven through the public API from outside, each
// verified byte for byte, reporting end-to-end metrics from an untraced
// pass and per-layer metrics from a traced pass plus layer probes. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the exit: 0 when every op verified, 1 otherwise.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var cfg runConfig
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload and print its result as the last line (default: the whole suite)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the op plan; the program under test sees only generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long one pass measures")
	fs.IntVar(&trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass and probes, per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "scale op counts for iteration; only scale 1 numbers are recorded")
	agree := fs.Bool("agree", false, "compare two result sets: -agree a.json b.json")
	// Paths.
	fs.StringVar(&cfg.outDir, "out", "out", "directory for traces, journals and result sets")
	save := fs.String("save", "", "suite mode: write the result set to this file (default <out>/result.json)")
	benchPath := fs.String("benchmark-json", "BENCHMARK.json", "the contract: workloads, metric names, units and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0

	var err error
	if cfg.bench, err = readBenchmarkFile(*benchPath); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *agree:
		err = agreeCmd(stdout, cfg.bench, fs.Args())
	case cfg.workload == "":
		err = suite(ctx, cfg, *benchPath, *save, stdout, stderr)
	default:
		var res *result
		if res, err = runWorkload(ctx, cfg); err == nil {
			printTable(stdout, cfg, res)
			line, _ := json.Marshal(res)
			fmt.Fprintln(stdout, string(line))
			if !res.Correct {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}
