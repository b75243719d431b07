package metrics

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (-?[0-9.eE+-]+|NaN)$`)
	promLabel  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)=("(?:\\.|[^"\\])*")(?:,(.*))?$`)
)

// TestWritePrometheusParseBack renders a snapshot carrying every
// family — counters, gauges, op summaries, RPC methods —
// and re-parses the exposition line by line: every sample line must
// match the text format, every label value must strconv.Unquote
// cleanly (the writer uses %q), and the declared TYPE lines must cover
// the families that declare them.
func TestWritePrometheusParseBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("read_cache_hits").Add(3)
	r.Counter("gc_pages_reclaimed")
	r.Op(`op"with\quotes`).Record(1_500_000)
	r.SetGauge("test_gauge", func() float64 { return 4.5 })
	r.RPCClient.Method("vm.Assign").Observe(2*time.Millisecond, 100, nil)

	var b strings.Builder
	r.Snapshot().WritePrometheus(&b)
	out := b.String()

	types := make(map[string]string)
	var samples int
	opNames := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("bad type %q in %q", f[3], line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line does not parse as a prometheus sample: %q", line)
		}
		samples++
		name, labels := m[1], m[3]
		if _, err := strconv.ParseFloat(m[4], 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		for labels != "" {
			lm := promLabel.FindStringSubmatch(labels)
			if lm == nil {
				t.Fatalf("labels do not parse in %q (at %q)", line, labels)
			}
			val, err := strconv.Unquote(lm[2])
			if err != nil {
				t.Fatalf("label value does not unquote in %q: %v", line, err)
			}
			if name == "blobseer_op_latency_ms_count" && lm[1] == "op" {
				opNames[val] = true
			}
			labels = lm[3]
		}
	}
	if samples == 0 {
		t.Fatal("no samples rendered")
	}

	// The typed families must declare their types.
	for name, want := range map[string]string{
		"blobseer_test_gauge":               "gauge",
		"blobseer_op_latency_ms":            "summary",
		"blobseer_rpc_latency_ms":           "summary",
		"blobseer_read_cache_hits_total":    "counter",
		"blobseer_gc_pages_reclaimed_total": "counter",
	} {
		if got := types[name]; got != want {
			t.Errorf("TYPE %s = %q, want %q", name, got, want)
		}
	}

	// The op whose name needs escaping survives the round trip.
	if !opNames[`op"with\quotes`] {
		t.Errorf("op names after parse-back: %v", opNames)
	}
}
