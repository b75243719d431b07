// Package metrics is the process's stats vocabulary. Registry (Default)
// owns the named counters every subsystem adds to, the named operation
// latency histograms, the gauges and the per-method RPC tables, and
// renders them as one snapshot in Prometheus text or JSON. ReadStats is
// a client's own view of its read path, and Meter, Summary and Series
// are the experiment harness's per-operation throughput samples and the
// (x, y) series of the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sample is one timed operation.
type Sample struct {
	Bytes    uint64
	Duration time.Duration
}

// MBps returns the sample's throughput in megabytes per second
// (the paper's unit: MB/s, 1 MB = 2^20 bytes).
func (s Sample) MBps() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Bytes) / (1 << 20) / s.Duration.Seconds()
}

// Meter collects samples concurrently.
type Meter struct {
	mu      sync.Mutex
	samples []Sample
}

// Record adds one sample.
func (m *Meter) Record(bytes uint64, d time.Duration) {
	m.mu.Lock()
	m.samples = append(m.samples, Sample{Bytes: bytes, Duration: d})
	m.mu.Unlock()
}

// Time runs fn and records its duration against the given byte count.
func (m *Meter) Time(bytes uint64, fn func() error) error {
	start := time.Now()
	err := fn()
	if err == nil {
		m.Record(bytes, time.Since(start))
	}
	return err
}

// Samples returns a copy of all samples.
func (m *Meter) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Sample(nil), m.samples...)
}

// Summary aggregates samples.
type Summary struct {
	N          int
	TotalBytes uint64
	// MeanMBps is the mean of per-operation throughputs — the paper's
	// "average throughput" metric for Figures 3-5.
	MeanMBps     float64
	MedianMBps   float64
	P5MBps       float64
	P95MBps      float64
	MeanDuration time.Duration
}

// Summarize reduces a sample set.
func Summarize(samples []Sample) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	tput := make([]float64, 0, len(samples))
	var sum float64
	var bytes uint64
	var dur time.Duration
	for _, s := range samples {
		v := s.MBps()
		tput = append(tput, v)
		sum += v
		bytes += s.Bytes
		dur += s.Duration
	}
	sort.Float64s(tput)
	return Summary{
		N:            len(samples),
		TotalBytes:   bytes,
		MeanMBps:     sum / float64(len(tput)),
		MedianMBps:   percentile(tput, 0.5),
		P5MBps:       percentile(tput, 0.05),
		P95MBps:      percentile(tput, 0.95),
		MeanDuration: dur / time.Duration(len(samples)),
	}
}

// percentile interpolates the p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Point is one (x, y) measurement of a figure's series.
type Point struct {
	X float64
	Y float64
	// Err is an optional spread indicator (e.g. p95-p5 half-width).
	Err float64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y, err float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Err: err})
}

// Table renders series as an aligned ASCII table, one row per X value,
// one column per series (the way EXPERIMENTS.md reports figures).
func Table(title string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	if len(series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s", series[0].XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %20s", s.Name)
	}
	b.WriteByte('\n')

	// Collect the union of X values in order.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12.6g", x)
		for _, s := range series {
			y, ok := s.lookup(x)
			if !ok {
				fmt.Fprintf(&b, " %20s", "-")
				continue
			}
			fmt.Fprintf(&b, " %20.2f", y)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (s *Series) lookup(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// CSV renders the series in gnuplot-friendly form.
func CSV(series ...*Series) string {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "# series: %s (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%g,%g,%g\n", p.X, p.Y, p.Err)
		}
	}
	return b.String()
}
