package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"
)

// sliceStat is what one slice (a fixed, seeded batch of ops) measured.
// Timing, CPU and allocation cover only the slice's timed window;
// opening, verifying and rotating files happen with the clock stopped.
type sliceStat struct {
	wall      time.Duration
	ops       int
	userBytes int64
	lat       []time.Duration // one per op, all clients

	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapInuse  uint64

	stored    float64 // provider bytes per live user byte at the slice's quiesce point
	imbalance float64 // fullest provider over the mean, at the same point

	bgMBps float64 // read_under_append: the open-loop appender's achieved rate

	reclaim  time.Duration // rotation: delete until provider bytes are back to base
	leftover int64         // bytes still stored when the wait gave up
	rotated  bool

	cache        cacheDelta
	journalRecs  uint64 // VM journal records appended
	journalBytes int64  // growth of the journals on disk; negative across a compaction
	dhtNodes     int64
	pages        int64
	net          netCounts // traced pass only
}

// instance is one set-up workload: a booted cluster with its inputs
// loaded and one warm-up slice behind it.
type instance interface {
	// slice runs measured slice i (warm-up was slice 0).
	slice(ctx context.Context, i int) (sliceStat, error)
	// finish runs end-of-run verification and reports extra metrics.
	finish(ctx context.Context) (map[string]float64, error)
	// counts returns ops attempted and failed (including verification
	// mismatches) so far.
	counts() (attempted, failed int64)
	// firstFailure is the cause of the first failed op or mismatch.
	firstFailure() error
	io.Closer
}

// measure runs slices until the budget is spent, but never fewer than
// minSlices, so a slow machine still yields medians.
func measure(ctx context.Context, inst instance, budget time.Duration, minSlices int) ([]sliceStat, error) {
	var out []sliceStat
	start := time.Now()
	for i := 1; len(out) < minSlices || time.Since(start) < budget; i++ {
		st, err := inst.slice(ctx, i)
		if err != nil {
			return out, fmt.Errorf("slice %d: %w", i, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// Order statistics.

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics (the
// "inclusive" method); q in [0,1].
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func durQuantile(lat []time.Duration, q float64) time.Duration {
	v := make([]float64, len(lat))
	for i, d := range lat {
		v[i] = float64(d)
	}
	sort.Float64s(v)
	return time.Duration(quantile(v, q))
}

type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(v []float64) summary {
	s := sortedCopy(v)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perSlice maps every slice through f.
func perSlice(slices []sliceStat, f func(*sliceStat) float64) []float64 {
	out := make([]float64, len(slices))
	for i := range slices {
		out[i] = f(&slices[i])
	}
	return out
}

// endToEnd turns slices into the gated metrics: each is the median
// over slices of the per-slice value, so one disturbed slice does not
// move the run.
func endToEnd(slices []sliceStat, setup []float64) map[string]summary {
	return map[string]summary{
		"setup_s": summarize(setup),
		"allocs_per_op": summarize(perSlice(slices, func(s *sliceStat) float64 {
			return float64(s.mallocs) / float64(s.ops)
		})),
		"alloc_kb_per_op": summarize(perSlice(slices, func(s *sliceStat) float64 {
			return float64(s.allocBytes) / 1024 / float64(s.ops)
		})),
		"stored_per_user_byte": summarize(perSlice(slices, func(s *sliceStat) float64 { return s.stored })),
	}
}

// timings turns untraced slices into the ungated timing metrics, the
// same way: throughput, latency and CPU time repeat between runs on a
// shared machine no better than one part in ten, so they are reported
// and compared in pairs (README.md, "Bounds"), not gated.
func timings(slices []sliceStat) map[string]summary {
	return map[string]summary{
		"client.mb_per_s": summarize(perSlice(slices, func(s *sliceStat) float64 {
			return float64(s.userBytes) / 1e6 / s.wall.Seconds()
		})),
		"client.op_p50_ms":        summarize(perSlice(slices, func(s *sliceStat) float64 { return ms(durQuantile(s.lat, 0.5)) })),
		"client.op_p95_ms":        summarize(perSlice(slices, func(s *sliceStat) float64 { return ms(durQuantile(s.lat, 0.95)) })),
		"process.cpu_us_per_op":   summarize(perSlice(slices, func(s *sliceStat) float64 { return us(s.cpu) / float64(s.ops) })),
		"bsfs.bg_append_mb_per_s": summarize(perSlice(slices, func(s *sliceStat) float64 { return s.bgMBps })),
	}
}
