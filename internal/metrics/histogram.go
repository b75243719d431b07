package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of a power-of-two histogram: bucket 0
// holds the value 0, bucket i (1..64) holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a lock-free power-of-two bucket histogram. Recording is
// three atomic adds and a bit scan — cheap enough for every RPC on the
// hot path — and the whole histogram is ~536 bytes, so hot methods
// stay resident in cache next to the data they time. (An earlier
// striped variant traded that footprint for contention relief; the
// memnet cluster is CPU-bound long before histogram cache lines
// contend, and the 8x larger randomly-written footprint measurably
// slowed the data plane's own copies.) Snapshots read the counters
// without stopping writers. Values are dimensionless uint64s — the RPC
// plane records latencies in nanoseconds and uses LatencyQuantiles to
// report milliseconds.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// RecordDuration adds one latency observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Snapshot copies the histogram. Counters are read individually, so a
// snapshot taken while writers run may be skewed by in-flight
// observations; counts never go backwards.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// bucketBounds returns the value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, 1
	case i >= 64:
		return float64(uint64(1) << 63), math.MaxUint64
	default:
		return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
	}
}

// Mean returns the mean observed value.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the p-quantile (p in [0, 1]) by linear
// interpolation inside the covering power-of-two bucket, so the
// relative error is bounded by the bucket width.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if target <= next {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	// Unreachable unless buckets and count disagree mid-snapshot; fall
	// back to the top populated bucket's upper bound.
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			_, hi := bucketBounds(i)
			return hi
		}
	}
	return 0
}

// Max returns the upper bound of the highest populated bucket — an
// over-estimate of the true maximum by at most 2x.
func (s HistogramSnapshot) Max() float64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			_, hi := bucketBounds(i)
			return hi
		}
	}
	return 0
}

// LatencyQuantiles reports a nanosecond-valued histogram in
// milliseconds at the percentiles the paper's latency claims need.
type LatencyQuantiles struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

const nsPerMs = 1e6

// Latency summarizes a snapshot whose values are nanoseconds.
func (s HistogramSnapshot) Latency() LatencyQuantiles {
	if s.Count == 0 {
		return LatencyQuantiles{}
	}
	return LatencyQuantiles{
		Count:  s.Count,
		MeanMs: s.Mean() / nsPerMs,
		P50Ms:  s.Quantile(0.50) / nsPerMs,
		P90Ms:  s.Quantile(0.90) / nsPerMs,
		P99Ms:  s.Quantile(0.99) / nsPerMs,
		P999Ms: s.Quantile(0.999) / nsPerMs,
		MaxMs:  s.Max() / nsPerMs,
	}
}
