package monitor

import (
	"fmt"
	"testing"
	"time"

	"blobseer/internal/metrics"
)

// sample builds a source's snapshot from its counters and gauges.
func sample(counters map[string]uint64, gauges map[string]float64) metrics.RegistrySnapshot {
	return metrics.RegistrySnapshot{Counters: counters, Gauges: gauges}
}

func TestEWMA(t *testing.T) {
	e := &ewma{}
	if got := e.observe(100, 1, 5); got != 0 {
		t.Fatalf("priming observation returned %v", got)
	}
	// Steady 10/s counter: the EWMA converges toward 10 from below.
	v, prev := 100.0, 0.0
	for i := 0; i < 50; i++ {
		v += 10
		r := e.observe(v, 1, 5)
		if r < prev {
			t.Fatalf("rate fell during steady growth: %v -> %v", prev, r)
		}
		prev = r
	}
	if prev < 9.5 || prev > 10.001 {
		t.Fatalf("steady rate = %v, want ~10", prev)
	}
	// Counter reset (component restart) clamps to zero delta instead of
	// producing a huge negative rate.
	if r := e.observe(5, 1, 5); r < 0 || r > prev {
		t.Fatalf("rate after reset = %v", r)
	}
	// dt <= 0 is a no-op returning the current rate.
	cur := e.rate
	if r := e.observe(6, 0, 5); r != cur {
		t.Fatalf("dt=0 observation changed rate: %v != %v", r, cur)
	}
}

// testClock is an injectable monitor clock.
func testClock(m *Monitor) func(time.Duration) {
	now := time.Unix(5000, 0)
	m.now = func() time.Time { return now }
	return func(d time.Duration) { now = now.Add(d) }
}

// TestCollectAndSnapshot drives two fake providers and a vmshard
// through collections with an injected clock and checks every derived
// quantity: per-second rates, NIC utilization, replica imbalance,
// journal lag, snapshot age.
func TestCollectAndSnapshot(t *testing.T) {
	m := New(1000)
	advance := testClock(m)

	var hot, cold uint64
	m.Register(KindProvider, "prov-hot", func() metrics.RegistrySnapshot {
		return sample(map[string]uint64{KeyReadBytes: hot}, map[string]float64{"pages": 3})
	})
	m.Register(KindProvider, "prov-cold", func() metrics.RegistrySnapshot {
		return sample(map[string]uint64{KeyReadBytes: cold}, nil)
	})
	m.Register(KindVMShard, "shard-0", func() metrics.RegistrySnapshot {
		return sample(nil, map[string]float64{KeyJournalPending: 7})
	})

	m.CollectOnce() // primes the rate trackers
	// 60 seconds at 900 B/s hot, 100 B/s cold: twelve 5s half-lives
	// bring the EWMA within a fraction of a percent of the true rate.
	for i := 0; i < 60; i++ {
		advance(time.Second)
		hot += 900
		cold += 100
		m.CollectOnce()
	}

	snap := m.Snapshot()
	if snap.Collections != 61 {
		t.Errorf("collections = %d", snap.Collections)
	}
	if snap.AgeMs != 0 {
		t.Errorf("age = %dms", snap.AgeMs)
	}
	if snap.MaxJournalLag != 7 {
		t.Errorf("journal lag = %v", snap.MaxJournalLag)
	}

	byName := make(map[string]ComponentSnapshot)
	for _, c := range snap.Components {
		byName[c.Name] = c
	}
	h := byName["prov-hot"]
	if r := h.Rates["read_bytes_per_sec"]; r < 890 || r > 900 {
		t.Errorf("hot read rate = %v, want ~900", r)
	}
	if h.Utilization < 0.89 || h.Utilization > 0.9 {
		t.Errorf("hot utilization = %v, want ~0.9", h.Utilization)
	}
	if h.Samples != 61 {
		t.Errorf("samples = %d, want one per collection", h.Samples)
	}
	if h.Gauges["pages"] != 3 {
		t.Errorf("gauges = %v", h.Gauges)
	}
	if _, leaked := h.Gauges[KeyReadBytes]; leaked {
		t.Error("counter leaked into gauges")
	}
	if _, rated := h.Rates["pages_per_sec"]; rated {
		t.Error("gauge reported as a rate")
	}
	// max/mean with rates {900, 100} is 900/500 = 1.8.
	if snap.ReplicaImbalance < 1.75 || snap.ReplicaImbalance > 1.85 {
		t.Errorf("imbalance = %v, want ~1.8", snap.ReplicaImbalance)
	}

	advance(3 * time.Second)
	if age := m.Snapshot().AgeMs; age != 3000 {
		t.Errorf("age 3s after the last collection = %dms", age)
	}
}

func TestRegisterUnregister(t *testing.T) {
	m := New(0)
	s1 := m.Register(KindClient, "c1", func() metrics.RegistrySnapshot { return sample(nil, map[string]float64{"x": 1}) })
	s2 := m.Register(KindClient, "c2", func() metrics.RegistrySnapshot { return sample(nil, map[string]float64{"x": 2}) })
	m.CollectOnce()
	if got := len(m.Snapshot().Components); got != 2 {
		t.Fatalf("components = %d", got)
	}
	s1.Unregister()
	s1.Unregister() // idempotent
	if got := m.Snapshot().Components; len(got) != 1 || got[0].Name != "c2" {
		t.Fatalf("components after unregister = %+v", got)
	}
	s2.Unregister()
	// An empty snapshot skips the source for this pass without
	// unregistering.
	m.Register(KindClient, "c3", func() metrics.RegistrySnapshot { return metrics.RegistrySnapshot{} })
	m.CollectOnce()
	if got := m.Snapshot().Components[0].Samples; got != 0 {
		t.Fatalf("nil-sample source recorded %d samples", got)
	}
}

func BenchmarkMonitorCollect(b *testing.B) {
	m := New(1e9)
	for i := 0; i < 64; i++ {
		i := i
		m.Register(KindProvider, fmt.Sprintf("prov-%03d", i), func() metrics.RegistrySnapshot {
			return sample(map[string]uint64{
				KeyReadBytes:  uint64(i * 1000),
				KeyWriteBytes: uint64(i * 500),
			}, map[string]float64{"pages": float64(i)})
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CollectOnce()
	}
}

func BenchmarkMonitorSnapshot(b *testing.B) {
	m := New(1e9)
	for i := 0; i < 64; i++ {
		i := i
		m.Register(KindProvider, fmt.Sprintf("prov-%03d", i), func() metrics.RegistrySnapshot {
			return sample(map[string]uint64{KeyReadBytes: uint64(i * 1000)}, nil)
		})
	}
	m.CollectOnce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Snapshot()
	}
}
