package metrics

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty p99 = %v", got)
	}
	if got := h.Snapshot().Latency(); got != (LatencyQuantiles{}) {
		t.Errorf("empty latency = %+v", got)
	}

	h.Record(100)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 100 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	// A single observation must land inside its power-of-two bucket at
	// every quantile: 100 is in [64, 128).
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := s.Quantile(p); q < 64 || q > 128 {
			t.Errorf("single-sample q%.2f = %v, want within [64,128]", p, q)
		}
	}

	// 1000 observations of 1ms plus 10 of 100ms: p50 in the 1ms bucket,
	// p999 in the tail bucket.
	var h2 Histogram
	for i := 0; i < 1000; i++ {
		h2.RecordDuration(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h2.RecordDuration(100 * time.Millisecond)
	}
	q := h2.Snapshot().Latency()
	if q.Count != 1010 {
		t.Errorf("count = %d", q.Count)
	}
	if q.P50Ms > 3 {
		t.Errorf("p50 = %vms, want ~1ms (bucket-bounded)", q.P50Ms)
	}
	if q.P999Ms < 50 {
		t.Errorf("p999 = %vms, want in the 100ms tail", q.P999Ms)
	}
	if q.MaxMs < 100 {
		t.Errorf("max = %vms, want >= 100ms", q.MaxMs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshots race with writers on purpose; counts must only grow.
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c := h.Snapshot().Count; c < last {
				t.Error("snapshot count went backwards")
				return
			} else {
				last = c
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(uint64(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if c := h.Snapshot().Count; c != workers*each {
		t.Errorf("count = %d, want %d", c, workers*each)
	}
}

func TestRPCStatsObserve(t *testing.T) {
	var s RPCStats
	s.Method("vm.Assign").Observe(2*time.Millisecond, 128, nil)
	s.Method("vm.Assign").Observe(4*time.Millisecond, 256, fmt.Errorf("boom"))
	s.Method("prov.PutPage").Observe(time.Millisecond, 64, nil)

	snap := s.Snapshot()
	m := snap["vm.Assign"]
	if m.Calls != 2 || m.Errors != 1 || m.Bytes != 384 {
		t.Errorf("vm.Assign = %+v", m)
	}
	if m.Latency.Count != 2 || m.Latency.P99Ms <= 0 {
		t.Errorf("vm.Assign latency = %+v", m.Latency)
	}
	if snap["prov.PutPage"].Calls != 1 {
		t.Errorf("prov.PutPage = %+v", snap["prov.PutPage"])
	}
}

func TestRegistrySnapshotAndPrometheus(t *testing.T) {
	r := NewRegistry()

	hits := r.Counter("read_cache_hits")
	hits.Add(2)
	r.Counter("read_cache_hits").Add(1) // the same counter, resolved again
	r.Counter("read_cache_misses").Add(1)

	r.Op("blob.append").RecordDuration(3 * time.Millisecond)
	r.SetGauge("client_cache_bytes", func() float64 { return 4096 })
	r.RPCClient.Method("vm.Assign").Observe(time.Millisecond, 100, nil)

	snap := r.Snapshot()
	if hits.Load() != 3 || snap.Counters["read_cache_hits"] != 3 || snap.Counters["read_cache_misses"] != 1 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if snap.Ops["blob.append"].Count != 1 {
		t.Errorf("ops = %+v", snap.Ops)
	}
	if snap.Gauges["client_cache_bytes"] != 4096 {
		t.Errorf("gauges = %+v", snap.Gauges)
	}

	var b strings.Builder
	snap.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE blobseer_read_cache_hits_total counter\nblobseer_read_cache_hits_total 3\n",
		"blobseer_client_cache_bytes 4096",
		`blobseer_op_latency_ms{op="blob.append",quantile="0.99"}`,
		`blobseer_rpc_calls_total{side="client",method="vm.Assign"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Exposition-format sanity: every non-comment line is "name{labels} value"
	// with a parseable float value.
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Errorf("line %q: bad value: %v", line, err)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		var v uint64
		for pb.Next() {
			v += 12345
			h.Record(v)
		}
	})
}

// BenchmarkCounterAdd is what one shared process counter costs under
// contention: every ReadStats count on the read path adds to one.
func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}
