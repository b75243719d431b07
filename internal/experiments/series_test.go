package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSampleMBps(t *testing.T) {
	s := Sample{Bytes: 1 << 20, Duration: time.Second}
	if got := s.MBps(); got != 1 {
		t.Errorf("MBps = %v", got)
	}
	s = Sample{Bytes: 1 << 20, Duration: 0}
	if got := s.MBps(); got != 0 {
		t.Errorf("zero-duration MBps = %v", got)
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Record(1024, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := len(m.Samples()); got != 800 {
		t.Errorf("samples = %d", got)
	}
}

func TestSummarize(t *testing.T) {
	samples := []Sample{
		{Bytes: 1 << 20, Duration: time.Second},     // 1 MB/s
		{Bytes: 2 << 20, Duration: time.Second},     // 2 MB/s
		{Bytes: 3 << 20, Duration: time.Second},     // 3 MB/s
		{Bytes: 2 << 20, Duration: time.Second / 2}, // 4 MB/s
	}
	var s Series
	s.AddSamples(7, samples)
	s.AddSamples(8, nil)
	p := s.Points[0]
	if p.X != 7 || p.Y != 2.5 {
		t.Errorf("point = %+v, want the mean 2.5 at x = 7", p)
	}
	// p5 = 1.15 and p95 = 3.85: the error is half their spread.
	if math.Abs(p.Err-1.35) > 1e-9 {
		t.Errorf("err = %v, want 1.35", p.Err)
	}
	if z := s.Points[1]; z != (Point{X: 8}) {
		t.Errorf("empty sample set = %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if p := percentile(vals, 0.5); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(vals, 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := percentile(vals, 1); p != 5 {
		t.Errorf("p100 = %v", p)
	}
	if p := percentile([]float64{7}, 0.9); p != 7 {
		t.Errorf("single = %v", p)
	}
}

func TestTable(t *testing.T) {
	a := &Series{Name: "bsfs", XLabel: "clients", YLabel: "MB/s"}
	a.Add(1, 100, 0)
	a.Add(2, 90, 0)
	b := &Series{Name: "hdfs", XLabel: "clients", YLabel: "MB/s"}
	b.Add(1, 95, 0)
	out := Table("Fig X", a, b)
	if !strings.Contains(out, "# Fig X") || !strings.Contains(out, "bsfs") {
		t.Errorf("table:\n%s", out)
	}
	// Missing cell renders as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing cell marker absent:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	s := &Series{Name: "x", XLabel: "n", YLabel: "v"}
	s.Add(1, 2, 0.5)
	out := CSV(s)
	if !strings.Contains(out, "1,2,0.5") {
		t.Errorf("csv:\n%s", out)
	}
}
