package experiments

import (
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
	s := Summarize(samples)
	if s.N != 4 {
		t.Errorf("N = %d", s.N)
	}
	if s.MeanMBps != 2.5 {
		t.Errorf("mean = %v", s.MeanMBps)
	}
	if s.MedianMBps != 2.5 {
		t.Errorf("median = %v", s.MedianMBps)
	}
	if s.TotalBytes != 8<<20 {
		t.Errorf("bytes = %d", s.TotalBytes)
	}
	if z := Summarize(nil); z.N != 0 || z.MeanMBps != 0 {
		t.Errorf("empty summary = %+v", z)
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
