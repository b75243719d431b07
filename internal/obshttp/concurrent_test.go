package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"blobseer/internal/flight"
	"blobseer/internal/metrics"
	"blobseer/internal/monitor"
)

// TestEndpointsRaceArmedCollector hammers /cluster, /metrics.json, and
// /alerts while an armed watchdog's ticker collects and evaluates
// underneath — the production shape.
// The assertion is the race detector: `go test -race` must stay clean
// while every response still parses.
func TestEndpointsRaceArmedCollector(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Op("blob.append").RecordDuration(2 * time.Millisecond)

	mon := monitor.New(0)
	var counter float64
	var counterMu sync.Mutex
	mon.Register(monitor.KindProvider, "p0", func() monitor.Sample {
		counterMu.Lock()
		counter += 4096
		v := counter
		counterMu.Unlock()
		return monitor.Sample{monitor.KeyReadBytes: v}
	})
	mon.Register(monitor.KindVMShard, "vm0", func() monitor.Sample {
		return monitor.Sample{monitor.KeyJournalPending: 3}
	})

	w := flight.NewWatchdog(mon, nil, []flight.Rule{flight.RuleJournalLag(100)}, 0, nil)
	w.Arm(10 * time.Millisecond)
	defer w.Close()

	ms, err := Serve("127.0.0.1:0", Options{Registry: reg, Monitor: mon, Alerts: w.Alerts})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	paths := []string{"/cluster", "/metrics.json", "/alerts"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		for _, path := range paths {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					resp, err := http.Get("http://" + ms.Addr() + path)
					if err != nil {
						errs <- fmt.Errorf("GET %s: %w", path, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- fmt.Errorf("GET %s: read: %w", path, err)
						return
					}
					if resp.StatusCode != 200 {
						errs <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
						return
					}
					var v any
					if err := json.Unmarshal(body, &v); err != nil {
						errs <- fmt.Errorf("GET %s: parse: %w", path, err)
						return
					}
				}
			}(path)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A fast hammer can finish inside the first interval; the ticker
	// must still evaluate with nobody scraping.
	deadline := time.Now().Add(5 * time.Second)
	for w.Evals() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.Evals() == 0 {
		t.Fatal("armed watchdog never evaluated")
	}
}
