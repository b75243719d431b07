package obshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/flight"
	"blobseer/internal/monitor"
)

func serveGet(t *testing.T, ms *MetricsServer, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + ms.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestClusterEndpoint pins /cluster: each request runs one collection
// pass and serves the derived snapshot; a server without a monitor
// answers 404.
func TestClusterEndpoint(t *testing.T) {
	mon := monitor.New(1000)
	var reads atomic.Uint64
	mon.Register(monitor.KindProvider, "prov-a", func() monitor.Sample {
		return monitor.Sample{monitor.KeyReadBytes: float64(reads.Load())}
	})

	ms, err := Serve("127.0.0.1:0", Options{Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	before := mon.Collections()
	code, body := serveGet(t, ms, "/cluster")
	if code != 200 {
		t.Fatalf("/cluster = %d %q", code, body)
	}
	if mon.Collections() != before+1 {
		t.Error("/cluster request did not trigger a collection pass")
	}
	var snap monitor.ClusterSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/cluster does not decode: %v", err)
	}
	if len(snap.Components) != 1 || snap.Components[0].Name != "prov-a" {
		t.Errorf("components = %+v", snap.Components)
	}

	bare, err := Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if code, _ := serveGet(t, bare, "/cluster"); code != http.StatusNotFound {
		t.Errorf("/cluster without monitor = %d, want 404", code)
	}
}

// TestClusterScrapeDoesNotEvaluateRules: a /cluster scrape collects
// the monitor and nothing else. With an unarmed watchdog over a shard
// whose journal lag breaches its rule, two scrapes must leave no
// evaluation, no firing alert and no snapshot event; arming the
// watchdog is what makes the rules run, with nobody scraping, and
// Close stops them.
func TestClusterScrapeDoesNotEvaluateRules(t *testing.T) {
	mon := monitor.New(0)
	mon.Register(monitor.KindVMShard, "vm-0", func() monitor.Sample {
		return monitor.Sample{monitor.KeyJournalPending: 1000}
	})
	rec, err := flight.Open(filepath.Join(t.TempDir(), "flight.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	w := flight.NewWatchdog(mon, rec, []flight.Rule{flight.RuleJournalLag(100)}, 0, nil)
	defer w.Close()

	ms, err := Serve("127.0.0.1:0", Options{Monitor: mon, Alerts: w.Alerts})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	for i := 0; i < 2; i++ {
		if code, body := serveGet(t, ms, "/cluster"); code != 200 {
			t.Fatalf("/cluster = %d %q", code, body)
		}
	}
	if mon.Collections() != 2 {
		t.Errorf("collections = %d after two scrapes, want 2", mon.Collections())
	}
	if w.Evals() != 0 || w.Firing() != 0 {
		t.Fatalf("two scrapes evaluated the rules: evals=%d firing=%d", w.Evals(), w.Firing())
	}
	snapshots := func() int {
		events, err := rec.Replay()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ev := range events {
			if ev.Kind == flight.KindSnapshot {
				n++
			}
		}
		return n
	}
	if n := snapshots(); n != 0 {
		t.Fatalf("two scrapes recorded %d snapshot events", n)
	}

	w.Arm(10 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for w.Evals() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.Evals() < 2 || w.Firing() != 1 {
		t.Fatalf("armed watchdog: evals=%d firing=%d, want >= 2 and 1", w.Evals(), w.Firing())
	}
	w.Close()
	evals := w.Evals()
	time.Sleep(30 * time.Millisecond)
	if w.Evals() != evals {
		t.Fatalf("closed watchdog still evaluating: %d -> %d", evals, w.Evals())
	}
	if n := snapshots(); uint64(n) != evals {
		t.Fatalf("%d snapshot events over %d evaluations", n, evals)
	}
}

// TestHealthzComponentReport pins the real /healthz: 200 with a JSON
// report while healthy, 503 with the failing component named once
// degraded. (TestMetricsServerEndpoints covers the unwired 404.)
func TestHealthzComponentReport(t *testing.T) {
	healthy := atomic.Bool{}
	healthy.Store(true)
	ms, err := Serve("127.0.0.1:0", Options{
		Health: func(ctx context.Context) monitor.HealthReport {
			rep := monitor.HealthReport{Healthy: true}
			rep.AddTimed("namespace", true, "", 0)
			if !healthy.Load() {
				rep.AddTimed("vmshard-0", false, "stats ping timed out", 0)
			}
			return rep
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	code, body := serveGet(t, ms, "/healthz")
	if code != 200 {
		t.Fatalf("healthy /healthz = %d", code)
	}
	var rep monitor.HealthReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/healthz does not decode: %v", err)
	}
	if !rep.Healthy || len(rep.Components) != 1 {
		t.Errorf("report = %+v", rep)
	}

	healthy.Store(false)
	code, body = serveGet(t, ms, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d, want 503", code)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || len(rep.Components) != 2 || rep.Components[1].Detail == "" {
		t.Errorf("degraded report = %+v", rep)
	}
}
