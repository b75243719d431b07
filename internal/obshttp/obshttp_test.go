package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/obs"
)

func TestMetricsServerEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("gc_passes").Add(2)
	reg.Op("blob.append").RecordDuration(2 * time.Millisecond)
	reg.SetGauge("client_cache_bytes", func() float64 { return 512 })
	reg.RPCClient.Method("vm.Assign").Observe(time.Millisecond, 64, nil)

	ms, err := Serve("127.0.0.1:0", Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	get := func(path string) (int, string) {
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

	if code, _ := get("/healthz"); code != http.StatusNotFound {
		t.Errorf("/healthz without a health func = %d, want 404", code)
	}

	_, prom := get("/metrics")
	for _, want := range []string{
		"blobseer_gc_passes_total 2",
		"blobseer_client_cache_bytes 512",
		`blobseer_op_latency_ms{op="blob.append",quantile="0.99"}`,
		`blobseer_rpc_calls_total{side="client",method="vm.Assign"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	_, raw := get("/metrics.json")
	var snap metrics.RegistrySnapshot
	if err := json.Unmarshal([]byte(raw), &snap); err != nil {
		t.Fatalf("/metrics.json does not decode: %v", err)
	}
	if snap.Counters["gc_passes"] != 2 || snap.Ops["blob.append"].Count != 1 || snap.Gauges["client_cache_bytes"] != 512 {
		t.Errorf("decoded snapshot = %+v", snap)
	}

	_, root := obs.StartTrace(context.Background(), "http.sample")
	root.End(nil)
	if code, body := get(fmt.Sprintf("/spans?trace=%d", root.Trace)); code != 200 || !strings.Contains(body, "http.sample") {
		t.Errorf("/spans?trace = %d %q", code, body)
	}
	if code, body := get("/spans"); code != 200 || !strings.Contains(body, "trace") {
		t.Errorf("/spans = %d %q", code, body)
	}
	if code, _ := get("/spans?trace=nonsense"); code != http.StatusBadRequest {
		t.Errorf("/spans?trace=nonsense = %d, want 400", code)
	}
}
