//go:build goexperiment.synctest

package experiments

import (
	"testing"
	"time"
)

// TestVirtualTimeSmoke runs Fig 3's smoke sweep, Fig 6 at 1 and 4
// reducers and the global-lock ablation at N = 1 and 8 inside a
// synctest bubble, twice, and checks the same shapes as the real-time
// smoke tests. In a bubble the clock advances only when every goroutine
// is blocked, so a figure measures the modeled costs (NIC reservations,
// latency, the map and reduce cost models) and none of the code's CPU
// time. Run it with GOEXPERIMENT=synctest go test -run Virtual.
func TestVirtualTimeSmoke(t *testing.T) {
	for pass := 1; pass <= 2; pass++ {
		start := time.Now()
		err := RunVirtual(func() {
			fig3Smoke(t)
			fig6Smoke(t)
			ablationLockedSmoke(t)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("pass %d: %v of wall time", pass, time.Since(start).Round(time.Millisecond))
	}
}
