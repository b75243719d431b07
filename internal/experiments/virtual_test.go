//go:build goexperiment.synctest

package experiments

import (
	"runtime"
	"testing"
	"testing/synctest"
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
	defer func(old time.Duration) { sleepFloor = old }(sleepFloor)
	sleepFloor = time.Nanosecond
	for pass := 1; pass <= 2; pass++ {
		// rpc's call pool and blob's fan-out pool are sync.Pools of
		// items that hold channels. A goroutine blocked on a channel
		// made outside the bubble is not durably blocked, so an item an
		// earlier real-time test pooled would stop the fake clock. Two
		// collections empty every sync.Pool.
		runtime.GC()
		runtime.GC()
		start := time.Now()
		synctest.Run(func() {
			fig3Smoke(t)
			fig6Smoke(t)
			ablationLockedSmoke(t)
		})
		t.Logf("pass %d: %v of wall time", pass, time.Since(start).Round(time.Millisecond))
	}
}
