//go:build goexperiment.synctest

package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestVirtualTimeSmoke runs Fig 3's smoke sweep, Fig 6 at 1 and 4
// reducers and the global-lock ablation at N = 1 and 8 inside a
// synctest bubble, twice, and checks the same shapes as the real-time
// smoke tests. In a bubble the clock advances only when every goroutine
// is blocked, so a figure measures the modeled costs (NIC reservations,
// latency, the map and reduce cost models) and none of the code's CPU
// time. On one P the goroutines also run in one order, so Fig 3's and
// Fig 6's points must come out the same in both passes (the lock
// ablation's still differ, and are not compared). Run it with
// GOEXPERIMENT=synctest go test -run Virtual.
func TestVirtualTimeSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var points [2][]Point
	for pass := range points {
		start := time.Now()
		err := RunVirtual(func() {
			points[pass] = append(fig3Smoke(t), fig6Smoke(t)...)
			ablationLockedSmoke(t)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("pass %d: %v of wall time", pass+1, time.Since(start).Round(time.Millisecond))
	}
	if !reflect.DeepEqual(points[0], points[1]) {
		t.Errorf("Fig 3 and Fig 6 points differ between passes:\n%v\n%v", points[0], points[1])
	}
}
