//go:build goexperiment.synctest

package experiments

import (
	"runtime"
	"testing/synctest"
	"time"
)

// RunVirtual runs fn inside a testing/synctest bubble, where the clock
// moves only when every goroutine in it is blocked: a scenario run
// there measures its modeled costs (NIC reservations, latency, the map
// and reduce cost models) and none of the code's CPU time. Every
// shaped network sleeps from 1 ns up meanwhile, since in a bubble only
// a sleep advances the clock. fn reports through what it captures.
func RunVirtual(fn func()) error {
	defer func(old time.Duration) { sleepFloor = old }(sleepFloor)
	sleepFloor = time.Nanosecond
	// rpc's call pool and blob's fan-out pool are sync.Pools of items
	// that hold channels. A goroutine blocked on a channel made outside
	// the bubble is not durably blocked, so an item pooled by earlier
	// real-time work would stop the fake clock. Two collections empty
	// every sync.Pool.
	runtime.GC()
	runtime.GC()
	synctest.Run(fn)
	return nil
}
