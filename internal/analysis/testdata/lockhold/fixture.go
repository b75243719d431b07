// Package fixture exercises the lockhold analyzer.
package fixture

import (
	"sync"
	"time"

	"blobseer/internal/kvlog"
)

type guarded struct {
	mu sync.Mutex
	ch chan int
}

func (g *guarded) sleepUnderLock() {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while g.mu is held"
	g.mu.Unlock()
}

// sleepAfterUnlock blocks only once the lock is released.
func (g *guarded) sleepAfterUnlock() {
	g.mu.Lock()
	g.mu.Unlock()
	time.Sleep(time.Millisecond)
}

func (g *guarded) sendUnderDeferredUnlock() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch <- 1 // want "channel send"
}

func (g *guarded) receiveUnderLock() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want "channel receive"
}

// nonBlockingSelect cannot block: the default arm bails out.
func (g *guarded) nonBlockingSelect() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case g.ch <- 1:
	default:
	}
}

func (g *guarded) blockingSelect() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	select { // want "blocking select"
	case v := <-g.ch:
		return v
	}
}

func (g *guarded) waitUnderLock(wg *sync.WaitGroup) {
	g.mu.Lock()
	wg.Wait() // want "Wait call"
	g.mu.Unlock()
}

func (g *guarded) compactUnderLock(kv *kvlog.Store) {
	g.mu.Lock()
	defer g.mu.Unlock()
	kv.CompactIfDead(1 << 20) // want "kvlog CompactIfDead while g.mu is held"
}

// condWait is the one Wait that REQUIRES the lock held.
func (g *guarded) condWait(c *sync.Cond) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c.Wait()
}

// literalOwnsItsScope: the closure is a separate scope — no lock is
// held when it eventually runs.
func (g *guarded) literalOwnsItsScope() func() {
	g.mu.Lock()
	defer g.mu.Unlock()
	return func() {
		time.Sleep(time.Millisecond)
	}
}

func (g *guarded) justified() {
	g.mu.Lock()
	defer g.mu.Unlock()
	//lint:lockhold fixture demonstrates a WAL-ordering justification
	time.Sleep(time.Millisecond)
}
