package transport

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The frame pool recycles the buffers rpc frames are marshalled into
// and (on tcpnet) received into, so a page crossing a hop costs at most
// the copy that has to outlive the frame, not one per frame; and that
// copy is recycled too — the provider's page store reuses the memory
// of the pages it drops, the page cache gives evicted frames back here.
// The frame pool is process-wide and capped per class, for short-lived
// frames; a buffer that lives as long as its owner wants it (a stored
// page, a reducer's shuffle segment) goes back to that owner's own
// Recycler instead, bounded by the owner's peak (recycle.go).
//
// Ownership is linear. NewFrame hands a frame to its caller;
// Conn.Send passes it to the transport and Conn.Recv to the receiver;
// whoever holds a frame last either calls ReleaseFrame exactly once or
// abandons it to the garbage collector. Releasing a buffer that did not
// come from NewFrame is allowed: it is filed under its capacity or
// dropped. The page cache holds pooled frames too: each cached page is
// a frame of its own, released when the page has left the cache and
// its last reader is done.
//
// Class c holds buffers of at least 2^(frameMinShift+c)+frameSlack
// bytes: a power-of-two page plus the rpc header and the fixed fields
// in front of it fit the page's own class with no doubling.
const (
	frameSlack    = 128
	frameMinShift = 8  // smallest class: 256 B + slack
	frameMaxShift = 20 // largest class: 1 MiB + slack; bigger frames are not pooled
	frameClasses  = frameMaxShift - frameMinShift + 1
	// frameClassBytes bounds what one class retains, so an idle pool
	// holds at most frameClasses × 2 MiB.
	frameClassBytes = 2 << 20
)

type frameClass struct {
	mu   sync.Mutex
	free [][]byte
}

var framePool [frameClasses]frameClass

func frameClassSize(c int) int { return 1<<(frameMinShift+c) + frameSlack }

// NewFrame returns an empty frame with room for at least n bytes.
func NewFrame(n int) []byte {
	c := 0
	if body := n - frameSlack; body > 1<<frameMinShift {
		c = bits.Len(uint(body-1)) - frameMinShift
	}
	if c >= frameClasses {
		return make([]byte, 0, n)
	}
	fc := &framePool[c]
	fc.mu.Lock()
	if k := len(fc.free); k > 0 {
		b := fc.free[k-1]
		fc.free[k-1] = nil
		fc.free = fc.free[:k-1]
		fc.mu.Unlock()
		return b
	}
	fc.mu.Unlock()
	return make([]byte, 0, frameClassSize(c))
}

// ReleaseFrame returns a frame nobody references any more to the pool.
// The caller must not touch b afterwards.
func ReleaseFrame(b []byte) {
	body := cap(b) - frameSlack
	if body < 1<<frameMinShift {
		return
	}
	c := bits.Len(uint(body)) - 1 - frameMinShift
	if c >= frameClasses {
		return
	}
	Poison(b)
	keep := frameClassBytes / frameClassSize(c)
	fc := &framePool[c]
	fc.mu.Lock()
	if len(fc.free) < keep {
		fc.free = append(fc.free, b[:0])
	}
	fc.mu.Unlock()
}

// poisonReleased is the use-after-release detector's switch.
var poisonReleased atomic.Bool

// PoisonReleased makes every buffer handed back for reuse — released
// frames here, the bsfs writer's recycled block buffers and the page
// store's freed pages — be
// overwritten with 0xDB first, so a reader of released memory sees
// garbage at once instead of whatever the next owner writes. It exists
// for tests (TestMain switches it on) and is always on under the race
// detector; it is not a tuning knob.
//
//lint:unusedexport test hook: TestMain of every package that recycles frames
func PoisonReleased(on bool) { poisonReleased.Store(on) }

// Poison overwrites the whole capacity of b with 0xDB when
// PoisonReleased is on.
func Poison(b []byte) {
	if !poisonReleased.Load() {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}
