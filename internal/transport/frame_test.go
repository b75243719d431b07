package transport

import (
	"bytes"
	"testing"
)

// drainFramePool empties every class so a test starts from a known
// pool whatever ran before it.
func drainFramePool() {
	for c := range framePool {
		framePool[c].mu.Lock()
		framePool[c].free = nil
		framePool[c].mu.Unlock()
	}
}

func TestFramePoolClasses(t *testing.T) {
	drainFramePool()
	for _, n := range []int{0, 1, 64, 384, 385, 4096, 64<<10 + 100, 64<<10 + frameSlack, 64<<10 + frameSlack + 1, 1<<20 + frameSlack} {
		b := NewFrame(n)
		if len(b) != 0 || cap(b) < n {
			t.Fatalf("NewFrame(%d): len %d cap %d", n, len(b), cap(b))
		}
		// A power-of-two page plus its headers must not double.
		if n > 1<<frameMinShift && cap(b) >= 2*n {
			t.Errorf("NewFrame(%d) took a %d-byte buffer", n, cap(b))
		}
		ReleaseFrame(b)
		again := NewFrame(n)
		if &again[:1][0] != &b[:1][0] {
			t.Errorf("NewFrame(%d) after a release did not reuse the frame", n)
		}
	}
	// Beyond the largest class: plain allocation, dropped on release.
	big := NewFrame(4 << 20)
	if cap(big) != 4<<20 {
		t.Errorf("oversize frame has cap %d", cap(big))
	}
	ReleaseFrame(big)
	ReleaseFrame(nil)
	ReleaseFrame(make([]byte, 10)) // too small for any class
}

// A buffer that did not come from NewFrame (append grew a frame, or a
// caller built its own) is filed under the largest class it can serve.
func TestFramePoolForeignBuffer(t *testing.T) {
	drainFramePool()
	foreign := make([]byte, 100, 73728) // what append makes of 64 KiB + a header
	ReleaseFrame(foreign)
	b := NewFrame(64<<10 + 64)
	if &b[:1][0] != &foreign[0] {
		t.Error("a 72 KiB buffer was not reused for a 64 KiB page frame")
	}
	if len(b) != 0 {
		t.Errorf("reused frame has len %d", len(b))
	}
}

func TestFramePoolIsBounded(t *testing.T) {
	drainFramePool()
	const n = 64<<10 + 64
	limit := frameClassBytes / (64<<10 + frameSlack)
	for i := 0; i < limit+10; i++ {
		ReleaseFrame(make([]byte, 0, 64<<10+frameSlack))
	}
	got := 0
	for len(framePool[16-frameMinShift].free) > 0 {
		NewFrame(n)
		got++
	}
	if got != limit {
		t.Errorf("class kept %d frames, want %d", got, limit)
	}
}

func TestPoisonReleased(t *testing.T) {
	drainFramePool()
	was := poisonReleased.Load()
	defer PoisonReleased(was)

	PoisonReleased(true)
	b := append(NewFrame(1000), bytes.Repeat([]byte{7}, 1000)...)
	stale := b
	ReleaseFrame(b)
	for i, v := range stale[:cap(stale)] {
		if v != 0xDB {
			t.Fatalf("byte %d of a released frame is %#x, want 0xDB", i, v)
		}
	}

	PoisonReleased(false)
	b = append(NewFrame(1000), bytes.Repeat([]byte{7}, 1000)...)
	stale = b
	ReleaseFrame(b)
	if stale[0] != 7 {
		t.Error("frame poisoned with the switch off")
	}
}
