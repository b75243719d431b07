package transport

import (
	"maps"
	"runtime"
	"slices"
	"testing"
)

// TestClassSize: a power of two is its own class, no class is more
// than 12.5 % over the lengths it serves, and classes grow with n.
func TestClassSize(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 256, 4096, 64 << 10, 1 << 20, 4 << 20} {
		if c := ClassSize(n); c != n {
			t.Errorf("ClassSize(%d) = %d, want it exact", n, c)
		}
	}
	prev := 0
	for n := 257; n <= 1<<20; n++ {
		c := ClassSize(n)
		if c < n || c < prev || 8*(c-n) > n {
			t.Fatalf("ClassSize(%d) = %d (previous class %d): over 12.5 %% slack or out of order", n, c, prev)
		}
		prev = c
	}
	// Eight classes per power of two.
	classes := map[int]bool{}
	for n := 1<<16 + 1; n <= 1<<17; n++ {
		classes[ClassSize(n)] = true
	}
	if len(classes) != classSteps {
		t.Errorf("%d classes between 64 KiB and 128 KiB, want %d", len(classes), classSteps)
	}
}

// take is what a []byte owner does with Take: a free buffer of n's
// class, or a fresh one.
func take(r *Recycler[[]byte], n int) []byte {
	b, ok := r.Take(n)
	if !ok {
		b = make([]byte, 0, ClassSize(n))
	}
	return b[:n]
}

// TestRecyclerSharesClass: a buffer freed by one length holds the next
// buffer of any length in its class, and is poisoned meanwhile.
func TestRecyclerSharesClass(t *testing.T) {
	was := poisonReleased.Load()
	defer PoisonReleased(was)
	PoisonReleased(true)

	var r Recycler[[]byte]
	a := take(&r, 1000)
	a[0] = 'a'
	r.Give(a, a)
	if a[0] != 0xDB {
		t.Errorf("a given buffer reads %#x, want it poisoned", a[0])
	}
	b := take(&r, 1020) // 1000 and 1020 are both of class 1024
	if &b[0] != &a[0] || cap(b) != 1024 {
		t.Errorf("a 1020-byte take got a %d-byte buffer of its own, want the freed 1000-byte one", cap(b))
	}
	c := take(&r, 900) // class 960
	if &c[0] == &b[0] {
		t.Error("one buffer handed out twice")
	}
	if st := r.Stats(); st.Reused != 1 || st.Fresh != 2 || st.Held != 1024+960 || st.Free != 0 {
		t.Errorf("stats %+v, want 1 reused, 2 fresh, 1984 held, none free", st)
	}
}

// TestRecyclerBound: capacity free plus capacity held never exceeds
// the most ever held; a take whose class is empty evicts free buffers
// of other classes until it holds, and returns the last one evicted.
func TestRecyclerBound(t *testing.T) {
	var r Recycler[[]byte]
	check := func(step string) RecycleStats {
		t.Helper()
		st := r.Stats()
		if st.Held+st.Free > st.Peak {
			t.Fatalf("%s: %d held + %d free > peak %d", step, st.Held, st.Free, st.Peak)
		}
		return st
	}
	// Four buffers of class 4608 (for 4500 bytes) and four of 1024.
	var bufs [][]byte
	for i := 0; i < 4; i++ {
		bufs = append(bufs, take(&r, 4500), take(&r, 1000))
		check("fill")
	}
	const peak = 4*4608 + 4*1024
	for _, b := range bufs {
		r.Give(b, b)
		check("give")
	}
	if st := check("given"); st.Held != 0 || st.Free != peak || st.Peak != peak {
		t.Fatalf("stats %+v, want everything free at peak %d", st, peak)
	}

	// A fresh 8 KiB buffer makes room by evicting at least 8 KiB of
	// the other classes, and no more than it must.
	evicted, ok := r.Take(8 << 10)
	if ok || evicted == nil {
		t.Fatalf("an 8 KiB take from a list without its class: ok %v, evicted %d bytes", ok, cap(evicted))
	}
	st := check("fresh")
	if st.Held != 8<<10 || st.Free < peak-(8<<10)-4608 || st.Peak != peak {
		t.Errorf("stats %+v after a fresh 8 KiB buffer at peak %d", st, peak)
	}
	if st.Fresh != 9 || st.Reused != 0 {
		t.Errorf("%d fresh and %d reused takes, want 9 and 0", st.Fresh, st.Reused)
	}

	// The fresh buffer, given back, holds the next take of its class,
	// 8000 bytes; a forgotten buffer stops counting as held.
	fresh := make([]byte, 8<<10)
	r.Give(fresh, fresh)
	b, ok := r.Take(8000)
	if !ok || &b[:1][0] != &fresh[0] {
		t.Fatal("an 8000-byte take did not reuse the freed 8 KiB buffer")
	}
	r.Forget(b)
	if st := check("forget"); st.Held != 0 || st.Reused != 1 {
		t.Errorf("stats %+v after forgetting the one buffer held, want none held and 1 reuse", st)
	}
	r.Clear()
	if st := check("clear"); st.Free != 0 {
		t.Errorf("%d bytes free after Clear", st.Free)
	}
}

// TestRecyclerReachesOneOctave: a take whose class is empty gets the
// smallest free class up to twice its class size, counted as held at
// that capacity, and never a class above it.
func TestRecyclerReachesOneOctave(t *testing.T) {
	var r Recycler[[]byte]
	// Free buffers of classes 1152, 1536, 2048 and 2304.
	var bufs [][]byte
	for _, n := range []int{1100, 1500, 2000, 2300} {
		bufs = append(bufs, take(&r, n))
	}
	const peak = 1152 + 1536 + 2048 + 2304
	for _, b := range bufs {
		r.Give(b, b)
	}
	held := int64(0)
	for i, want := range []int{1152, 1536, 2048} {
		b, ok := r.Take(1000) // class 1024: reaches up to 2048
		if !ok || cap(b) != want || &b[:1][0] != &bufs[i][0] {
			t.Fatalf("take %d of 1000 bytes: ok %v, a %d-byte buffer, want the freed %d-byte one", i, ok, cap(b), want)
		}
		held += int64(want)
		if st := r.Stats(); st.Held != held || st.Free != peak-held || st.Peak != peak || st.Reused != uint64(i+1) {
			t.Fatalf("stats %+v after reusing a %d-byte buffer, want %d held, %d free, peak %d", st, want, held, peak-held, peak)
		}
	}
	// Only the 2304-byte buffer is free, more than an octave above
	// class 1024: the take is fresh, and evicts it to keep the bound.
	evicted, ok := r.Take(1000)
	if ok || cap(evicted) != 2304 {
		t.Fatalf("a 1000-byte take beside a free 2304-byte buffer: ok %v, evicted %d bytes", ok, cap(evicted))
	}
	st := r.Stats()
	if st.Held != held+1024 || st.Free != 0 || st.Peak != peak || st.Fresh != 5 || st.Reused != 3 {
		t.Errorf("stats %+v after a fresh 1000-byte take, want %d held, none free, peak %d, 5 fresh, 3 reused", st, held+1024, peak)
	}
	if st.Held+st.Free > st.Peak {
		t.Errorf("%d held + %d free > peak %d", st.Held, st.Free, st.Peak)
	}
}

// freeClasses lists the class of every free item, smallest first.
func freeClasses(r *Recycler[[]byte]) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for _, size := range slices.Sorted(maps.Keys(r.free)) {
		for range r.free[size] {
			out = append(out, size)
		}
	}
	return out
}

// TestRecyclerEvictsSmallestFirst: a fresh take evicts the smallest free
// classes first, so the same Take/Give sequence leaves the same free
// list every time, whatever order the map ranges in; and a take that
// evicts nothing allocates nothing.
func TestRecyclerEvictsSmallestFirst(t *testing.T) {
	run := func() (*Recycler[[]byte], []byte) {
		var r Recycler[[]byte]
		var bufs [][]byte
		for _, n := range []int{1000, 1500, 2000, 3000, 4000, 6000} {
			bufs = append(bufs, take(&r, n))
		}
		for _, b := range bufs {
			r.Give(b, b)
		}
		// Class 10240, none free within an octave of it: 17920 bytes
		// free at peak 17920 must drop to 7680.
		evicted, ok := r.Take(10000)
		if ok {
			t.Fatal("a 10000-byte take reused a buffer")
		}
		return &r, evicted
	}
	r, evicted := run()
	if got := freeClasses(r); !slices.Equal(got, []int{6144}) || cap(evicted) != 4096 {
		t.Fatalf("free classes %v after evicting, last evicted %d bytes; want [6144] and 4096", got, cap(evicted))
	}
	for i := 0; i < 20; i++ {
		if r2, _ := run(); !slices.Equal(freeClasses(r2), freeClasses(r)) {
			t.Fatalf("run %d left free classes %v, the first %v", i, freeClasses(r2), freeClasses(r))
		}
	}

	if allocs := testing.AllocsPerRun(100, func() {
		b, _ := r.Take(6000)
		r.Give(b, b)
	}); allocs != 0 {
		t.Errorf("a reusing take allocates %.0f objects", allocs)
	}
	var empty Recycler[[]byte]
	if allocs := testing.AllocsPerRun(100, func() { empty.Take(1000) }); allocs != 0 {
		t.Errorf("a fresh take that evicts nothing allocates %.0f objects", allocs)
	}
}

// TestFreeListKeepsWhatItIsGiven: every item given back is taken again,
// the last one given first, across collections and under the race
// detector (where a sync.Pool drops a quarter of its Puts), so an owner
// makes only as many items as it ever had out at once, and the list
// holds no more than that.
func TestFreeListKeepsWhatItIsGiven(t *testing.T) {
	var l FreeList[int]
	made := 0
	fresh := func() *int { made++; return new(int) }
	var last *int
	for round := 0; round < 200; round++ {
		a, b := l.Take(fresh), l.Take(fresh)
		l.Give(a)
		l.Give(b)
		last = b
		if round%50 == 0 {
			runtime.GC()
		}
	}
	if made != 2 || len(l.free) != 2 {
		t.Fatalf("two items out at a time: made %d, %d free; want 2 and 2", made, len(l.free))
	}
	if got := l.Take(fresh); got != last {
		t.Errorf("Take returned %p, want %p, the item given last", got, last)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Give(l.Take(fresh)) }); allocs != 0 {
		t.Errorf("a take and give of a free item allocates %.0f objects", allocs)
	}
}
