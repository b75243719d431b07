package transport

import (
	"maps"
	"math/bits"
	"slices"
	"sync"
)

// classSteps is the number of size classes per power of two: a buffer
// is at most 12.5 % larger than the length it was made for, and a
// power-of-two length is a class of its own.
const classSteps = 8

// ClassSize returns the capacity a Recycler's owner gives a buffer for
// n bytes: n rounded up to the next of classSteps sizes per power of
// two.
func ClassSize(n int) int {
	if n < classSteps {
		return n
	}
	step := 1 << (bits.Len(uint(n)) - 1 - bits.Len(classSteps-1))
	return (n + step - 1) &^ (step - 1)
}

// Recycler is one owner's free list of long-lived buffers — a
// provider's stored pages, a tasktracker's shuffle segments and record
// writers' batches, a BSFS mount's block buffers — reused by size
// class, not exact length. T is what the owner keeps a buffer in:
// the []byte itself, or a struct that carries it and is reused with it.
//
// A Take is served from n's class, else from the smallest free class
// up to twice n's class size, so a reused buffer's capacity is at most
// 2 × ClassSize(n) (at most 2.25 × n); a fresh buffer is at most
// 12.5 % over n. Reaching up one octave lets scattered lengths — the
// shuffle's fragments — share the memory of longer freed buffers.
//
// Bound: the capacity on the free list plus the capacity the owner
// holds (taken, and not given back or forgotten) never exceeds the most
// the owner ever held, so an owner never holds more memory than it did
// at its busiest, and there is no knob. A reuse moves capacity from
// free to held; a fresh Take evicts free items of other classes,
// smallest class first, until the bound holds.
//
// The zero Recycler is empty and ready; it is safe for concurrent use.
type Recycler[T any] struct {
	mu   sync.Mutex
	free map[int][]T // free items by class size
	st   RecycleStats
}

// RecycleStats is a Recycler's accounting: the capacity held, free and
// at most ever held, and the Takes that found a free buffer or did not.
type RecycleStats struct {
	Held, Free, Peak int64
	Reused, Fresh    uint64
}

// Take returns a free item for n bytes, counted as held from now on:
// one whose buffer has n's class size, else the smallest free one of a
// class up to twice that, whose capacity the caller slices to n. ok is
// false when no class in that range has one: the caller makes a buffer
// of ClassSize(n) bytes' capacity, which is counted as held already,
// and item is the last free item evicted to make room, or the zero T;
// the caller drops its buffer and may reuse the rest.
func (r *Recycler[T]) Take(n int) (item T, ok bool) {
	c := ClassSize(n)
	r.mu.Lock()
	defer r.mu.Unlock()
	for size := c; size <= 2*c; size = ClassSize(size + 1) {
		if len(r.free[size]) > 0 {
			r.st.Held += int64(size)
			r.st.Reused++
			return r.pop(size), true
		}
	}
	r.st.Held += int64(c)
	r.st.Fresh++
	r.st.Peak = max(r.st.Peak, r.st.Held)
	if r.st.Held+r.st.Free <= r.st.Peak {
		return item, false
	}
	// Smallest classes first, in a fixed order, so which buffers an
	// owner keeps does not change from run to run with map order.
	for _, size := range slices.Sorted(maps.Keys(r.free)) {
		for len(r.free[size]) > 0 && r.st.Held+r.st.Free > r.st.Peak {
			item = r.pop(size)
		}
	}
	return item, false
}

// TakeBytes is Take on a free list of plain buffers: an empty buffer
// with room for n bytes, a free one if Take finds one, else a fresh one
// of ClassSize(n).
func TakeBytes(r *Recycler[[]byte], n int) []byte {
	if b, ok := r.Take(n); ok {
		return b[:0]
	}
	return make([]byte, 0, ClassSize(n))
}

// pop removes the newest free item of class size, under mu.
func (r *Recycler[T]) pop(size int) T {
	s := r.free[size]
	item := s[len(s)-1]
	s[len(s)-1] = *new(T)
	r.free[size] = s[:len(s)-1]
	r.st.Free -= int64(size)
	return item
}

// Give puts item, whose buffer is buf, on the free list. buf's capacity
// is the class size it was made with, and it is poisoned first (see
// PoisonReleased): the owner must not touch it until Take hands it out
// again.
func (r *Recycler[T]) Give(item T, buf []byte) {
	Poison(buf)
	c := cap(buf)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.free == nil {
		r.free = make(map[int][]T)
	}
	r.free[c] = append(r.free[c], item)
	r.st.Free += int64(c)
	r.st.Held -= int64(c)
}

// Forget stops counting buf as held: its owner leaves it to the
// garbage collector (a page a reader still pins when it is deleted).
func (r *Recycler[T]) Forget(buf []byte) {
	r.mu.Lock()
	r.st.Held -= int64(cap(buf))
	r.mu.Unlock()
}

// Clear gives the free list back to the garbage collector.
func (r *Recycler[T]) Clear() {
	r.mu.Lock()
	clear(r.free)
	r.st.Free = 0
	r.mu.Unlock()
}

// Stats returns the recycler's accounting.
func (r *Recycler[T]) Stats() RecycleStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// FreeList is a concurrency-safe stack of one owner's reused items
// that, unlike a Recycler's, have no buffer to size by. Neither a
// collection nor a race build drops what it holds: at most the most
// items its owner had out at once, since only a taken item goes back.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Take pops the item given back last, or returns fresh() if there is none.
func (l *FreeList[T]) Take(fresh func() *T) *T {
	l.mu.Lock()
	if k := len(l.free) - 1; k >= 0 {
		item := l.free[k]
		l.free, l.free[k] = l.free[:k], nil
		l.mu.Unlock()
		return item
	}
	l.mu.Unlock()
	return fresh()
}

// Give puts item back; its owner must not touch it until Take returns it.
func (l *FreeList[T]) Give(item *T) {
	l.mu.Lock()
	l.free = append(l.free, item)
	l.mu.Unlock()
}
