package cache

import (
	"context"
	"sync"

	"blobseer/internal/metrics"
)

// Readahead keeps up to depth page fetches in flight ahead of one
// sequential reader stream. The reader calls Observe after consuming a
// page; Readahead schedules asynchronous fetches of the pages just
// ahead of it, bounded by the stream length, never blocking the
// reader: when all depth slots are busy, scheduling simply stops until
// a fetch finishes.
//
// The fetch callback is expected to warm a shared Cache (its result is
// discarded), so the reader's next synchronous access hits the cache
// instead of a provider. Fetches run on ctx; Close cancels it and
// waits for in-flight fetches to drain, so a closed reader stops
// consuming cache budget and provider bandwidth.
type Readahead struct {
	depth  int
	fetch  func(ctx context.Context, page uint64)
	stats  *metrics.ReadStats // never nil
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	next   uint64 // lowest page not yet scheduled
	primed bool   // next is meaningful (first Observe happened)
	closed bool
}

// NewReadahead returns a scheduler running fetches on ctx. depth <= 0
// returns nil, which every method accepts as "readahead disabled".
// stats may be nil.
func NewReadahead(ctx context.Context, depth int, stats *metrics.ReadStats, fetch func(ctx context.Context, page uint64)) *Readahead {
	if depth <= 0 {
		return nil
	}
	if stats == nil {
		stats = &metrics.ReadStats{}
	}
	rctx, cancel := context.WithCancel(ctx)
	return &Readahead{
		depth:  depth,
		fetch:  fetch,
		stats:  stats,
		ctx:    rctx,
		cancel: cancel,
		sem:    make(chan struct{}, depth),
	}
}

// Observe tells the scheduler the reader just accessed page; limit is
// the stream's page count (pages >= limit are never scheduled). A
// reader's first access, and any at or below the high-water mark (the
// lowest page not yet scheduled), is a stream: Observe schedules fetches
// for the unscheduled pages in (page, page+depth], skipping pages
// already covered by a previous call, and returns without blocking.
// Backward seeks re-read already-fetched territory and schedule nothing
// new until the reader passes its high-water mark again. A forward seek
// past the mark is not a stream: it moves the mark to page+1 and
// schedules nothing, so a random reader does not fetch pages nobody
// reads, and the access of page+1 that follows resumes the window.
func (r *Readahead) Observe(page, limit uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if r.primed && page > r.next {
		r.next = page + 1
		r.mu.Unlock()
		return
	}
	from := page + 1
	if r.primed && r.next > from {
		from = r.next
	}
	end := page + 1 + uint64(r.depth)
	if end > limit {
		end = limit
	}
	r.primed = true
	if from > r.next {
		r.next = from
	}
	for p := from; p < end; p++ {
		select {
		case r.sem <- struct{}{}:
		default:
			// All depth slots busy; leave the rest for the next
			// Observe rather than blocking the reader.
			r.next = p
			r.mu.Unlock()
			return
		}
		r.next = p + 1
		r.wg.Add(1)
		r.stats.AddReadahead(1)
		go func(p uint64) {
			defer r.wg.Done()
			defer func() { <-r.sem }()
			r.fetch(r.ctx, p)
		}(p)
	}
	r.mu.Unlock()
}

// Close cancels outstanding fetches and waits for them to return. It
// is idempotent and safe on a nil Readahead.
func (r *Readahead) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
}
