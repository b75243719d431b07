package blob

import (
	"context"
	"sync"
	"time"

	"blobseer/internal/cache"
	"blobseer/internal/obs"
)

// Snapshot is a read handle bound to one published version of a BLOB,
// carrying a garbage-collection pin for its whole lifetime: between At
// and Close the version manager cannot reclaim the version, so every
// read through the handle is served from an immutable, complete page
// set — the "versioned open" primitive of the snapshot-first API.
//
// The pin is a lease of pinTTL: a crashed holder delays collection by
// at most one TTL. Reads through the handle renew the lease once it is
// past half its life, so a handle that is actually being read stays
// protected indefinitely; an idle handle older than the TTL may lose
// its pin and should call Renew before resuming.
//
// This file is the only code that pins, renews and releases a version:
// every reader that needs the guarantee (a BSFS file reader, a job's
// input) reads through a Snapshot.
type Snapshot struct {
	b    *Blob
	info VersionInfo

	mu       sync.Mutex
	pinned   bool
	pinnedAt time.Time
	closed   bool
}

// pinTTL is the lease length of every version pin, and what the
// version manager grants a request that names none: long enough that a
// reader renewing at half-life never lapses, short enough that a
// crashed one delays collection by two minutes.
const pinTTL = 2 * time.Minute

// At opens a pinned snapshot of version ver (0 means the latest
// published version). The pin is the lookup: its reply carries the
// version's metadata and the write records the client lacks, which name
// every leaf a read of the snapshot needs. So At(v) is one
// version-manager round trip, there is no window where the collector
// can reclaim the version between lookup and pin, and At either returns
// a fully protected handle or fails with ErrVersionCollected.
//
// Version 0 (the empty initial snapshot) has no pages and needs no
// pin; At returns a handle over the empty state.
func (b *Blob) At(ctx context.Context, ver uint64) (*Snapshot, error) {
	if ver == 0 {
		latest, err := b.Latest(ctx)
		if err != nil {
			return nil, err
		}
		if latest.Ver == 0 {
			return &Snapshot{b: b, info: latest}, nil
		}
		ver = latest.Ver
	}
	return b.hold(ctx, ver)
}

// hold pins ver and returns the handle over it. A version that has not
// published is refused with ErrNotPublished, its pin released.
func (b *Blob) hold(ctx context.Context, ver uint64) (*Snapshot, error) {
	info, err := b.pin(ctx, ver, b.c.knownPrefix(b.id))
	if err != nil {
		return nil, err
	}
	s := &Snapshot{b: b, info: info, pinned: true, pinnedAt: time.Now()}
	if !info.Published {
		s.Close()
		return nil, ErrNotPublished
	}
	return s, nil
}

// pin takes a lease-style reference on ver: while held (and before
// pinTTL expires) the version cannot be collected. Pinning a version
// the collector already owns fails with ErrVersionCollected. The reply
// is ver's info and the write records of the versions in (since, ver],
// which the client takes in.
func (b *Blob) pin(ctx context.Context, ver, since uint64) (VersionInfo, error) {
	var resp VersionResp
	req := &PinReq{Blob: b.id, Ver: ver, TTLMillis: uint64(pinTTL / time.Millisecond), SinceVer: since}
	if err := b.c.vm.Call(ctx, b.id, VMPin, req, &resp); err != nil {
		return VersionInfo{}, err
	}
	b.c.learn(b.id, &resp)
	return resp.Info, nil
}

// unpin releases one reference taken by pin.
func (b *Blob) unpin(ctx context.Context, ver uint64) error {
	return b.c.vm.Call(ctx, b.id, VMUnpin, &VersionRef{Blob: b.id, Ver: ver}, nil)
}

// Refresh returns a snapshot of the latest published version: s itself
// when nothing has published since, otherwise a new handle, pinned
// before it is returned. s stays open either way, so a reader moving
// to the new handle is never unprotected in between; it then closes s.
func (s *Snapshot) Refresh(ctx context.Context) (*Snapshot, error) {
	latest, err := s.b.Latest(ctx)
	if err != nil {
		return nil, err
	}
	if latest.Ver == s.info.Ver {
		return s, nil
	}
	return s.b.hold(ctx, latest.Ver)
}

// Info returns the snapshot's version metadata.
func (s *Snapshot) Info() VersionInfo { return s.info }

// Ver returns the pinned version number.
func (s *Snapshot) Ver() uint64 { return s.info.Ver }

// Size returns the BLOB size at the pinned version.
func (s *Snapshot) Size() uint64 { return s.info.Size }

// ReadAt reads n bytes at byte offset off from the pinned version.
func (s *Snapshot) ReadAt(ctx context.Context, off, n uint64) ([]byte, error) {
	s.renew(ctx)
	return s.b.ReadAt(ctx, s.info.Ver, off, n)
}

// ReadAtInto reads len(p) bytes at off from the pinned version into p.
//
//lint:unusedexport method of the re-exported blobseer.Snapshot
func (s *Snapshot) ReadAtInto(ctx context.Context, off uint64, p []byte) (int, error) {
	s.renew(ctx)
	return s.b.ReadAtInto(ctx, s.info.Ver, off, p)
}

// PageView returns a read-only whole-page view of the pinned version
// (see Blob.PageView: the view may reference the shared cache, and the
// caller releases it).
func (s *Snapshot) PageView(ctx context.Context, page uint64) (cache.Page, error) {
	s.renew(ctx)
	return s.b.PageView(ctx, s.info.Ver, page)
}

// Prefetch warms the shared page cache with [off, off+n) of the pinned
// version.
func (s *Snapshot) Prefetch(ctx context.Context, off, n uint64) error {
	s.renew(ctx)
	return s.b.Prefetch(ctx, s.info.Ver, off, n)
}

// PageLocations resolves the page→provider mapping of [off, off+n) of
// the pinned version, for locality-aware scheduling against a fixed
// snapshot.
//
//lint:unusedexport method of the re-exported blobseer.Snapshot
func (s *Snapshot) PageLocations(ctx context.Context, off, n uint64) ([]PageLoc, error) {
	s.renew(ctx)
	return s.b.PageLocations(ctx, s.info.Ver, off, n)
}

// Renew extends the pin lease by a full TTL immediately (reads renew
// lazily past the half-life; an idle holder calls this before resuming
// after a long pause). Renewing a collected version fails with
// ErrVersionCollected — the handle lost its protection while idle.
func (s *Snapshot) Renew(ctx context.Context) error {
	s.mu.Lock()
	pinned := s.pinned && !s.closed
	s.mu.Unlock()
	if !pinned {
		return nil
	}
	// Pin then Unpin, in that order: the extra reference carries the
	// refreshed expiry while the count nets out, and the version is
	// never left unreferenced in between.
	if _, err := s.b.pin(ctx, s.info.Ver, s.info.Ver); err != nil {
		return err
	}
	if err := s.b.unpin(ctx, s.info.Ver); err != nil {
		// The fresh pin still protects the version; the stray count
		// drains when its lease expires.
		obs.Log.Debugf("blob %d: unpin after lease refresh of version %d: %v", s.b.id, s.info.Ver, err)
	}
	s.mu.Lock()
	s.pinnedAt = time.Now()
	s.mu.Unlock()
	return nil
}

// renew extends the lease once it is past half its life. Failure is
// ignored: the read itself surfaces ErrVersionCollected if the version
// really is gone.
func (s *Snapshot) renew(ctx context.Context) {
	s.mu.Lock()
	due := s.pinned && !s.closed && time.Since(s.pinnedAt) >= pinTTL/2
	s.mu.Unlock()
	if due {
		if err := s.Renew(ctx); err != nil {
			obs.Log.Debugf("blob %d: snapshot lease renew of version %d: %v", s.b.id, s.info.Ver, err)
		}
	}
}

// Close releases the snapshot's pin. It runs on a detached context:
// the caller's context may already be cancelled, but the release must
// still reach the version manager or collection stalls for one TTL.
// Close is idempotent.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	pinned := s.pinned
	s.pinned = false
	s.mu.Unlock()
	if !pinned {
		return nil
	}
	//lint:detached the pin release must reach the version manager even after the caller's ctx died, or collection stalls a full TTL
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.b.unpin(ctx, s.info.Ver)
}
