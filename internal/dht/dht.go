// Package dht implements the distributed hash table that BlobSeer's
// metadata providers form (§3.1.1): "The information concerning the
// location of the pages for each BLOB version is kept in a Distributed
// HashTable, managed by several metadata providers."
//
// The design follows BlobSeer: a static membership ring (the deployment
// lists its metadata providers up front), consistent hashing with
// virtual nodes for balance, and R-way replication of every entry for
// fault tolerance. Entries are immutable once written (segment-tree
// nodes are content-addressed per version), which makes replication
// trivially consistent: any replica that has the key has the right
// value.
package dht

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// RPC methods served by a metadata provider.
var (
	MethodGet         = rpc.M(1, "meta.Get")
	MethodPut         = rpc.M(2, "meta.Put")
	MethodDelete      = rpc.M(3, "meta.Delete")
	MethodGetBatch    = rpc.M(4, "meta.GetBatch")
	MethodPutBatch    = rpc.M(5, "meta.PutBatch")
	MethodStats       = rpc.M(6, "meta.Stats")
	MethodDeleteBatch = rpc.M(7, "meta.DeleteBatch")
)

// ErrNotFound is returned when no replica holds the key.
var ErrNotFound = errors.New("dht: key not found")

//
// Wire messages.
//

// KV is one key/value pair.
type KV struct {
	Key   string
	Value []byte
}

// PutReq stores one entry.
type PutReq struct{ KV }

// AppendTo implements wire.Marshaler.
func (m *PutReq) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, m.Key)
	return wire.AppendBytes(b, m.Value)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *PutReq) DecodeFrom(r *wire.Reader) error {
	m.Key = r.String()
	m.Value = r.BytesCopy()
	return r.Err()
}

// GetReq fetches one entry.
type GetReq struct{ Key string }

// AppendTo implements wire.Marshaler.
func (m *GetReq) AppendTo(b []byte) []byte { return wire.AppendString(b, m.Key) }

// DecodeFrom implements wire.Unmarshaler.
func (m *GetReq) DecodeFrom(r *wire.Reader) error {
	m.Key = r.String()
	return r.Err()
}

// GetResp carries the value when found.
type GetResp struct {
	Found bool
	Value []byte
}

// AppendTo implements wire.Marshaler.
func (m *GetResp) AppendTo(b []byte) []byte {
	b = wire.AppendBool(b, m.Found)
	return wire.AppendBytes(b, m.Value)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *GetResp) DecodeFrom(r *wire.Reader) error {
	m.Found = r.Bool()
	m.Value = r.BytesCopy()
	return r.Err()
}

// BatchReq carries several entries (PutBatch) or keys (GetBatch).
type BatchReq struct {
	Keys   []string
	Values [][]byte // nil for GetBatch
}

// AppendTo implements wire.Marshaler.
func (m *BatchReq) AppendTo(b []byte) []byte {
	b = wire.AppendStringSlice(b, m.Keys)
	b = wire.AppendUvarint(b, uint64(len(m.Values)))
	for _, v := range m.Values {
		b = wire.AppendBytes(b, v)
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BatchReq) DecodeFrom(r *wire.Reader) error {
	m.Keys = r.StringSlice()
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	m.Values = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		m.Values = append(m.Values, r.BytesCopy())
	}
	return r.Err()
}

// BatchResp answers a GetBatch: parallel to Keys; missing entries have
// Found=false.
type BatchResp struct {
	Found  []bool
	Values [][]byte
}

// AppendTo implements wire.Marshaler.
func (m *BatchResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Found)))
	for i := range m.Found {
		b = wire.AppendBool(b, m.Found[i])
		b = wire.AppendBytes(b, m.Values[i])
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BatchResp) DecodeFrom(r *wire.Reader) error {
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	m.Found = make([]bool, 0, n)
	m.Values = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		m.Found = append(m.Found, r.Bool())
		m.Values = append(m.Values, r.BytesCopy())
	}
	return r.Err()
}

// StatsResp reports server-side entry counts.
type StatsResp struct {
	Entries uint64
	Bytes   uint64
}

// AppendTo implements wire.Marshaler.
func (m *StatsResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Entries)
	return wire.AppendUvarint(b, m.Bytes)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *StatsResp) DecodeFrom(r *wire.Reader) error {
	m.Entries = r.Uvarint()
	m.Bytes = r.Uvarint()
	return r.Err()
}

//
// Server: one metadata provider.
//

// Server stores DHT entries for one metadata provider node.
type Server struct {
	srv *rpc.Server

	mu    sync.RWMutex
	data  map[string][]byte
	bytes uint64
}

// NewServer starts a metadata provider at addr.
func NewServer(net transport.Network, addr transport.Addr) (*Server, error) {
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: srv, data: make(map[string][]byte)}
	srv.Handle(MethodGet, s.handleGet)
	srv.Handle(MethodPut, s.handlePut)
	srv.Handle(MethodDelete, s.handleDelete)
	srv.Handle(MethodGetBatch, s.handleGetBatch)
	srv.Handle(MethodPutBatch, s.handlePutBatch)
	srv.Handle(MethodStats, s.handleStats)
	srv.Handle(MethodDeleteBatch, s.handleDeleteBatch)
	return s, nil
}

// Addr returns the provider's endpoint.
func (s *Server) Addr() transport.Addr { return s.srv.Addr() }

// Close stops the provider.
func (s *Server) Close() error { return s.srv.Close() }

// Len returns the number of entries held locally.
func (s *Server) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

func (s *Server) handleGet(r *wire.Reader) (wire.Marshaler, error) {
	var req GetReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	s.mu.RLock()
	v, ok := s.data[req.Key]
	s.mu.RUnlock()
	return &GetResp{Found: ok, Value: v}, nil
}

func (s *Server) handlePut(r *wire.Reader) (wire.Marshaler, error) {
	var req PutReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	s.put(req.Key, req.Value)
	return nil, nil
}

func (s *Server) put(key string, value []byte) {
	s.mu.Lock()
	if old, ok := s.data[key]; ok {
		s.bytes -= uint64(len(old))
	}
	s.data[key] = value
	s.bytes += uint64(len(value))
	s.mu.Unlock()
}

func (s *Server) handleDelete(r *wire.Reader) (wire.Marshaler, error) {
	var req GetReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if old, ok := s.data[req.Key]; ok {
		s.bytes -= uint64(len(old))
		delete(s.data, req.Key)
	}
	s.mu.Unlock()
	return nil, nil
}

func (s *Server) handleDeleteBatch(r *wire.Reader) (wire.Marshaler, error) {
	var req BatchReq // Values unused for deletes
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	s.mu.Lock()
	for _, k := range req.Keys {
		if old, ok := s.data[k]; ok {
			s.bytes -= uint64(len(old))
			delete(s.data, k)
		}
	}
	s.mu.Unlock()
	return nil, nil
}

func (s *Server) handleGetBatch(r *wire.Reader) (wire.Marshaler, error) {
	var req BatchReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	resp := &BatchResp{
		Found:  make([]bool, len(req.Keys)),
		Values: make([][]byte, len(req.Keys)),
	}
	s.mu.RLock()
	for i, k := range req.Keys {
		if v, ok := s.data[k]; ok {
			resp.Found[i] = true
			resp.Values[i] = v
		}
	}
	s.mu.RUnlock()
	return resp, nil
}

func (s *Server) handlePutBatch(r *wire.Reader) (wire.Marshaler, error) {
	var req BatchReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if len(req.Keys) != len(req.Values) {
		return nil, fmt.Errorf("dht: put batch with %d keys, %d values", len(req.Keys), len(req.Values))
	}
	for i, k := range req.Keys {
		s.put(k, req.Values[i])
	}
	return nil, nil
}

func (s *Server) handleStats(r *wire.Reader) (wire.Marshaler, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &StatsResp{Entries: uint64(len(s.data)), Bytes: s.bytes}, nil
}

//
// Ring: consistent hashing with virtual nodes.
//

// Ring maps keys to an ordered replica set of members.
type Ring struct {
	members []transport.Addr
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over members with vnodes virtual points each.
// Members must be non-empty; vnodes <= 0 defaults to 64.
func NewRing(members []transport.Addr, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{members: append([]transport.Addr(nil), members...)}
	r.points = make([]ringPoint, 0, len(members)*vnodes)
	for mi, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashString(fmt.Sprintf("%s#%d", m, v)),
				member: mi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Lookup returns up to n distinct members responsible for key, in
// preference order (primary first).
func (r *Ring) Lookup(key string, n int) []transport.Addr {
	if n > len(r.members) {
		n = len(r.members)
	}
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	out := make([]transport.Addr, 0, n)
	seen := make(map[int]bool, n)
	for j := 0; len(out) < n && j < len(r.points); j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

func hashString(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	// FNV alone leaves keys that share a prefix within ~2^44 of each
	// other (only the final characters multiply the ~2^40 prime), which
	// clusters them onto one ring arc. A splitmix64-style avalanche
	// finalizer spreads them over the whole ring.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

//
// Client: replicated access.
//

// Client reads and writes replicated DHT entries through the ring.
type Client struct {
	ring     *Ring
	pool     *rpc.Pool
	replicas int
}

// NewClient returns a DHT client writing each entry to `replicas`
// members (at least 1; capped at the membership size).
func NewClient(ring *Ring, pool *rpc.Pool, replicas int) *Client {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(ring.members) {
		replicas = len(ring.members)
	}
	return &Client{ring: ring, pool: pool, replicas: replicas}
}

// Put writes key to all replicas; it succeeds if at least one replica
// accepted the write (entries are immutable, so a lagging replica can
// be repaired by any later writer or ignored).
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	replicas := c.ring.Lookup(key, c.replicas)
	var firstErr error
	oks := 0
	for _, addr := range replicas {
		err := c.pool.Call(ctx, addr, MethodPut, &PutReq{KV{Key: key, Value: value}}, nil)
		if err == nil {
			oks++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if oks == 0 {
		return fmt.Errorf("dht put %q: all %d replicas failed: %w", key, len(replicas), firstErr)
	}
	return nil
}

// Get returns the value for key, consulting replicas in preference
// order and returning the first hit.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	replicas := c.ring.Lookup(key, c.replicas)
	var firstErr error
	for _, addr := range replicas {
		var resp GetResp
		err := c.pool.Call(ctx, addr, MethodGet, &GetReq{Key: key}, &resp)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if resp.Found {
			return resp.Value, nil
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("dht get %q: %w", key, firstErr)
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
}

// Delete removes key from all reachable replicas.
func (c *Client) Delete(ctx context.Context, key string) error {
	for _, addr := range c.ring.Lookup(key, c.replicas) {
		// Best effort: immutable entries make deletes advisory (GC).
		if err := c.pool.Call(ctx, addr, MethodDelete, &GetReq{Key: key}, nil); err != nil {
			obs.Log.Debugf("dht: advisory delete of %q at %v: %v", key, addr, err)
		}
	}
	return nil
}

// PutBatch writes a set of entries, grouping them by primary replica so
// one RPC carries all entries destined for the same member. Used by the
// metadata layer to commit all new segment-tree nodes of a version in a
// handful of round-trips.
func (c *Client) PutBatch(ctx context.Context, kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	// member -> batch.
	batches := make(map[transport.Addr]*BatchReq)
	for _, kv := range kvs {
		for _, addr := range c.ring.Lookup(kv.Key, c.replicas) {
			b, ok := batches[addr]
			if !ok {
				b = &BatchReq{}
				batches[addr] = b
			}
			b.Keys = append(b.Keys, kv.Key)
			b.Values = append(b.Values, kv.Value)
		}
	}
	type result struct {
		addr transport.Addr
		err  error
	}
	results := make(chan result, len(batches))
	for addr, b := range batches {
		go func(addr transport.Addr, b *BatchReq) {
			results <- result{addr, c.pool.Call(ctx, addr, MethodPutBatch, b, nil)}
		}(addr, b)
	}
	var firstErr error
	oks := 0
	for range batches {
		r := <-results
		if r.err == nil {
			oks++
		} else if firstErr == nil {
			firstErr = fmt.Errorf("dht put batch at %s: %w", r.addr, r.err)
		}
	}
	// With replication >= 2 a single failed member is tolerable; all
	// keys still have at least one live replica only if every key had
	// one success, which grouping does not track per-key. Be
	// conservative: any failure with replicas==1 is fatal, otherwise
	// require at least one member success overall plus warn via error
	// only when everything failed.
	if oks == 0 {
		return firstErr
	}
	if firstErr != nil && c.replicas == 1 {
		return firstErr
	}
	return nil
}

// DeleteBatch removes a set of keys from every replica, grouping keys
// by member so one RPC carries all deletions destined for the same
// node. An unreachable member never blocks the others, but its failure
// IS reported: a delete that silently skipped a replica would leak the
// entries there forever, so the garbage collector needs the error to
// re-queue the batch (deletions are idempotent, retries are free).
func (c *Client) DeleteBatch(ctx context.Context, keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	batches := make(map[transport.Addr]*BatchReq)
	for _, k := range keys {
		for _, addr := range c.ring.Lookup(k, c.replicas) {
			b, ok := batches[addr]
			if !ok {
				b = &BatchReq{}
				batches[addr] = b
			}
			b.Keys = append(b.Keys, k)
		}
	}
	errs := make(chan error, len(batches))
	for addr, b := range batches {
		go func(addr transport.Addr, b *BatchReq) {
			err := c.pool.Call(ctx, addr, MethodDeleteBatch, b, nil)
			if err != nil {
				err = fmt.Errorf("dht delete batch at %s: %w", addr, err)
			}
			errs <- err
		}(addr, b)
	}
	var firstErr error
	for range batches {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// GetBatch fetches many keys; the result slice is parallel to keys and
// contains nil for entries that are missing everywhere.
func (c *Client) GetBatch(ctx context.Context, keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	// Group by primary; fall back per-key on miss/failure.
	groups := make(map[transport.Addr][]int)
	for i, k := range keys {
		prim := c.ring.Lookup(k, 1)
		if len(prim) == 0 {
			return nil, errors.New("dht: empty ring")
		}
		groups[prim[0]] = append(groups[prim[0]], i)
	}
	for addr, idxs := range groups {
		req := &BatchReq{Keys: make([]string, len(idxs))}
		for j, i := range idxs {
			req.Keys[j] = keys[i]
		}
		var resp BatchResp
		err := c.pool.Call(ctx, addr, MethodGetBatch, req, &resp)
		if err == nil && len(resp.Found) == len(idxs) {
			for j, i := range idxs {
				if resp.Found[j] {
					out[i] = resp.Values[j]
				}
			}
		}
		// Per-key fallback through replicas for anything still nil.
		for _, i := range idxs {
			if out[i] != nil {
				continue
			}
			v, err := c.Get(ctx, keys[i])
			if err != nil && !errors.Is(err, ErrNotFound) {
				return nil, err
			}
			out[i] = v
		}
	}
	return out, nil
}
