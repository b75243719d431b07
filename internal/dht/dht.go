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
	return wire.AppendBytesSlice(b, m.Values)
}

// DecodeFrom implements wire.Unmarshaler. A request frame is recycled,
// so the batch is copied out of it — once for all keys and once for all
// values: Keys are substrings of one string and Values sub-slices of
// one slice, which a provider that stores them keeps alive until the
// last entry of the batch is deleted.
func (m *BatchReq) DecodeFrom(r *wire.Reader) error {
	m.Keys = r.StringSlice()
	m.Values = r.BytesSliceCopy()
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

// DecodeFrom implements wire.Unmarshaler. Values alias the frame.
func (m *BatchResp) DecodeFrom(r *wire.Reader) error {
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Len()) { // every entry takes at least two bytes
		return wire.ErrShortBuffer
	}
	m.Found = make([]bool, n)
	m.Values = make([][]byte, n)
	for i := range m.Found {
		m.Found[i] = r.Bool()
		//lint:framealias a response frame belongs to the decoded response and is never recycled
		m.Values[i] = r.Bytes()
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
	s.mu.Lock()
	s.put(req.Key, req.Value)
	s.mu.Unlock()
	return nil, nil
}

// put stores one entry; the caller holds s.mu.
func (s *Server) put(key string, value []byte) {
	if old, ok := s.data[key]; ok {
		s.bytes -= uint64(len(old))
	}
	s.data[key] = value
	s.bytes += uint64(len(value))
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
	s.mu.Lock()
	for i, k := range req.Keys {
		s.put(k, req.Values[i])
	}
	s.mu.Unlock()
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
	if n <= 0 {
		return nil
	}
	var buf [8]int
	idx := buf[:]
	if n > len(idx) {
		idx = make([]int, n)
	}
	r.lookup(key, idx[:n])
	out := make([]transport.Addr, n)
	for i, m := range idx[:n] {
		out[i] = r.members[m]
	}
	return out
}

// lookup fills dst with the indices of the first len(dst) distinct
// members clockwise of key's hash; len(dst) must not exceed the
// membership.
func (r *Ring) lookup(key string, dst []int) {
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for n := 0; n < len(dst); i++ {
		m := r.points[i%len(r.points)].member
		dup := false
		for _, seen := range dst[:n] {
			dup = dup || seen == m
		}
		if !dup {
			dst[n] = m
			n++
		}
	}
}

func hashString(s string) uint64 {
	// FNV-1a, inlined: hash/fnv costs a hasher and a []byte(s) per key.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
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

// errEmptyRing fails a batch on a client whose ring has no members.
var errEmptyRing = errors.New("dht: empty ring")

// fanOut is one batch operation split by ring member. Key i's j-th
// replica lives on member owner[i*r+j] and is entry slot[i*r+j] of that
// member's request: calls[m].req.Keys (and Values, for a put) are
// consecutive ranges of one slab each, sized by a counting pass.
type fanOut struct {
	r     int   // replicas per key
	owner []int // member index per (key, replica)
	slot  []int // position in the owner's request per (key, replica)
	calls []memberCall
	wg    sync.WaitGroup
}

// memberCall is one member's share of a fanOut and how it went.
type memberCall struct {
	req  BatchReq
	resp BatchResp // decoded only for GetBatch
	err  error
}

// split assigns each of n keys to its first r ring members; value, if
// not nil, supplies what goes beside key i in every request.
func (c *Client) split(n, r int, key func(i int) string, value func(i int) []byte) *fanOut {
	members := len(c.ring.members)
	scratch := make([]int, 2*n*r+members)
	f := &fanOut{r: r, owner: scratch[:n*r], slot: scratch[n*r : 2*n*r], calls: make([]memberCall, members)}
	count := scratch[2*n*r:]
	for i := 0; i < n; i++ {
		c.ring.lookup(key(i), f.owner[i*r:(i+1)*r])
	}
	for p, m := range f.owner {
		f.slot[p] = count[m]
		count[m]++
	}
	keys := make([]string, n*r)
	var values [][]byte
	if value != nil {
		values = make([][]byte, n*r)
	}
	start := 0
	for m, k := range count {
		f.calls[m].req.Keys = keys[start : start+k : start+k]
		if value != nil {
			f.calls[m].req.Values = values[start : start+k : start+k]
		}
		start += k
	}
	for p, m := range f.owner {
		req := &f.calls[m].req
		req.Keys[f.slot[p]] = key(p / r)
		if value != nil {
			req.Values[f.slot[p]] = value(p / r)
		}
	}
	return f
}

// run sends every member its non-empty share concurrently (the last one
// from the calling goroutine) and waits; calls[m].err is the outcome.
func (c *Client) run(ctx context.Context, method rpc.Method, f *fanOut, wantResp bool) {
	last := -1
	for m := range f.calls {
		if len(f.calls[m].req.Keys) == 0 {
			continue
		}
		if prev := last; prev >= 0 {
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				c.callMember(ctx, method, f, prev, wantResp)
			}()
		}
		last = m
	}
	if last >= 0 {
		c.callMember(ctx, method, f, last, wantResp)
	}
	f.wg.Wait()
}

func (c *Client) callMember(ctx context.Context, method rpc.Method, f *fanOut, m int, wantResp bool) {
	mc := &f.calls[m]
	var resp wire.Unmarshaler
	if wantResp {
		resp = &mc.resp
	}
	mc.err = c.pool.Call(ctx, c.ring.members[m], method, &mc.req, resp)
}

// firstErr returns the first member failure, naming the member.
func (c *Client) firstErr(op string, f *fanOut) error {
	for m := range f.calls {
		if err := f.calls[m].err; err != nil {
			return fmt.Errorf("dht %s at %s: %w", op, c.ring.members[m], err)
		}
	}
	return nil
}

// PutBatch writes a set of entries to all their replicas, one RPC per
// member carrying every entry destined for it. Used by the metadata
// layer to commit all new segment-tree nodes of a version in one round
// trip. Like Put, it tolerates failed members as long as every entry
// reached at least one replica; an entry that reached none fails the
// batch, because acking it would ack a commit with tree nodes missing.
func (c *Client) PutBatch(ctx context.Context, kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	if len(c.ring.members) == 0 {
		return errEmptyRing
	}
	f := c.split(len(kvs), c.replicas, func(i int) string { return kvs[i].Key }, func(i int) []byte { return kvs[i].Value })
	c.run(ctx, MethodPutBatch, f, false)
	for i := range kvs {
		stored := false
		for _, m := range f.owner[i*f.r : (i+1)*f.r] {
			stored = stored || f.calls[m].err == nil
		}
		if !stored {
			return fmt.Errorf("dht put batch: %q reached none of its %d replicas: %w", kvs[i].Key, f.r, c.firstErr("put batch", f))
		}
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
	if len(c.ring.members) == 0 {
		return errEmptyRing
	}
	f := c.split(len(keys), c.replicas, func(i int) string { return keys[i] }, nil)
	c.run(ctx, MethodDeleteBatch, f, false)
	return c.firstErr("delete batch", f)
}

// GetBatch fetches many keys; the result slice is parallel to keys and
// contains nil for entries that are missing everywhere. Each key is
// asked of its primary, all primaries at once; what a primary does not
// have or cannot answer falls back to Get, which tries every replica.
// The values alias the response frames.
func (c *Client) GetBatch(ctx context.Context, keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	if len(c.ring.members) == 0 {
		return nil, errEmptyRing
	}
	f := c.split(len(keys), 1, func(i int) string { return keys[i] }, nil)
	c.run(ctx, MethodGetBatch, f, true)
	for i, m := range f.owner {
		mc := &f.calls[m]
		if j := f.slot[i]; mc.err == nil && len(mc.resp.Found) == len(mc.req.Keys) && mc.resp.Found[j] {
			out[i] = mc.resp.Values[j]
			continue
		}
		v, err := c.Get(ctx, keys[i])
		if err != nil && !errors.Is(err, ErrNotFound) {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
