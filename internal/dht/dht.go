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
//
// The metadata layer reads and writes tree nodes a level at a time, so
// a provider speaks one protocol, batches: PutBatch, GetBatch and
// DeleteBatch each carry every key of one operation destined for that
// member.
//
// A batch costs a fixed number of objects per message, not per entry:
// the client encodes each member's share straight from the caller's
// keys and values into its request frame, a provider copies a put
// batch out of its frame in two copies and answers a get from its map
// as the answer is marshalled, and the client copies each answer's
// values into one slab of its own (TestPutBatchAllocationBudget).
package dht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// RPC methods served by a metadata provider.
var (
	MethodGetBatch    = rpc.M(4, "meta.GetBatch")
	MethodPutBatch    = rpc.M(5, "meta.PutBatch")
	MethodDeleteBatch = rpc.M(7, "meta.DeleteBatch")
)

//
// Wire messages.
//

// KV is one key/value pair.
type KV struct {
	Key   string
	Value []byte
}

// A batch request — put, get or delete — is its keys as a
// count-prefixed sequence of strings, then its values as a
// count-prefixed sequence of byte strings, a count of 0 for a get or a
// delete (wire.AppendStringSlice's encoding, twice). Neither side
// builds a message struct for it: the client encodes each member's
// share straight from the caller's keys and values (memberCall), and
// the server reads the keys in place (getAnswer, handleDeleteBatch) or
// copies the batch out once (decodePutBatch). A get-batch answer is a
// count, then a found byte and a value per requested key, in request
// order.

// fieldSize is what an n-byte length-prefixed field takes on the wire.
func fieldSize(n int) int { return wire.UvarintLen(uint64(n)) + n }

// putBatch is a put batch copied out of its request frame: the key
// region once, as one string, and the value region once, so every key
// it stores is a substring of the one and every value a sub-slice of
// the other. A provider that keeps an entry keeps its batch's copies
// alive until the last entry of the batch is deleted, and never the
// request frame, which is recycled.
type putBatch struct {
	n      int
	keys   string // n length-prefixed keys
	values []byte // n length-prefixed values
}

// decodePutBatch checks a put batch and copies it out of its request.
func decodePutBatch(r *wire.Reader) (putBatch, error) {
	n, keyFields := r.Fields()
	nv, valueFields := r.Fields()
	if err := r.Err(); err != nil {
		return putBatch{}, err
	}
	if n != nv {
		return putBatch{}, fmt.Errorf("dht: put batch with %d keys, %d values", n, nv)
	}
	return putBatch{n: n, keys: string(keyFields), values: bytes.Clone(valueFields)}, nil
}

// each calls put with each entry, in order. The regions were checked
// by decodePutBatch, so the walk cannot run off them.
func (b *putBatch) each(put func(key string, value []byte)) {
	vr := wire.NewReader(b.values)
	off := 0
	for i := 0; i < b.n; i++ {
		var l, shift uint // the key's uvarint length prefix
		for ; b.keys[off] >= 0x80; off++ {
			l |= uint(b.keys[off]&0x7f) << shift
			shift += 7
		}
		l |= uint(b.keys[off]) << shift
		off++
		put(b.keys[off:off+int(l)], vr.Bytes())
		off += int(l)
	}
}

// getAnswer answers a GetBatch by reading the provider's map while rpc
// marshals it, so no per-key result is built: keys is the request's key
// region, a slice of the request frame, which rpc releases only after
// the answer has been marshalled.
type getAnswer struct {
	s    *Server
	n    int
	keys []byte
}

// lookups calls fn with each requested key's entry, in request order,
// under the provider's read lock.
func (a *getAnswer) lookups(fn func(value []byte, found bool)) {
	kr := wire.NewReader(a.keys)
	a.s.mu.RLock()
	defer a.s.mu.RUnlock()
	for i := 0; i < a.n; i++ {
		v, ok := a.s.data[string(kr.Bytes())]
		fn(v, ok)
	}
}

// EncodedSize implements wire.Sizer: what AppendTo writes, unless a
// put or a delete lands between the two lookups, when the frame grows
// by append or keeps room to spare.
func (a *getAnswer) EncodedSize() int {
	size := wire.UvarintLen(uint64(a.n))
	a.lookups(func(v []byte, _ bool) { size += 1 + fieldSize(len(v)) })
	return size
}

// AppendTo implements wire.Marshaler.
func (a *getAnswer) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(a.n))
	a.lookups(func(v []byte, found bool) {
		b = wire.AppendBool(b, found)
		b = wire.AppendBytes(b, v)
	})
	return b
}

//
// Server: one metadata provider.
//

// Server stores DHT entries for one metadata provider node.
type Server struct {
	srv *rpc.Server

	mu   sync.RWMutex
	data map[string][]byte
}

// NewServer starts a metadata provider at addr.
func NewServer(net transport.Network, addr transport.Addr) (*Server, error) {
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: srv, data: make(map[string][]byte)}
	srv.Handle(MethodGetBatch, s.handleGetBatch)
	srv.Handle(MethodPutBatch, s.handlePutBatch)
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

func (s *Server) handleDeleteBatch(r *wire.Reader) (wire.Marshaler, error) {
	n, keys := r.Fields() // the values' count of 0 follows, unread
	if err := r.Err(); err != nil {
		return nil, err
	}
	kr := wire.NewReader(keys)
	s.mu.Lock()
	for i := 0; i < n; i++ {
		delete(s.data, string(kr.Bytes()))
	}
	s.mu.Unlock()
	return nil, nil
}

func (s *Server) handleGetBatch(r *wire.Reader) (wire.Marshaler, error) {
	n, keys := r.Fields()
	if err := r.Err(); err != nil {
		return nil, err
	}
	//lint:framealias rpc marshals the answer before it releases the request frame the keys live in
	return &getAnswer{s: s, n: n, keys: keys}, nil
}

func (s *Server) handlePutBatch(r *wire.Reader) (wire.Marshaler, error) {
	b, err := decodePutBatch(r)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	b.each(func(key string, value []byte) { s.data[key] = value })
	s.mu.Unlock()
	return nil, nil
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

// Primary returns the member first in line for key: for callers that
// route every request by it. The ring must have a member.
func (r *Ring) Primary(key string) transport.Addr {
	var m [1]int
	r.lookup(key, m[:])
	return r.members[m[0]]
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

// errEmptyRing fails a batch on a client whose ring has no members.
var errEmptyRing = errors.New("dht: empty ring")

// inlineMembers is how many ring members a fanOut holds the calls of
// inside itself; a wider ring allocates a slice for them.
const inlineMembers = 8

// fanOut is one batch operation split by ring member. Key i's j-th
// replica lives on member owner[i*r+j]. A member's share lists its
// positions (i*r+j) in key order; its request is encoded from keys and
// values as rpc marshals it, and a get's answer is decoded the same
// way, straight into out[i*r+j], so nothing is regrouped and no two
// members write one element.
type fanOut struct {
	c      *Client
	keys   []string
	values [][]byte // a put's values, parallel to keys; nil otherwise
	r      int      // replicas per key
	owner  []int    // member index per (key, replica)
	calls  []memberCall
	out    [][]byte // a get's answers, one per position
	wg     sync.WaitGroup
	buf    [inlineMembers]memberCall
}

// memberCall is one member's share of a fanOut and how it went. It is
// the share's request (a wire.Sizer, so rpc takes a frame of the right
// size up front) and, for a get, the decoder of its answer.
type memberCall struct {
	f     *fanOut
	m     int   // ring member index
	share []int // the member's (key, replica) positions, in key order
	err   error
}

// split assigns each key to its first r ring members and gives each
// member the positions of replicas first..r-1 it holds. Past the fanOut
// itself it allocates once, for owner and the shares, on rings of up
// to inlineMembers members; each share is a range of one slab, sized
// by a counting pass.
func (c *Client) split(keys []string, values [][]byte, r, first int) *fanOut {
	n, members := len(keys), len(c.ring.members)
	scratch := make([]int, 2*n*r+members)
	f := &fanOut{c: c, keys: keys, values: values, r: r, owner: scratch[:n*r]}
	shares, count := scratch[n*r:2*n*r], scratch[2*n*r:]
	for i, k := range keys {
		c.ring.lookup(k, f.owner[i*r:(i+1)*r])
	}
	for p, m := range f.owner {
		if p%r >= first {
			count[m]++
		}
	}
	f.calls = f.buf[:0]
	if members > len(f.buf) {
		f.calls = make([]memberCall, 0, members)
	}
	start := 0
	for m, k := range count {
		f.calls = append(f.calls, memberCall{f: f, m: m, share: shares[start : start : start+k]})
		start += k
	}
	for p, m := range f.owner {
		if p%r >= first {
			f.calls[m].share = append(f.calls[m].share, p)
		}
	}
	return f
}

// run sends every member its non-empty share concurrently (the last one
// from the calling goroutine) and waits; calls[m].err is the outcome.
// The member calls must overlap: on a modeled network a send takes the
// whole delivery time, so sends from one goroutine would queue.
func (f *fanOut) run(ctx context.Context, method rpc.Method, wantAnswer bool) {
	last := -1
	for m := range f.calls {
		if len(f.calls[m].share) == 0 {
			continue
		}
		if prev := last; prev >= 0 {
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.calls[prev].call(ctx, method, wantAnswer)
			}()
		}
		last = m
	}
	if last >= 0 {
		f.calls[last].call(ctx, method, wantAnswer)
	}
	f.wg.Wait()
}

func (mc *memberCall) call(ctx context.Context, method rpc.Method, wantAnswer bool) {
	var answer wire.Unmarshaler
	if wantAnswer {
		answer = mc
	}
	c := mc.f.c
	mc.err = c.pool.Call(ctx, c.ring.members[mc.m], method, mc, answer)
}

// EncodedSize implements wire.Sizer: exactly what AppendTo writes for
// a put; a get's share, which has no values, takes a byte less per key.
func (mc *memberCall) EncodedSize() int {
	f := mc.f
	size := 2 * wire.UvarintLen(uint64(len(mc.share)))
	for _, p := range mc.share {
		var v []byte
		if f.values != nil {
			v = f.values[p/f.r]
		}
		size += fieldSize(len(f.keys[p/f.r])) + fieldSize(len(v))
	}
	return size
}

// AppendTo implements wire.Marshaler: the share's keys, then its values
// for a put and a count of 0 otherwise.
func (mc *memberCall) AppendTo(b []byte) []byte {
	f := mc.f
	b = wire.AppendUvarint(b, uint64(len(mc.share)))
	for _, p := range mc.share {
		b = wire.AppendString(b, f.keys[p/f.r])
	}
	if f.values == nil {
		return wire.AppendUvarint(b, 0)
	}
	b = wire.AppendUvarint(b, uint64(len(mc.share)))
	for _, p := range mc.share {
		b = wire.AppendBytes(b, f.values[p/f.r])
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler for a get's answer: each
// found value is copied into one slab per answer, sized once so that no
// append moves a value already handed out, and goes into the fanOut's
// slot for its position. rpc recycles the frame when the decode returns.
func (mc *memberCall) DecodeFrom(r *wire.Reader) error {
	f := mc.f
	if n := r.Uvarint(); r.Err() == nil && n != uint64(len(mc.share)) {
		return fmt.Errorf("dht: %d answers for %d keys", n, len(mc.share))
	}
	slab := make([]byte, 0, r.Len())
	for _, p := range mc.share {
		found := r.Bool()
		v := r.Bytes()
		if found && r.Err() == nil {
			at := len(slab)
			slab = append(slab, v...)
			f.out[p] = slab[at:len(slab):len(slab)]
		}
	}
	return r.Err()
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

// PutBatch is PutEntries over KVs.
func (c *Client) PutBatch(ctx context.Context, kvs []KV) error {
	keys := make([]string, len(kvs))
	values := make([][]byte, len(kvs))
	for i, kv := range kvs {
		keys[i], values[i] = kv.Key, kv.Value
	}
	return c.PutEntries(ctx, keys, values)
}

// PutEntries writes a set of entries, values[i] under keys[i], to all
// their replicas, one RPC per member carrying every entry destined for
// it: the metadata layer commits all new segment-tree nodes of a
// version through it in one round trip. It tolerates failed members
// as long as every entry reached at least one replica (entries are
// immutable, so a lagging replica holds nothing stale); an
// entry that reached none fails the batch, because acking it would ack
// a commit with tree nodes missing.
func (c *Client) PutEntries(ctx context.Context, keys []string, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("dht put batch: %d keys, %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	if len(c.ring.members) == 0 {
		return errEmptyRing
	}
	f := c.split(keys, values, c.replicas, 0)
	f.run(ctx, MethodPutBatch, false)
	for i, k := range keys {
		stored := false
		for _, m := range f.owner[i*f.r : (i+1)*f.r] {
			stored = stored || f.calls[m].err == nil
		}
		if !stored {
			return fmt.Errorf("dht put batch: %q reached none of its %d replicas: %w", k, f.r, c.firstErr("put batch", f))
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
	f := c.split(keys, nil, c.replicas, 0)
	f.run(ctx, MethodDeleteBatch, false)
	return c.firstErr("delete batch", f)
}

// GetBatch fetches many keys; the result slice is parallel to keys and
// contains nil for entries that are missing everywhere. Each key is
// asked of its primary, all primaries at once; the keys a primary does
// not have or cannot answer for are asked of their other replicas in
// one more round, all members at once. A key no replica returned fails
// the batch if one of them failed. The values belong to the caller.
func (c *Client) GetBatch(ctx context.Context, keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	if len(c.ring.members) == 0 {
		return nil, errEmptyRing
	}
	f := c.split(keys, nil, 1, 0)
	f.out = out
	f.run(ctx, MethodGetBatch, true)
	var missed []int
	for i, m := range f.owner {
		if f.calls[m].err != nil || out[i] == nil {
			out[i] = nil // a failed answer may have decoded part of its share
			missed = append(missed, i)
		}
	}
	if len(missed) > 0 {
		if err := c.getFromReplicas(ctx, f, missed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// getFromReplicas asks the keys of primaries (a GetBatch's first round,
// one replica per key) at positions missed of their other replicas, in
// one fan-out round, and fills primaries.out with the first value a
// replica returns, in preference order.
func (c *Client) getFromReplicas(ctx context.Context, primaries *fanOut, missed []int) error {
	keys := make([]string, len(missed))
	for j, i := range missed {
		keys[j] = primaries.keys[i]
	}
	f := c.split(keys, nil, c.replicas, 1)
	f.out = make([][]byte, len(keys)*f.r)
	f.run(ctx, MethodGetBatch, true)
	for j, i := range missed {
		m := f.owner[j*f.r] // the primary, asked in the first round
		err := primaries.calls[m].err
		for p := j*f.r + 1; p < (j+1)*f.r && primaries.out[i] == nil; p++ {
			if e := f.calls[f.owner[p]].err; e != nil {
				if err == nil {
					err, m = e, f.owner[p]
				}
				continue
			}
			primaries.out[i] = f.out[p]
		}
		if primaries.out[i] == nil && err != nil {
			return fmt.Errorf("dht get %q at %s: %w", keys[j], c.ring.members[m], err)
		}
	}
	return nil
}
