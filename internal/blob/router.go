package blob

// router.go resolves blob → version-manager shard for every caller:
// blob.Client, the GC collector, snapshot/history readers, shuffle,
// and bsfs all route metadata calls through a VMRouter instead of a
// private vmPool, so the whole system shares one blob→shard mapping —
// the same consistent-hash ring the shards themselves use to stripe id
// allocation (vmanager.go). Shard addresses are stable across
// restarts: failover replaces the process behind an address, never the
// address, so the ring needs no membership protocol.
//
// The router also owns the failover retry policy: transport-level
// failures (connection lost, endpoint unbound, server closing) are
// retried with capped exponential backoff so a shard restart within
// the retry budget is invisible to callers — in-flight appends stall
// briefly instead of failing.

import (
	"context"
	"errors"
	"hash/fnv"
	"strconv"
	"sync/atomic"
	"time"

	"blobseer/internal/dht"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// vmRingVnodes is the virtual-node count of the blob→shard ring. Both
// the router (to route) and each shard (to stripe id allocation) build
// the ring with this count over the same ShardAddrs, so they always
// agree on ownership.
const vmRingVnodes = 64

// vmShard returns the member of a blob→shard ring that owns blob, the
// ring's primary for the key "blob/<id>". Shared by router lookup and
// manager-side ownership checks. The key is rendered into a stack
// buffer and the ring returns its one owner, so routing a call
// allocates nothing.
func vmShard(ring *dht.Ring, blob uint64) transport.Addr {
	var buf [32]byte
	return ring.Primary(string(strconv.AppendUint(append(buf[:0], "blob/"...), blob, 10)))
}

// Retry budget for shard failover, mirroring the shuffle fetch loop's
// 5ms→320ms capped-exponential schedule; 12 attempts ≈ 1.9s total,
// comfortably covering a standby replay-and-takeover.
const (
	vmRetryBase     = 5 * time.Millisecond
	vmRetryCap      = 320 * time.Millisecond
	vmRetryAttempts = 12
)

// VMRouter maps blob ids to version-manager shards and calls through
// with failover retry. Safe for concurrent use.
type VMRouter struct {
	pool   *rpc.Pool
	shards []transport.Addr
	ring   *dht.Ring // nil with a single shard
	rr     atomic.Uint32
}

// NewVMRouter builds a router over the shard addresses, calling from
// pool. With one shard the ring is skipped entirely. seed offsets the
// creation round-robin: routers are per-client, so without a
// per-client offset every fresh client's first CreateBlob would land
// on shard 0 and a one-create-per-client workload (one file per
// mount, say) would pile all ownership onto one shard.
func NewVMRouter(pool *rpc.Pool, shards []transport.Addr, seed string) *VMRouter {
	r := &VMRouter{pool: pool, shards: append([]transport.Addr(nil), shards...)}
	if len(r.shards) > 1 {
		r.ring = dht.NewRing(r.shards, vmRingVnodes)
		h := fnv.New32a()
		h.Write([]byte(seed))
		r.rr.Store(h.Sum32())
	}
	return r
}

// Shards returns every shard address, in ring-slot order.
func (r *VMRouter) Shards() []transport.Addr {
	return append([]transport.Addr(nil), r.shards...)
}

// Shard returns the shard owning blob.
func (r *VMRouter) Shard(blob uint64) transport.Addr {
	if r.ring == nil {
		return r.shards[0]
	}
	return vmShard(r.ring, blob)
}

// CreateTarget picks the shard for the next CreateBlob, round-robin so
// creations spread load; the created id is owned by whichever shard
// allocated it (shards allocate only ids the ring maps to themselves).
func (r *VMRouter) CreateTarget() transport.Addr {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	return r.shards[int(r.rr.Add(1)-1)%len(r.shards)]
}

// Call routes one RPC to blob's shard with failover retry.
func (r *VMRouter) Call(ctx context.Context, blob uint64, method rpc.Method, req wire.Marshaler, resp wire.Unmarshaler) error {
	return r.CallAddr(ctx, r.Shard(blob), method, req, resp)
}

// CallAddr issues one RPC to a specific shard with failover retry:
// transport-level failures back off 5ms→320ms (capped exponential) and
// redial, so a shard being killed and taken over within the budget
// costs latency, not an error. Application errors (not-found, version
// conflicts) are never retried.
func (r *VMRouter) CallAddr(ctx context.Context, addr transport.Addr, method rpc.Method, req wire.Marshaler, resp wire.Unmarshaler) error {
	backoff := vmRetryBase
	var err error
	for attempt := 0; attempt < vmRetryAttempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
			if backoff *= 2; backoff > vmRetryCap {
				backoff = vmRetryCap
			}
		}
		err = r.pool.Call(ctx, addr, method, req, resp)
		if err == nil || !retryableVMErr(err) {
			return err
		}
	}
	return err
}

// retryableVMErr reports whether err is a transport-level failure a
// failover can cure: the connection died, the endpoint is (still)
// unbound, or the server answered while shutting down. RemoteError.Is
// makes the server-side ErrServerClosed match across the wire.
func retryableVMErr(err error) bool {
	return errors.Is(err, rpc.ErrConnLost) ||
		errors.Is(err, rpc.ErrServerClosed) ||
		errors.Is(err, transport.ErrNoListener)
}
