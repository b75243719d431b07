package blob

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Strategy decides which providers receive the pages of one allocation.
// Implementations are called under the provider manager's lock and must
// not block.
type Strategy interface {
	// Name identifies the strategy in configs and experiment output.
	Name() string
	// Pick returns `replicas` distinct provider indices into the
	// providers slice for each of nPages pages, as one row-major slice:
	// page i's providers are [i*replicas, (i+1)*replicas). loads[i] is
	// how many pages have been leased onto providers[i] (strategies may
	// ignore it); it runs ahead of the pages the provider stores by what
	// clients hold and have not written yet, about one lease each.
	Pick(nPages, replicas int, providers []string, loads []uint64) []int
}

// RoundRobin spreads consecutive pages over consecutive providers. It
// is BlobSeer's default allocation: with all appenders striping in
// round-robin order from a shared cursor, pages spread evenly.
type RoundRobin struct{ next int }

// Name implements Strategy.
func (s *RoundRobin) Name() string { return "roundrobin" }

// Pick implements Strategy.
func (s *RoundRobin) Pick(nPages, replicas int, providers []string, loads []uint64) []int {
	out := make([]int, 0, nPages*replicas)
	p := len(providers)
	for i := 0; i < nPages; i++ {
		for j := 0; j < replicas; j++ {
			out = append(out, (s.next+j)%p)
		}
		s.next = (s.next + 1) % p
	}
	return out
}

// RandomK picks uniform random distinct providers per page. Collisions
// between concurrent writers model the balls-into-bins hotspots of a
// random placement policy.
type RandomK struct{ rng *rand.Rand }

// NewRandomK returns a RandomK strategy with the given seed.
func NewRandomK(seed int64) *RandomK {
	return &RandomK{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (s *RandomK) Name() string { return "random" }

// Pick implements Strategy.
func (s *RandomK) Pick(nPages, replicas int, providers []string, loads []uint64) []int {
	out := make([]int, 0, nPages*replicas)
	p := len(providers)
	for i := 0; i < nPages; i++ {
		for len(out) < (i+1)*replicas {
			if c := s.rng.Intn(p); !slices.Contains(out[i*replicas:], c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// LeastLoaded assigns each page to the providers with the fewest pages
// leased so far.
type LeastLoaded struct{}

// Name implements Strategy.
func (s *LeastLoaded) Name() string { return "leastloaded" }

// Pick implements Strategy.
func (s *LeastLoaded) Pick(nPages, replicas int, providers []string, loads []uint64) []int {
	// Work on a copy so intra-call assignments influence later pages.
	l := append([]uint64(nil), loads...)
	out := make([]int, 0, nPages*replicas)
	for i := 0; i < nPages; i++ {
		for len(out) < (i+1)*replicas {
			best := -1
			for c := range l {
				if slices.Contains(out[i*replicas:], c) {
					continue
				}
				if best < 0 || l[c] < l[best] {
					best = c
				}
			}
			out = append(out, best)
			l[best]++
		}
	}
	return out
}

// ProviderManager is BlobSeer's provider manager (§3.1.1): providers
// register with it, and writers ask it which providers should store
// each page, "aiming at load-balancing". A writer asks ahead of its
// writes, a lease of pages at a time (Client.allocPages), so the
// manager balances pages, the one unit both sides know in advance.
type ProviderManager struct {
	srv      *rpc.Server
	strategy Strategy

	mu        sync.Mutex
	providers []string
	index     map[string]int
	loads     []uint64 // pages leased per provider
}

// NewProviderManager starts a provider manager at addr using the given
// strategy (nil means RoundRobin).
func NewProviderManager(net transport.Network, addr transport.Addr, strategy Strategy) (*ProviderManager, error) {
	if strategy == nil {
		strategy = &RoundRobin{}
	}
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		return nil, err
	}
	pm := &ProviderManager{srv: srv, strategy: strategy, index: make(map[string]int)}
	srv.Handle(PMAlloc, pm.handleAlloc)
	return pm, nil
}

// Addr returns the manager's endpoint.
func (pm *ProviderManager) Addr() transport.Addr { return pm.srv.Addr() }

// Close stops the manager.
func (pm *ProviderManager) Close() error { return pm.srv.Close() }

// Register adds a provider. Providers register in-process, as the
// cluster starts them.
func (pm *ProviderManager) Register(addr string) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if _, ok := pm.index[addr]; ok {
		return
	}
	pm.index[addr] = len(pm.providers)
	pm.providers = append(pm.providers, addr)
	pm.loads = append(pm.loads, 0)
}

// maxAllocPages bounds the pages one alloc may ask for: far above a
// lease (leasePages) plus any write that fits in memory, and far below
// a count whose placement slice a strategy cannot make.
const maxAllocPages = 1 << 20

func (pm *ProviderManager) handleAlloc(r *wire.Reader) (wire.Marshaler, error) {
	var req AllocReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if req.NPages == 0 {
		return nil, errors.New("blob: alloc of zero pages")
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if len(pm.providers) == 0 {
		return nil, errors.New("blob: no providers registered")
	}
	replicas := int(req.Replicas)
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(pm.providers) {
		replicas = len(pm.providers)
	}
	if req.NPages > maxAllocPages || int(req.NPages) > math.MaxInt/replicas {
		return nil, fmt.Errorf("blob: alloc of %d pages of %d replicas, at most %d pages at a time", req.NPages, replicas, maxAllocPages)
	}
	picks := pm.strategy.Pick(int(req.NPages), replicas, pm.providers, pm.loads)
	if len(picks) != int(req.NPages)*replicas {
		return nil, fmt.Errorf("blob: strategy returned %d providers for %d pages of %d replicas", len(picks), req.NPages, replicas)
	}
	resp := &AllocResp{
		Replicas:  uint64(replicas),
		Providers: make([]string, len(picks)),
	}
	for i, idx := range picks {
		resp.Providers[i] = pm.providers[idx]
		pm.loads[idx]++
	}
	return resp, nil
}
