package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cache"
	"blobseer/internal/dht"
	"blobseer/internal/kvlog"
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/segtree"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Layer probes call one public entry point at a time, alone, with
// inputs shaped like the workloads' (64 KiB pages, 8-node DHT batches,
// 128-byte journal records). They say what a layer costs when nothing
// contends with it; the workloads say what it costs under load.

// timed runs fn in batches until both the time budget and the call
// count are spent (the slow probes ask for fewer calls than the fast
// ones, so that all of them fit in a quarter of a run), and returns the
// median batch's microseconds per call and the mean allocations per call.
func timed(budget time.Duration, minCalls, batch int, fn func() error) (usPerCall, allocsPerCall float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	calls := 0
	start := time.Now()
	for calls < minCalls || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		per = append(per, us(time.Since(t0))/float64(batch))
		calls += batch
		if calls >= 64*minCalls { // a fast call in a long budget: enough
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls), nil
}

// blobMsg is a byte-slice message for the rpc echo probes.
type blobMsg struct{ data []byte }

func (m *blobMsg) AppendTo(b []byte) []byte { return wire.AppendBytes(b, m.data) }
func (m *blobMsg) DecodeFrom(r *wire.Reader) error {
	m.data = r.Bytes()
	return r.Err()
}

type prober struct {
	ctx     context.Context
	outDir  string
	each    time.Duration // budget per probe
	calls   int           // minimum calls per probe
	metrics map[string]float64
	page    []byte
}

const numProbes = 20

func runProbes(ctx context.Context, outDir string, budget time.Duration, scale float64) (map[string]float64, error) {
	e := env{scale: scale}
	p := &prober{ctx: ctx, outDir: outDir, each: budget / numProbes, calls: e.n(1000, 20), metrics: map[string]float64{}, page: make([]byte, 64<<10)}
	pagestore.Fill(p.page, 7)
	for _, f := range []func() error{p.wire, p.rpc, p.transport, p.pagestore, p.kvlog, p.segtree, p.dht, p.cache, p.blob} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	return p.metrics, nil
}

// run times fn and files the result under name_us (and name_allocs).
func (p *prober) run(name string, withAllocs bool, minCalls int, fn func() error) error {
	batch := 16
	if minCalls < 64 {
		batch = 1
	}
	usec, allocs, err := timed(p.each, minCalls, batch, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.metrics[name+"_us"] = usec
	if withAllocs {
		p.metrics[name+"_allocs"] = allocs
	}
	return nil
}

func (p *prober) wire() error {
	var req blob.PutPageReq
	req.Key.Blob, req.Key.Version, req.Key.Index = 1, 2, 3
	req.Data = p.page
	return p.run("wire.putpage64k", true, p.calls, func() error {
		var back blob.PutPageReq
		return wire.Unmarshal(wire.Marshal(&req), &back)
	})
}

func (p *prober) rpc() error {
	net := transport.NewMemNet()
	addr := transport.MakeAddr("probe-srv", "echo")
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	echo := rpc.M(1, "benchmark.echo")
	srv.Handle(echo, func(r *wire.Reader) (wire.Marshaler, error) {
		var m blobMsg
		if err := m.DecodeFrom(r); err != nil {
			return nil, err
		}
		return &m, nil
	})
	pool := rpc.NewPool(net, transport.MakeAddr("probe-cli", "client"))
	defer pool.Close()
	for name, payload := range map[string][]byte{"rpc.echo64k": p.page, "rpc.echo0": nil} {
		req := &blobMsg{data: payload}
		err := p.run(name, true, p.calls, func() error {
			var resp blobMsg
			if err := pool.Call(p.ctx, addr, echo, req, &resp); err != nil {
				return err
			}
			if len(resp.data) != len(payload) {
				return fmt.Errorf("echo returned %d bytes, sent %d", len(resp.data), len(payload))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// transport times a 64 KiB frame through MemNet with a receiver
// draining, then through simnet at the lan profile, where the observed
// time over the modeled time says whether append_shared_lan's wire
// means anything.
func (p *prober) transport() error {
	send := func(net transport.Network, minCalls int, name string) (float64, error) {
		addr := transport.MakeAddr("probe-rx", "sink")
		l, err := net.Listen(addr)
		if err != nil {
			return 0, err
		}
		defer l.Close()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			c, err := l.Accept()
			if err != nil {
				return
			}
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}()
		c, err := net.Dial(transport.MakeAddr("probe-tx", "source"), addr)
		if err != nil {
			return 0, err
		}
		err = p.run(name, false, minCalls, func() error { return c.Send(p.page) })
		c.Close()
		<-drained
		return p.metrics[name+"_us"], err
	}
	if _, err := send(transport.NewMemNet(), p.calls, "transport.memnet_send64k"); err != nil {
		return err
	}
	lan := lanProfile()
	observed, err := send(simnet.New(transport.NewMemNet(), lan), 16, "simnet.send64k")
	if err != nil {
		return err
	}
	delete(p.metrics, "simnet.send64k_us")
	modeled := float64(len(p.page)+lan.FrameOverhead)/lan.Bandwidth*1e6 + us(lan.Latency)
	p.metrics["simnet.shaping_error_ratio"] = observed / modeled
	return nil
}

func (p *prober) pagestore() error {
	store := pagestore.NewMemory()
	defer store.Close()
	var k pagestore.Key
	k.Blob = 1
	const live = 512 // bounded live set
	puts := uint64(0)
	if err := p.run("pagestore.put64k", false, p.calls, func() error {
		k.Index = puts % live
		puts++
		return store.Put(k, p.page)
	}); err != nil {
		return err
	}
	return p.run("pagestore.get64k", false, p.calls, func() error {
		k.Index = (k.Index + 1) % min(puts, live)
		_, err := store.Get(k)
		return err
	})
}

func (p *prober) kvlog() error {
	dir, err := os.MkdirTemp(p.outDir, "probe-kvlog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.log")
	var opts kvlog.Options
	store, err := kvlog.Open(path, opts)
	if err != nil {
		return err
	}
	value := p.page[:128]
	n := 0
	err = p.run("kvlog.put128", false, p.calls, func() error {
		n++
		return store.Put(fmt.Sprintf("j/%016x", n), value)
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t0 := time.Now()
	store, err = kvlog.Open(path, opts)
	if err != nil {
		return err
	}
	p.metrics["kvlog.replay_us_per_record"] = us(time.Since(t0)) / float64(n)
	if store.Len() != n {
		store.Close()
		return fmt.Errorf("kvlog replayed %d records of %d", store.Len(), n)
	}
	return store.Close()
}

// appendHistory is the write-record history of a BLOB grown by appends
// of n pages each.
type appendHistory struct {
	blob  uint64
	recs  []segtree.WriteRecord
	pages uint64
}

func (h *appendHistory) commit(ctx context.Context, store segtree.NodeStore, n uint64) error {
	var w segtree.WriteRecord
	w.Ver = uint64(len(h.recs)) + 1
	w.Off, w.N, w.PagesAfter = h.pages, n, h.pages+n
	refs := make([]segtree.PageRef, n)
	for i := range refs {
		refs[i].Page.Blob, refs[i].Page.Version, refs[i].Page.Index = h.blob, w.Ver, h.pages+uint64(i)
		refs[i].Providers = []string{"node-000/provider"}
	}
	if err := segtree.Commit(ctx, store, h.blob, w, h.recs, refs); err != nil {
		return err
	}
	h.recs = append(h.recs, w)
	h.pages += n
	return nil
}

// segtree commits onto (and resolves from) a 4096-page BLOB built by
// 256 appends of 16 pages, in an in-memory node store.
func (p *prober) segtree() error {
	for _, n := range []uint64{1, 16} {
		store := segtree.NewMemStore()
		h := &appendHistory{blob: 100 + n}
		for v := 0; v < 256; v++ {
			if err := h.commit(p.ctx, store, 16); err != nil {
				return err
			}
		}
		err := p.run(fmt.Sprintf("segtree.commit%d", n), true, p.calls/5, func() error { return h.commit(p.ctx, store, n) })
		if err != nil {
			return err
		}
		if n == 16 {
			ver, pages := uint64(len(h.recs)), h.pages
			i := uint64(0)
			err := p.run("segtree.resolve16", false, p.calls/5, func() error {
				i = (i + 16) % (pages - 16)
				slots, err := segtree.Resolve(p.ctx, store, h.blob, ver, pages, i, 16)
				if err == nil && len(slots) != 16 {
					err = fmt.Errorf("resolved %d slots of 16", len(slots))
				}
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *prober) dht() error {
	net := transport.NewMemNet()
	var addrs []transport.Addr
	for i := 0; i < 3; i++ {
		s, err := dht.NewServer(net, transport.MakeAddr(fmt.Sprintf("probe-meta-%d", i), "metadata"))
		if err != nil {
			return err
		}
		defer s.Close()
		addrs = append(addrs, s.Addr())
	}
	pool := rpc.NewPool(net, transport.MakeAddr("probe-cli", "client"))
	defer pool.Close()
	client := dht.NewClient(dht.NewRing(addrs, 64), pool, 2)
	kvs := make([]dht.KV, 8)
	keys := make([]string, len(kvs))
	round := 0
	next := func() {
		round = (round + 1) % 1024 // bounded key set
		for i := range kvs {
			keys[i] = segtree.NodeKey(9, uint64(round), uint64(i), 1)
			kvs[i].Key, kvs[i].Value = keys[i], p.page[:48]
		}
	}
	if err := p.run("dht.putbatch8", false, p.calls, func() error {
		next()
		return client.PutBatch(p.ctx, kvs)
	}); err != nil {
		return err
	}
	return p.run("dht.getbatch8", false, p.calls, func() error {
		next()
		_, err := client.GetBatch(p.ctx, keys)
		return err
	})
}

func (p *prober) cache() error {
	c := cache.New(8<<20, nil)
	var k pagestore.Key
	k.Blob = 1
	for k.Index = 0; k.Index < 64; k.Index++ {
		c.Put(k, p.page)
	}
	return p.run("cache.hit", false, p.calls, func() error {
		k.Index = (k.Index + 1) % 64
		_, err := c.Get(p.ctx, k, func(context.Context) ([]byte, error) {
			return nil, fmt.Errorf("page %v fell out of a cache it fits in", k)
		})
		return err
	})
}

// blob drives the raw BLOB client below the file system: one-page and
// sixteen-page appends (with the frames one of the latter costs, the
// roadmap's "RPCs per multi-page append") and a sixteen-page read with
// the page cache off, so every read reaches the providers.
func (p *prober) blob() error {
	nt := newNetTrace(transport.NewMemNet())
	var cfg blob.ClusterConfig
	cfg.Providers, cfg.MetaProviders, cfg.CacheBytes = 8, 3, -1
	cluster, err := blob.NewCluster(nt, cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	client := cluster.Client("client-0")
	defer client.Close()
	pageSize := uint64(len(p.page))
	big := make([]byte, 16*len(p.page))
	for i := 0; i < 16; i++ {
		copy(big[i*len(p.page):], p.page)
	}
	// A fresh BLOB per probe, deleted after, so the appends it times
	// start from the same history and the heap does not grow with them.
	for _, pr := range []struct {
		name string
		data []byte
	}{{"blob.append1p", p.page}, {"blob.append16p", big}} {
		b, err := client.Create(p.ctx, pageSize)
		if err != nil {
			return err
		}
		calls := 0
		n0 := nt.snapshot()
		var last blob.WriteResult
		err = p.run(pr.name, true, p.calls/10, func() (err error) {
			calls++
			last, err = b.Append(p.ctx, pr.data)
			return err
		})
		if err != nil {
			return err
		}
		if len(pr.data) > len(p.page) {
			p.metrics["blob.append16p_frames"] = float64(nt.snapshot().sub(n0).totalFrames()) / float64(calls)
			info, err := b.WaitPublished(p.ctx, last.Ver)
			if err != nil {
				return err
			}
			off := uint64(0)
			err = p.run("blob.read16p", false, p.calls/10, func() error {
				off = (off + uint64(len(big))) % (info.Size - uint64(len(big)))
				_, err := b.ReadAt(p.ctx, info.Ver, off/pageSize*pageSize, uint64(len(big)))
				return err
			})
			if err != nil {
				return err
			}
		}
		if err := b.Delete(p.ctx); err != nil {
			return err
		}
	}
	return nil
}
