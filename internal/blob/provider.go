package blob

import (
	"sync/atomic"

	"blobseer/internal/metrics"
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Provider is one BlobSeer data provider: it "stores the pages, as
// assigned by the provider manager" (§3.1.1). The storage engine is
// pluggable (memory / synthesize — see pagestore). The HDFS baseline's
// datanodes are providers too (internal/hdfs): a block is the page
// {Blob: block id}.
type Provider struct {
	srv   *rpc.Server
	store pagestore.Store

	// Page traffic counters sampled by the cluster monitor.
	pagesRead    atomic.Uint64
	bytesRead    atomic.Uint64
	pagesWritten atomic.Uint64
	bytesWritten atomic.Uint64

	// failPuts simulates a failed node for fault-injection tests: puts
	// are rejected while it is non-zero; gets still succeed.
	failPuts atomic.Bool
}

// NewProvider starts a provider at addr over the given store.
func NewProvider(net transport.Network, addr transport.Addr, store pagestore.Store) (*Provider, error) {
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		return nil, err
	}
	p := &Provider{srv: srv, store: store}
	srv.Handle(ProvPutPage, p.handlePutPage)
	srv.Handle(ProvGetPage, p.handleGetPage)
	srv.Handle(ProvDeletePages, p.handleDeletePages)
	return p, nil
}

// Addr returns the provider's endpoint.
func (p *Provider) Addr() transport.Addr { return p.srv.Addr() }

// Store exposes the underlying page store (tests, tools).
func (p *Provider) Store() pagestore.Store { return p.store }

// SetFailPuts toggles write-failure injection.
//
//lint:unusedexport fault-injection hook for the blob, bsfs and gc tests
func (p *Provider) SetFailPuts(fail bool) { p.failPuts.Store(fail) }

// MonitorSample reports the provider's live stats to the cluster
// monitor: its page traffic as counters, its footprint as gauges.
func (p *Provider) MonitorSample() metrics.RegistrySnapshot {
	return metrics.RegistrySnapshot{
		Counters: map[string]uint64{
			"read_pages":  p.pagesRead.Load(),
			"read_bytes":  p.bytesRead.Load(),
			"write_pages": p.pagesWritten.Load(),
			"write_bytes": p.bytesWritten.Load(),
		},
		Gauges: map[string]float64{
			"pages":      float64(p.store.Len()),
			"bytes_used": float64(p.store.BytesUsed()),
		},
	}
}

// Close stops the provider and its store.
func (p *Provider) Close() error {
	err := p.srv.Close()
	if cerr := p.store.Close(); err == nil {
		err = cerr
	}
	return err
}

func (p *Provider) handlePutPage(r *wire.Reader) (wire.Marshaler, error) {
	var req PutPageReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if p.failPuts.Load() {
		return nil, wire.RemoteError("provider: injected put failure")
	}
	if err := p.store.Put(req.Key, req.Data); err != nil {
		return nil, err
	}
	p.pagesWritten.Add(1)
	p.bytesWritten.Add(uint64(len(req.Data)))
	return nil, nil
}

// handleGetPage answers with the stored page itself, pinned until rpc
// has marshalled it, so a read allocates nothing and the page's memory
// is not reused under it.
func (p *Provider) handleGetPage(r *wire.Reader) (wire.Marshaler, error) {
	var req GetPageReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	page, err := p.store.Pin(req.Key)
	if err != nil {
		return nil, err
	}
	p.pagesRead.Add(1)
	p.bytesRead.Add(uint64(len(page.Bytes())))
	return (*pinnedPage)(page), nil
}

// pinnedPage is a pinned stored page as the body of a GetPage answer,
// encoded as a GetPageResp. rpc marshals a body exactly once, when its
// handler returned no error, so AppendTo releases the pin. A pin that
// is never released costs only reuse: the page goes to the garbage
// collector, not to the free list.
type pinnedPage pagestore.Page

func (pp *pinnedPage) resp() GetPageResp { return GetPageResp{Data: (*pagestore.Page)(pp).Bytes()} }

// AppendTo implements wire.Marshaler, and releases the pin.
func (pp *pinnedPage) AppendTo(b []byte) []byte {
	resp := pp.resp()
	b = resp.AppendTo(b)
	(*pagestore.Page)(pp).Release()
	return b
}

// EncodedSize implements wire.Sizer.
func (pp *pinnedPage) EncodedSize() int {
	resp := pp.resp()
	return resp.EncodedSize()
}

// handleDeletePages drops a garbage-collection batch. Keys the store
// does not hold are skipped silently (replication spreads a version's
// pages over many providers). BytesFreed sums what each delete
// dropped, so a put that lands during the batch does not hide it.
func (p *Provider) handleDeletePages(r *wire.Reader) (wire.Marshaler, error) {
	var req DeletePagesReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	resp := &DeletePagesResp{}
	for _, k := range req.Keys {
		if n, ok := p.store.Delete(k); ok {
			resp.Deleted++
			resp.BytesFreed += uint64(n)
		}
	}
	return resp, nil
}
