package blob

import (
	"sync/atomic"

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

// MonitorSample reports the provider's live stats in the cluster
// monitor's sample shape ("_total" keys are counters, others gauges).
func (p *Provider) MonitorSample() map[string]float64 {
	return map[string]float64{
		"pages":             float64(p.store.Len()),
		"bytes_used":        float64(p.store.BytesUsed()),
		"read_pages_total":  float64(p.pagesRead.Load()),
		"read_bytes_total":  float64(p.bytesRead.Load()),
		"write_pages_total": float64(p.pagesWritten.Load()),
		"write_bytes_total": float64(p.bytesWritten.Load()),
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

func (p *Provider) handleGetPage(r *wire.Reader) (wire.Marshaler, error) {
	var req GetPageReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	data, err := p.store.Get(req.Key)
	if err != nil {
		return nil, err
	}
	p.pagesRead.Add(1)
	p.bytesRead.Add(uint64(len(data)))
	return &GetPageResp{Data: data}, nil
}

// handleDeletePages drops a garbage-collection batch. Keys the store
// does not hold are skipped silently (replication spreads a version's
// pages over many providers).
func (p *Provider) handleDeletePages(r *wire.Reader) (wire.Marshaler, error) {
	var req DeletePagesReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	resp := &DeletePagesResp{}
	before := p.store.BytesUsed()
	for _, k := range req.Keys {
		if !p.store.Has(k) {
			continue
		}
		if err := p.store.Delete(k); err != nil {
			return nil, err
		}
		resp.Deleted++
	}
	if freed := before - p.store.BytesUsed(); freed > 0 {
		resp.BytesFreed = uint64(freed)
	}
	return resp, nil
}
