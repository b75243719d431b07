package hdfs

import (
	"blobseer/internal/pagestore"
	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Datanode stores chunks. The storage engine is the same pluggable
// pagestore the BlobSeer providers use, so the two systems' storage
// costs are comparable in experiments.
type Datanode struct {
	srv   *rpc.Server
	store pagestore.Store
}

// NewDatanode starts a datanode at addr over the given store.
func NewDatanode(net transport.Network, addr transport.Addr, store pagestore.Store) (*Datanode, error) {
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		return nil, err
	}
	d := &Datanode{srv: srv, store: store}
	srv.Handle(DNPutBlock, d.handlePutBlock)
	srv.Handle(DNGetBlock, d.handleGetBlock)
	return d, nil
}

// Addr returns the datanode endpoint.
func (d *Datanode) Addr() transport.Addr { return d.srv.Addr() }

// Close stops the datanode.
func (d *Datanode) Close() error {
	err := d.srv.Close()
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

func blockKey(id uint64) pagestore.Key { return pagestore.Key{Blob: id} }

func (d *Datanode) handlePutBlock(r *wire.Reader) (wire.Marshaler, error) {
	var req PutBlockReq
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	if err := d.store.Put(blockKey(req.ID), req.Data); err != nil {
		return nil, err
	}
	return nil, nil
}

func (d *Datanode) handleGetBlock(r *wire.Reader) (wire.Marshaler, error) {
	var req BlockRef
	if err := req.DecodeFrom(r); err != nil {
		return nil, err
	}
	data, err := d.store.Get(blockKey(req.ID))
	if err != nil {
		return nil, err
	}
	return &BlockDataResp{Data: data}, nil
}
