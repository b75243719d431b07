package blob

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// reqResp constrains a pointer to a wire message usable on both sides
// of a forwarded call.
type reqResp[T any] interface {
	*T
	wire.Marshaler
	wire.Unmarshaler
}

// flakyVM is an RPC proxy in front of a real version manager that
// fails VMComplete while completeFails > 0, simulating a writer that
// loses its completion acknowledgement after committing data. The
// error it fails with is configurable: transport-level errors are
// retried by the client's router, application errors are not.
type flakyVM struct {
	srv  *rpc.Server
	pool *rpc.Pool
	vm   transport.Addr

	completeFails atomic.Int64
	completeErr   error
}

func newFlakyVM(t *testing.T, net transport.Network, vm transport.Addr) *flakyVM {
	t.Helper()
	srv, err := rpc.NewServer(net, transport.MakeAddr("flaky-host", "vm-proxy"))
	if err != nil {
		t.Fatal(err)
	}
	f := &flakyVM{
		srv:  srv,
		pool: rpc.NewPool(net, transport.MakeAddr("flaky-host", "client")),
		vm:   vm,
	}
	t.Cleanup(func() {
		srv.Close()
		f.pool.Close()
	})
	srv.Handle(VMCreateBlob, forward[CreateBlobReq, CreateBlobResp](f, VMCreateBlob))
	srv.Handle(VMAssign, forward[AssignReq, AssignResp](f, VMAssign))
	srv.Handle(VMSeal, forwardNoResp[VersionRef](f, VMSeal))
	srv.Handle(VMGetVersion, forward[GetVersionReq, VersionResp](f, VMGetVersion))
	srv.Handle(VMLatest, forward[BlobRef, VersionInfo](f, VMLatest))
	srv.Handle(VMWaitPublished, forward[VersionRef, VersionInfo](f, VMWaitPublished))
	f.completeErr = rpc.ErrConnLost
	srv.Handle(VMComplete, func(r *wire.Reader) (wire.Marshaler, error) {
		if f.completeFails.Add(-1) >= 0 {
			return nil, f.completeErr // never reaches the real manager
		}
		return forwardNoResp[VersionRef](f, VMComplete)(r)
	})
	return f
}

// forward relays one proxied method with a response body.
func forward[Req, Resp any, PReq reqResp[Req], PResp reqResp[Resp]](f *flakyVM, method rpc.Method) rpc.HandlerFunc {
	return func(r *wire.Reader) (wire.Marshaler, error) {
		req := PReq(new(Req))
		if err := req.DecodeFrom(r); err != nil {
			return nil, err
		}
		resp := PResp(new(Resp))
		if err := f.pool.Call(context.Background(), f.vm, method, req, resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
}

// forwardNoResp relays one proxied method without a response body.
func forwardNoResp[Req any, PReq reqResp[Req]](f *flakyVM, method rpc.Method) rpc.HandlerFunc {
	return func(r *wire.Reader) (wire.Marshaler, error) {
		req := PReq(new(Req))
		if err := req.DecodeFrom(r); err != nil {
			return nil, err
		}
		if err := f.pool.Call(context.Background(), f.vm, method, req, nil); err != nil {
			return nil, err
		}
		return nil, nil
	}
}

func TestFailedCompleteDoesNotWedgeChain(t *testing.T) {
	// Sealing is disabled: if a failed VMComplete left its version
	// pending, the publication chain would be wedged forever. The
	// proxy rejects the complete with an application-level error so
	// the router does not retry it (transport-level failures heal;
	// see TestCompleteRetriesThroughConnLoss).
	net := transport.NewMemNet()
	cluster, err := NewCluster(net, ClusterConfig{Providers: 3, MetaProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	proxy := newFlakyVM(t, net, cluster.VMs[0].Addr())
	proxy.completeErr = errors.New("complete rejected")
	proxy.completeFails.Store(1)

	client := NewClient(ClientConfig{
		Net:             net,
		Host:            "flaky-cli",
		VersionManagers: []transport.Addr{proxy.srv.Addr()},
		ProviderManager: cluster.PM.Addr(),
		Metadata:        cluster.MetaAddrs(),
	})
	defer client.Close()

	bl, err := client.Create(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128)
	if _, err := bl.Append(ctx, data); err == nil {
		t.Fatal("append with failing complete reported success")
	}

	// The failed writer must have sealed its orphaned version, so the
	// next append publishes without waiting on it.
	res, err := bl.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	info, err := bl.WaitPublished(wctx, res.Ver)
	if err != nil {
		t.Fatalf("chain wedged after failed complete: %v", err)
	}
	if !info.Published {
		t.Fatalf("info = %+v", info)
	}
	// The first version was sealed, not published with data.
	v1, err := bl.GetVersion(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Sealed {
		t.Fatalf("v1 = %+v, want sealed", v1)
	}
}

func TestCompleteRetriesThroughConnLoss(t *testing.T) {
	// A completion acknowledgement lost to a dropped connection is a
	// transport-level failure: the router retries it (Complete is
	// idempotent on the manager side), so the append succeeds instead
	// of orphaning a committed version.
	net := transport.NewMemNet()
	cluster, err := NewCluster(net, ClusterConfig{Providers: 3, MetaProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	proxy := newFlakyVM(t, net, cluster.VMs[0].Addr())
	proxy.completeFails.Store(1) // fails once with rpc.ErrConnLost, then heals

	client := NewClient(ClientConfig{
		Net:             net,
		Host:            "flaky-cli",
		VersionManagers: []transport.Addr{proxy.srv.Addr()},
		ProviderManager: cluster.PM.Addr(),
		Metadata:        cluster.MetaAddrs(),
	})
	defer client.Close()

	bl, err := client.Create(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bl.Append(ctx, make([]byte, 128))
	if err != nil {
		t.Fatalf("append across conn loss: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := bl.WaitPublished(wctx, res.Ver); err != nil {
		t.Fatalf("version never published: %v", err)
	}
}
