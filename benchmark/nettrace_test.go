package main

import (
	"context"
	"math"
	"testing"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/simnet"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// echoCalls makes n echo calls of size bytes each to a "provider"
// endpoint over net, dialing from client-0.
func echoCalls(t *testing.T, net transport.Network, n, size int) {
	t.Helper()
	addr := transport.MakeAddr("srv-host", "provider")
	srv, err := rpc.NewServer(net, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	echo := rpc.M(1, "benchmark.test_echo")
	srv.Handle(echo, func(r *wire.Reader) (wire.Marshaler, error) {
		var m blobMsg
		if err := m.DecodeFrom(r); err != nil {
			return nil, err
		}
		return &m, nil
	})
	pool := rpc.NewPool(net, transport.MakeAddr("client-0", "client"))
	defer pool.Close()
	req := &blobMsg{data: make([]byte, size)}
	for i := 0; i < n; i++ {
		var resp blobMsg
		if err := pool.Call(context.Background(), addr, echo, req, &resp); err != nil {
			t.Fatal(err)
		}
	}
}

// The decorator's counts must agree with simnet's own per-host
// accounting, which counts the same frames at a different layer, and
// must be the same over MemNet as over simnet: the calls are the same.
func TestNetTraceCountsMatchByConstruction(t *testing.T) {
	const calls, size = 25, 32 << 10

	mem := newNetTrace(transport.NewMemNet())
	echoCalls(t, mem, calls, size)
	onMem := mem.snapshot()

	var cfg simnet.Config
	cfg.Bandwidth = 1 << 30 // fast enough that nothing sleeps
	cfg.FrameOverhead = 64
	sim := simnet.New(transport.NewMemNet(), cfg)
	shaped := newNetTrace(sim)
	echoCalls(t, shaped, calls, size)
	onSim := shaped.snapshot()

	if onMem.frames != onSim.frames || onMem.bytes != onSim.bytes {
		t.Errorf("counts differ between MemNet and simnet:\n%+v\n%+v", onMem, onSim)
	}
	if got := onSim.frames[classProvider]; got != 2*calls {
		t.Errorf("%d frames to the provider class, want %d (one request and one response per call)", got, 2*calls)
	}
	if other := onSim.totalFrames() - onSim.frames[classProvider]; other != 0 || onSim.mrFrames != 0 {
		t.Errorf("%d frames outside the provider class, %d Map/Reduce frames; want none", other, onSim.mrFrames)
	}
	// simnet counts, for host client-0, the frames it sent and received
	// with the modeled overhead added to each.
	hs := sim.Stats("client-0")
	if hs.FramesOut != calls || hs.FramesIn != calls {
		t.Errorf("simnet saw %d frames out, %d in; want %d each", hs.FramesOut, hs.FramesIn, calls)
	}
	wire := hs.BytesOut + hs.BytesIn - int64(cfg.FrameOverhead)*(hs.FramesOut+hs.FramesIn)
	if got := onSim.bytes[classProvider]; got != wire {
		t.Errorf("decorator counted %d bytes, simnet %d", got, wire)
	}
	if min := int64(2 * calls * size); wire < min {
		t.Errorf("%d bytes on the wire, less than the %d of payload", wire, min)
	}
}

func TestNetTraceClassesAndMRHosts(t *testing.T) {
	for svc, want := range map[string]netClass{
		"vmanager": classVM, "pmanager": classPM, "provider": classProvider,
		"metadata": classDHT, "bsfs-ns": classNS, "shuffle": classOther,
	} {
		if got := classOf(transport.MakeAddr("h", svc)); got != want {
			t.Errorf("service %s is class %d, want %d", svc, got, want)
		}
	}
	for host, want := range map[string]bool{"node-003": true, "jobclient": true, "client-0": false, "vmanager-host": false} {
		if isMRHost(host) != want {
			t.Errorf("isMRHost(%s) = %v", host, !want)
		}
	}
}

// On simnet, Send blocks for the NIC reservation plus the latency, so
// the decorator's send wait must be the modeled time.
func TestNetTraceSendWaitIsModeledTime(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps for the modeled wire time")
	}
	// Frames long enough on the wire that the sleep's own overshoot
	// (most of a millisecond on a virtual machine) stays small beside them.
	const frames, size = 8, 2 << 20
	var cfg simnet.Config
	cfg.Bandwidth = 100 << 20
	cfg.Latency = 2 * time.Millisecond
	cfg.FrameOverhead = 64
	cfg.SleepFloor = 100 * time.Microsecond
	nt := newNetTrace(simnet.New(transport.NewMemNet(), cfg))

	addr := transport.MakeAddr("srv-host", "provider")
	l, err := nt.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
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
	c, err := nt.Dial(transport.MakeAddr("client-0", "client"), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < frames; i++ {
		if err := c.Send(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	got := nt.snapshot().sendWait[classProvider]
	perFrame := time.Duration(float64(size+cfg.FrameOverhead)/cfg.Bandwidth*float64(time.Second)) + cfg.Latency
	want := frames * perFrame
	if math.Abs(float64(got-want)) > 0.10*float64(want) {
		t.Errorf("send wait %v over %d frames, modeled %v: more than 10%% apart", got, frames, want)
	}
}
