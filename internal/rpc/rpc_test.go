package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/obs"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// echoMsg is a trivial wire message for tests.
type echoMsg struct {
	Text string
	N    uint64
}

func (m *echoMsg) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, m.Text)
	b = wire.AppendUvarint(b, m.N)
	return b
}

func (m *echoMsg) DecodeFrom(r *wire.Reader) error {
	m.Text = r.String()
	m.N = r.Uvarint()
	return r.Err()
}

var (
	methodEcho   = M(1, "test.Echo")
	methodFail   = M(2, "test.Fail")
	methodSlow   = M(3, "test.Slow")
	methodNobody = M(4, "test.Nobody")
)

func newEchoServer(t *testing.T, net transport.Network, addr transport.Addr) *Server {
	t.Helper()
	s, err := NewServer(net, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Handle(methodEcho, func(r *wire.Reader) (wire.Marshaler, error) {
		var req echoMsg
		if err := req.DecodeFrom(r); err != nil {
			return nil, err
		}
		return &echoMsg{Text: req.Text, N: req.N + 1}, nil
	})
	s.Handle(methodFail, func(r *wire.Reader) (wire.Marshaler, error) {
		return nil, errors.New("provider: page not found")
	})
	s.Handle(methodSlow, func(r *wire.Reader) (wire.Marshaler, error) {
		time.Sleep(200 * time.Millisecond)
		return &echoMsg{Text: "late"}, nil
	})
	s.Handle(methodNobody, func(r *wire.Reader) (wire.Marshaler, error) {
		return nil, nil
	})
	return s
}

func TestCallRoundTrip(t *testing.T) {
	for name, net := range map[string]transport.Network{
		"memnet": transport.NewMemNet(),
		"tcpnet": transport.NewTCPNet(),
	} {
		t.Run(name, func(t *testing.T) {
			newEchoServer(t, net, "srv/echo")
			c := NewClient(net, "cli/x", "srv/echo")
			defer c.Close()
			var resp echoMsg
			err := c.Call(context.Background(), methodEcho, &echoMsg{Text: "hi", N: 41}, &resp)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Text != "hi" || resp.N != 42 {
				t.Fatalf("resp = %+v", resp)
			}
		})
	}
}

func TestCallError(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	err := c.Call(context.Background(), methodFail, &echoMsg{}, nil)
	if err == nil || !strings.Contains(err.Error(), "page not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	err := c.Call(context.Background(), M(999, "test.Unregistered"), &echoMsg{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

// TestServeRegistersBeforeBinding: Serve's register runs while the
// address is still unbound, so a caller retrying against the address
// (a restarting server's clients) finds either no listener or every
// method it registers, never a bound server without its handlers.
func TestServeRegistersBeforeBinding(t *testing.T) {
	net := transport.NewMemNet()
	var dialErr error
	srv, err := Serve(net, "srv/echo", func(s *Server) {
		_, dialErr = net.Dial("cli/x", "srv/echo")
		s.Handle(methodEcho, func(r *wire.Reader) (wire.Marshaler, error) { return nil, nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !errors.Is(dialErr, transport.ErrNoListener) {
		t.Fatalf("dial from inside register = %v, want transport.ErrNoListener", dialErr)
	}
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	if err := c.Call(context.Background(), methodEcho, &echoMsg{}, nil); err != nil {
		t.Fatalf("call of the method register handled: %v", err)
	}
}

// TestUnknownMethodIsTheSentinel: the server wraps ErrUnknownMethod
// with the method and its own address, and the client still matches
// the sentinel with errors.Is.
func TestUnknownMethodIsTheSentinel(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	err := c.Call(context.Background(), M(999, "test.Unregistered"), &echoMsg{}, nil)
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v, want errors.Is(err, ErrUnknownMethod)", err)
	}
}

func TestNilBodyResponse(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	if err := c.Call(context.Background(), methodNobody, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancel(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Call(ctx, methodSlow, &echoMsg{}, &echoMsg{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Errorf("cancel did not return promptly")
	}
}

func TestConcurrentCalls(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	const callers = 16
	const perCaller = 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				var resp echoMsg
				req := &echoMsg{Text: fmt.Sprintf("g%d-i%d", g, i), N: uint64(i)}
				if err := c.Call(context.Background(), methodEcho, req, &resp); err != nil {
					errs <- err
					return
				}
				if resp.Text != req.Text || resp.N != req.N+1 {
					errs <- fmt.Errorf("mismatched response %+v for %+v", resp, req)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseFailsCalls(t *testing.T) {
	net := transport.NewMemNet()
	s := newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	// Prime the connection.
	if err := c.Call(context.Background(), methodEcho, &echoMsg{}, &echoMsg{}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- c.Call(context.Background(), methodSlow, &echoMsg{}, &echoMsg{})
	}()
	time.Sleep(30 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call survived server close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call hung after server close")
	}
}

func TestClientRedialsAfterServerRestart(t *testing.T) {
	net := transport.NewMemNet()
	s := newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	if err := c.Call(context.Background(), methodEcho, &echoMsg{N: 1}, &echoMsg{}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Calls fail while the server is down...
	failCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	err := c.Call(failCtx, methodEcho, &echoMsg{}, &echoMsg{})
	cancel()
	if err == nil {
		t.Fatal("call succeeded against closed server")
	}

	// ...and succeed again once it is back.
	newEchoServer(t, net, "srv/echo")
	var resp echoMsg
	deadline := time.Now().Add(2 * time.Second)
	for {
		err = c.Call(context.Background(), methodEcho, &echoMsg{N: 7}, &resp)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if resp.N != 8 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestPool(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv-a/echo")
	newEchoServer(t, net, "srv-b/echo")
	p := NewPool(net, "cli/x")
	defer p.Close()

	if p.Get("srv-a/echo") != p.Get("srv-a/echo") {
		t.Error("pool did not cache client")
	}
	var resp echoMsg
	if err := p.Call(context.Background(), "srv-a/echo", methodEcho, &echoMsg{N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := p.Call(context.Background(), "srv-b/echo", methodEcho, &echoMsg{N: 2}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 3 {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestPoolCallAfterClose: a pin release or an abort is a detached call
// that can run while its client is being torn down. On a closed pool it
// must fail with ErrPoolClosed and dial nothing — a client built after
// Close would be closed by nobody.
func TestPoolCallAfterClose(t *testing.T) {
	var dialed atomic.Int64 // the connections the pool dials
	net := transport.Decorate(transport.NewMemNet(), func(c transport.Conn) transport.Conn {
		if c.LocalAddr() == "cli/x" {
			dialed.Add(1)
		}
		return c
	})
	newEchoServer(t, net, "srv/echo")
	// Listening, so that a dial to it would succeed and be counted: the
	// decorator sees only the connections a dial made.
	newEchoServer(t, net, "srv-never-dialed/echo")
	p := NewPool(net, "cli/x")
	var resp echoMsg
	if err := p.Call(context.Background(), "srv/echo", methodEcho, &echoMsg{N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	p.Close()
	dials := dialed.Load()
	for _, remote := range []transport.Addr{"srv/echo", "srv-never-dialed/echo"} {
		err := p.Call(context.Background(), remote, methodEcho, &echoMsg{N: 1}, &resp)
		if !errors.Is(err, ErrPoolClosed) {
			t.Errorf("Call(%s) after Close = %v, want ErrPoolClosed", remote, err)
		}
	}
	if got := dialed.Load(); got != dials {
		t.Errorf("a closed pool dialed %d times", got-dials)
	}
}

func TestCallRecordsMethodStats(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	before := metrics.Default.RPCClient.Snapshot()["test.Echo"]
	beforeSrv := metrics.Default.RPCServer.Snapshot()["test.Echo"]
	var resp echoMsg
	if err := c.Call(context.Background(), methodEcho, &echoMsg{Text: "hi", N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(context.Background(), methodFail, &echoMsg{}, nil); err == nil {
		t.Fatal("want error from methodFail")
	}

	after := metrics.Default.RPCClient.Snapshot()["test.Echo"]
	if after.Calls != before.Calls+1 {
		t.Errorf("client calls = %d, want %d", after.Calls, before.Calls+1)
	}
	if after.Bytes <= before.Bytes {
		t.Errorf("client bytes did not grow: %d -> %d", before.Bytes, after.Bytes)
	}
	if after.Latency.Count != before.Latency.Count+1 {
		t.Errorf("latency count = %d, want %d", after.Latency.Count, before.Latency.Count+1)
	}
	afterSrv := metrics.Default.RPCServer.Snapshot()["test.Echo"]
	if afterSrv.Calls != beforeSrv.Calls+1 {
		t.Errorf("server calls = %d, want %d", afterSrv.Calls, beforeSrv.Calls+1)
	}
	failSnap := metrics.Default.RPCClient.Snapshot()["test.Fail"]
	if failSnap.Errors == 0 {
		t.Error("methodFail recorded no client-side errors")
	}
}

func TestTracePropagatesAcrossWire(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	ctx, root := obs.StartTrace(context.Background(), "test.op")
	var resp echoMsg
	if err := c.Call(ctx, methodEcho, &echoMsg{Text: "hi", N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	root.End(nil)

	spans := obs.Spans.Trace(root.Trace)
	byName := make(map[string]obs.SpanInfo)
	for _, s := range spans {
		byName[s.Name] = s
	}
	call, ok := byName["rpc:test.Echo"]
	if !ok {
		t.Fatalf("no client call span in trace; got %d spans", len(spans))
	}
	if call.Parent != root.ID {
		t.Errorf("call span parent = %d, want root %d", call.Parent, root.ID)
	}
	serve, ok := byName["serve:test.Echo"]
	if !ok {
		t.Fatalf("no server dispatch span in trace")
	}
	if serve.Parent != call.ID {
		t.Errorf("server span parent = %d, want client call span %d", serve.Parent, call.ID)
	}
	if serve.Where != "srv/echo" {
		t.Errorf("server span where = %q, want srv/echo", serve.Where)
	}
	tree := obs.Spans.Tree(root.Trace)
	if !strings.Contains(tree, "serve:test.Echo") {
		t.Errorf("rendered tree missing server span:\n%s", tree)
	}
}

func TestUntracedCallSendsNoSpans(t *testing.T) {
	net := transport.NewMemNet()
	newEchoServer(t, net, "srv/echo")
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	ids := obs.Spans.TraceIDs(0)
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	var resp echoMsg
	if err := c.Call(context.Background(), methodEcho, &echoMsg{N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	for _, id := range obs.Spans.TraceIDs(0) {
		if !seen[id] {
			t.Fatalf("untraced call created trace %d", id)
		}
	}
}

func BenchmarkCall(b *testing.B) {
	net := transport.NewMemNet()
	s, err := NewServer(net, "srv/echo")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Handle(methodEcho, func(r *wire.Reader) (wire.Marshaler, error) {
		var req echoMsg
		if err := req.DecodeFrom(r); err != nil {
			return nil, err
		}
		return &req, nil
	})
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp echoMsg
		if err := c.Call(context.Background(), methodEcho, &echoMsg{Text: "x", N: 1}, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCLatency measures the fully instrumented call path (frame
// trace context + per-method histograms on both sides), with and
// without an active trace — the difference is the tracing plane's cost.
func BenchmarkRPCLatency(b *testing.B) {
	net := transport.NewMemNet()
	s, err := NewServer(net, "srv/echo")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Handle(methodEcho, func(r *wire.Reader) (wire.Marshaler, error) {
		var req echoMsg
		if err := req.DecodeFrom(r); err != nil {
			return nil, err
		}
		return &req, nil
	})
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp echoMsg
			if err := c.Call(context.Background(), methodEcho, &echoMsg{Text: "x", N: 1}, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		ctx, root := obs.StartTrace(context.Background(), "bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp echoMsg
			if err := c.Call(ctx, methodEcho, &echoMsg{Text: "x", N: 1}, &resp); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		root.End(nil)
	})
}
