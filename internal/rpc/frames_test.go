package rpc

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Every test of this package runs with released frames overwritten:
// a frame recycled while something still aliases it shows up as 0xDB
// garbage in a verified payload instead of passing by luck.
func TestMain(m *testing.M) {
	transport.PoisonReleased(true)
	os.Exit(m.Run())
}

// aliasMsg decodes a request by aliasing its frame, the way a handler
// may: the frame stays valid until the response is marshalled.
type aliasMsg struct{ data []byte }

func (m *aliasMsg) AppendTo(b []byte) []byte { return wire.AppendBytes(b, m.data) }
func (m *aliasMsg) EncodedSize() int         { return 5 + len(m.data) }
func (m *aliasMsg) DecodeFrom(r *wire.Reader) error {
	m.data = r.Bytes()
	return r.Err()
}

// copyMsg decodes a response by copying, the way every response
// decoder does; at is where its payload lay in the frame, so a test can
// tell whether the frame came back from the pool.
type copyMsg struct {
	data []byte
	at   *byte
}

func (m *copyMsg) DecodeFrom(r *wire.Reader) error {
	p := r.Bytes()
	if len(p) > 0 {
		m.at = &p[0]
	}
	m.data = append(m.data[:0], p...)
	return r.Err()
}

var methodAliasEcho = M(10, "test.AliasEcho")

// handleAliasEcho returns the request it decoded as the response body:
// the body aliases the request frame until it is marshalled.
func handleAliasEcho(r *wire.Reader) (wire.Marshaler, error) {
	var m aliasMsg
	if err := m.DecodeFrom(r); err != nil {
		return nil, err
	}
	return &m, nil
}

func payload(tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag + byte(i*7)
	}
	return p
}

// TestAliasingEchoUnderRecycling: concurrent callers bounce distinct
// 64 KiB payloads off a handler that aliases its request. The request
// frame must stay valid until the response body is marshalled, and a
// decoded response must stay valid for as long as its holder keeps it,
// however many frames are recycled meanwhile.
func TestAliasingEchoUnderRecycling(t *testing.T) {
	for name, net := range map[string]transport.Network{
		"memnet": transport.NewMemNet(),
		"tcpnet": transport.NewTCPNet(),
	} {
		t.Run(name, func(t *testing.T) {
			s, err := NewServer(net, "srv/echo")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Handle(methodAliasEcho, handleAliasEcho)
			c := NewClient(net, "cli/x", "srv/echo")
			defer c.Close()

			const callers, calls = 8, 40
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var first copyMsg // held across every later call
					for i := 0; i < calls; i++ {
						want := payload(byte(g*calls+i), 64<<10)
						var resp copyMsg
						if err := c.Call(context.Background(), methodAliasEcho, &aliasMsg{data: want}, &resp); err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(resp.data, want) {
							t.Errorf("caller %d call %d: echo corrupted", g, i)
							return
						}
						if i == 0 {
							first = resp
						}
					}
					if !bytes.Equal(first.data, payload(byte(g*calls), 64<<10)) {
						t.Errorf("caller %d: a decoded response changed under its holder", g)
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// gatedServer serves methodSlow by blocking until the gate opens.
func gatedServer(t *testing.T, net transport.Network) (s *Server, entered chan struct{}, gate chan struct{}) {
	t.Helper()
	s, err := NewServer(net, "srv/echo")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	entered, gate = make(chan struct{}, 64), make(chan struct{})
	s.Handle(methodSlow, func(r *wire.Reader) (wire.Marshaler, error) {
		var m aliasMsg
		if err := m.DecodeFrom(r); err != nil {
			return nil, err
		}
		entered <- struct{}{}
		<-gate
		return &m, nil
	})
	s.Handle(methodAliasEcho, handleAliasEcho)
	return s, entered, gate
}

// TestCancelMidCall: the caller leaves on ctx.Done() while the handler
// still runs; the late response finds no pending call and is released,
// and the connection keeps serving verified calls afterwards.
func TestCancelMidCall(t *testing.T) {
	net := transport.NewMemNet()
	_, entered, gate := gatedServer(t, net)
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		var resp copyMsg
		done <- c.Call(ctx, methodSlow, &aliasMsg{data: payload(1, 64<<10)}, &resp)
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	close(gate) // the response is sent to a caller that is gone

	for i := 0; i < 20; i++ {
		want := payload(byte(10+i), 64<<10)
		var resp copyMsg
		if err := c.Call(context.Background(), methodAliasEcho, &aliasMsg{data: want}, &resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.data, want) {
			t.Fatalf("call %d after a cancelled one: echo corrupted", i)
		}
	}
}

// TestCloseWithPendingCalls: Client.Close with calls in flight fails
// each of them exactly once, and the handlers' late responses go to a
// closed connection without harm.
func TestCloseWithPendingCalls(t *testing.T) {
	net := transport.NewMemNet()
	_, entered, gate := gatedServer(t, net)
	c := NewClient(net, "cli/x", "srv/echo")

	const pending = 8
	errs := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func(i int) {
			var resp copyMsg
			errs <- c.Call(context.Background(), methodSlow, &aliasMsg{data: payload(byte(i), 4<<10)}, &resp)
		}(i)
	}
	for i := 0; i < pending; i++ {
		<-entered
	}
	c.Close()
	for i := 0; i < pending; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrConnLost) {
				t.Errorf("pending call returned %v, want ErrConnLost", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a pending call never returned after Close")
		}
	}
	close(gate) // eight responses into a closed connection
}

// TestResponseSendFailure: when the server cannot send a response the
// request frame has already been released (once) and the response
// frame stays with the transport; the server keeps serving.
func TestResponseSendFailure(t *testing.T) {
	// While broken is set, the server's Send fails, consuming the frame
	// as the Conn contract says.
	var broken atomic.Bool
	net := transport.OnSend(transport.NewMemNet(), func(c transport.Conn, _ []byte) error {
		if broken.Load() && c.LocalAddr() == "srv/echo" {
			return transport.ErrClosed
		}
		return nil
	})
	s, err := NewServer(net, "srv/echo")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle(methodAliasEcho, handleAliasEcho)
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	broken.Store(true)
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		var resp copyMsg
		err := c.Call(ctx, methodAliasEcho, &aliasMsg{data: payload(byte(i), 64<<10)}, &resp)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call with a dropped response returned %v", err)
		}
	}
	broken.Store(false)
	for i := 0; i < 20; i++ {
		want := payload(byte(40+i), 64<<10)
		var resp copyMsg
		if err := c.Call(context.Background(), methodAliasEcho, &aliasMsg{data: want}, &resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.data, want) {
			t.Fatalf("call %d after dropped responses: echo corrupted", i)
		}
	}
}

// TestRecycledCallsNeverCrossResults: a call's result channel goes back
// to the pool after a normal receive only. Callers whose deadlines
// expire around the moment their response arrives leave a sender
// behind; if their channel were recycled, the stale result would answer
// somebody else's call. Every call that succeeds must see its own echo.
func TestRecycledCallsNeverCrossResults(t *testing.T) {
	net := transport.NewMemNet()
	s, err := NewServer(net, "srv/echo")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle(methodAliasEcho, handleAliasEcho)
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()

	const callers, calls = 8, 400
	var wg sync.WaitGroup
	var expired atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := payload(byte(g*calls+i), 32+i%64)
				// Deadlines straddle the round-trip time of a small echo.
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%40)*2*time.Microsecond)
				var resp copyMsg
				err := c.Call(ctx, methodAliasEcho, &aliasMsg{data: want}, &resp)
				cancel()
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				case err != nil:
					t.Error(err)
					return
				case !bytes.Equal(resp.data, want):
					t.Errorf("caller %d call %d received another call's response", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d of %d calls expired", expired.Load(), callers*calls)
}

// TestEchoAllocationBudget: an empty call costs the response body the
// handler returns and the response it is decoded into — nothing per
// call on either side of the rpc layer itself: no result channel, no
// Reader, and no frame: the response frame goes back to the pool once
// its decode has copied what it keeps.
func TestEchoAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under the race detector's short job")
	}
	net := transport.NewMemNet()
	s, err := NewServer(net, "srv/echo")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle(methodAliasEcho, handleAliasEcho)
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	ctx := context.Background()
	req := &aliasMsg{}
	// Let the server's dispatch workers park first: AllocsPerRun runs on
	// one P, where the call's chain of wake-ups can keep workers that
	// never ran off the processor, and every request then pays for the
	// overflow goroutine instead.
	time.Sleep(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(500, func() {
		if err := c.Call(ctx, methodAliasEcho, req, new(copyMsg)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("empty echo: %.0f allocs", allocs)
	if allocs > 2 {
		t.Errorf("an empty echo allocates %.0f objects, budget 2", allocs)
	}
}

// holds reports whether the byte at lies in frame f's capacity.
func holds(f []byte, at *byte) bool {
	f = f[:cap(f)]
	for i := range f {
		if &f[i] == at {
			return true
		}
	}
	return false
}

// drainFrames empties the pool's class for n-byte frames: it takes
// frames until one comes freshly made (zeroed, where a released one is
// poisoned).
func drainFrames(n int) {
	for {
		if f := transport.NewFrame(n); f[:cap(f)][0] != 0xDB {
			return
		}
	}
}

// TestCopyingDecodeRecyclesItsFrame: a response that copies what it
// keeps gives its frame back to the pool the moment its decode is done:
// it is the next frame of its class.
func TestCopyingDecodeRecyclesItsFrame(t *testing.T) {
	net := transport.NewMemNet()
	s, err := NewServer(net, "srv/echo")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle(methodAliasEcho, handleAliasEcho)
	c := NewClient(net, "cli/x", "srv/echo")
	defer c.Close()
	const size = 4 << 10
	n := frameHeader + size

	want := payload(3, size)
	drainFrames(n)
	var copied copyMsg
	if err := c.Call(context.Background(), methodAliasEcho, &aliasMsg{data: want}, &copied); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(copied.data, want) {
		t.Fatal("copying echo corrupted")
	}
	if !holds(transport.NewFrame(n), copied.at) {
		t.Error("the frame of a copying decode is not the next frame of its class")
	}
}

// FuzzServeFrame: each input goes as one raw request frame to a server
// with one echo handler. Whatever the frame holds, the server must not
// panic, and a well-formed echo on a fresh Client must succeed after
// it. The raw connection is drained meanwhile, so that an answer nobody
// reads cannot block a dispatch worker.
func FuzzServeFrame(f *testing.F) {
	net := transport.NewMemNet()
	s, err := NewServer(net, "srv/echo")
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	s.Handle(methodAliasEcho, handleAliasEcho)
	// The seeds are in testdata/fuzz.
	f.Fuzz(func(t *testing.T, frame []byte) {
		raw, err := net.Dial("cli/raw", "srv/echo")
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				answer, err := raw.Recv()
				if err != nil {
					return
				}
				transport.ReleaseFrame(answer)
			}
		}()
		defer func() {
			raw.Close()
			<-drained
		}()
		if err := raw.Send(append(transport.NewFrame(len(frame)), frame...)); err != nil {
			t.Fatal(err)
		}

		c := NewClient(net, "cli/x", "srv/echo")
		defer c.Close()
		want := payload(byte(len(frame)), 100)
		var resp copyMsg
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := c.Call(ctx, methodAliasEcho, &aliasMsg{data: want}, &resp); err != nil {
			t.Fatalf("echo after a raw frame: %v", err)
		}
		if !bytes.Equal(resp.data, want) {
			t.Fatal("echo after a raw frame corrupted")
		}
	})
}
