package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestAddrParts(t *testing.T) {
	a := MakeAddr("orsay-042", "provider")
	if a != "orsay-042/provider" {
		t.Fatalf("MakeAddr = %q", a)
	}
	if a.Host() != "orsay-042" {
		t.Errorf("Host = %q", a.Host())
	}
	if a.Service() != "provider" {
		t.Errorf("Service = %q", a.Service())
	}
	bare := Addr("justhost")
	if bare.Host() != "justhost" || bare.Service() != "" {
		t.Errorf("bare addr parsed as %q/%q", bare.Host(), bare.Service())
	}
}

// networkFactories lists every Network implementation under test; all
// transport semantics tests run against each.
func networkFactories() map[string]func(t *testing.T) Network {
	return map[string]func(t *testing.T) Network{
		"memnet":    func(t *testing.T) Network { return NewMemNet() },
		"decorated": func(t *testing.T) Network { return OnSend(NewMemNet(), func(Conn, []byte) error { return nil }) },
		"tcpnet":    func(t *testing.T) Network { return NewTCPNet() },
	}
}

func TestEcho(t *testing.T) {
	for name, mk := range networkFactories() {
		t.Run(name, func(t *testing.T) {
			n := mk(t)
			addr := MakeAddr("srv", "echo")
			l, err := n.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				for {
					f, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(f); err != nil {
						return
					}
				}
			}()

			c, err := n.Dial(MakeAddr("cli", "x"), addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				msg := []byte(fmt.Sprintf("frame-%d", i))
				if err := c.Send(append([]byte(nil), msg...)); err != nil {
					t.Fatal(err)
				}
				got, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("echo %d: got %q want %q", i, got, msg)
				}
			}
		})
	}
}

func TestAddrs(t *testing.T) {
	for name, mk := range networkFactories() {
		t.Run(name, func(t *testing.T) {
			n := mk(t)
			srv := MakeAddr("s", "svc")
			cli := MakeAddr("c", "cli")
			l, err := n.Listen(srv)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			c, err := n.Dial(cli, srv)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sc := <-accepted
			defer sc.Close()
			if c.LocalAddr() != cli || c.RemoteAddr() != srv {
				t.Errorf("client addrs = %v -> %v", c.LocalAddr(), c.RemoteAddr())
			}
			if sc.LocalAddr() != srv || sc.RemoteAddr() != cli {
				t.Errorf("server addrs = %v -> %v", sc.LocalAddr(), sc.RemoteAddr())
			}
		})
	}
}

func TestDialNoListener(t *testing.T) {
	for name, mk := range networkFactories() {
		t.Run(name, func(t *testing.T) {
			n := mk(t)
			if _, err := n.Dial("a/x", "b/y"); !errors.Is(err, ErrNoListener) {
				t.Errorf("err = %v, want ErrNoListener", err)
			}
		})
	}
}

func TestListenTwice(t *testing.T) {
	for name, mk := range networkFactories() {
		t.Run(name, func(t *testing.T) {
			n := mk(t)
			l, err := n.Listen("a/x")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, err := n.Listen("a/x"); !errors.Is(err, ErrAddrInUse) {
				t.Errorf("second Listen err = %v, want ErrAddrInUse", err)
			}
		})
	}
}

func TestListenAfterClose(t *testing.T) {
	for name, mk := range networkFactories() {
		t.Run(name, func(t *testing.T) {
			n := mk(t)
			l, err := n.Listen("a/x")
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			// Address is released; rebinding must succeed.
			l2, err := n.Listen("a/x")
			if err != nil {
				t.Fatalf("rebind after close: %v", err)
			}
			l2.Close()
		})
	}
}

func TestRecvAfterPeerClose(t *testing.T) {
	for name, mk := range networkFactories() {
		t.Run(name, func(t *testing.T) {
			n := mk(t)
			l, err := n.Listen("s/x")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				c, err := l.Accept()
				if err != nil {
					return
				}
				c.Send([]byte("last words"))
				c.Close()
			}()
			c, err := n.Dial("c/x", "s/x")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			<-done
			// The frame sent before close must still be readable.
			f, err := c.Recv()
			if err != nil {
				t.Fatalf("Recv before-close frame: %v", err)
			}
			if string(f) != "last words" {
				t.Fatalf("got %q", f)
			}
			if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
				t.Errorf("Recv after close err = %v, want ErrClosed", err)
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for name, mk := range networkFactories() {
		t.Run(name, func(t *testing.T) {
			n := mk(t)
			l, err := n.Listen("s/x")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			const senders = 8
			const perSender = 100
			total := senders * perSender

			received := make(chan []byte, total)
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				for i := 0; i < total; i++ {
					f, err := c.Recv()
					if err != nil {
						return
					}
					received <- f
				}
			}()

			c, err := n.Dial("c/x", "s/x")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						frame := []byte(fmt.Sprintf("%d:%d", s, i))
						if err := c.Send(frame); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			wg.Wait()

			seen := make(map[string]bool, total)
			for i := 0; i < total; i++ {
				f := <-received
				if seen[string(f)] {
					t.Fatalf("duplicate frame %q", f)
				}
				seen[string(f)] = true
			}
			if len(seen) != total {
				t.Fatalf("got %d distinct frames, want %d", len(seen), total)
			}
		})
	}
}

func TestMemNetClose(t *testing.T) {
	n := NewMemNet()
	l, err := n.Listen("a/x")
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("Accept after net close: %v", err)
	}
	if _, err := n.Listen("b/y"); !errors.Is(err, ErrClosed) {
		t.Errorf("Listen after net close: %v", err)
	}
}

// TestMemNetCloseFailsQueuedDial: a connection dialed but not yet
// accepted when its listener closes must fail on first use — its server
// end will never exist — instead of waiting forever for a reply.
func TestMemNetCloseFailsQueuedDial(t *testing.T) {
	n := NewMemNet()
	l, err := n.Listen("s/x")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("c/x", "s/x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close()
	errs := make(chan error, 2)
	go func() {
		errs <- c.Send([]byte("ping"))
		_, err := c.Recv()
		errs <- err
	}()
	for _, call := range []string{"Send", "Recv"} {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s on a connection queued behind a closed listener: %v, want ErrClosed", call, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s on a connection queued behind a closed listener never returned", call)
		}
	}
}

func TestTCPLargeFrame(t *testing.T) {
	n := NewTCPNet()
	l, err := n.Listen("s/x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		f, err := c.Recv()
		if err != nil {
			return
		}
		c.Send(f)
	}()
	c, err := n.Dial("c/x", "s/x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := c.Send(append([]byte(nil), big...)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("1 MiB frame corrupted in transit")
	}
}
