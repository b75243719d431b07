package transport

import (
	"sync"
)

// connBuf is the per-direction frame buffer of an in-process connection.
// It provides backpressure: senders block when the receiver lags by more
// than bufFrames frames.
const bufFrames = 256

// MemNet is an in-process Network. Frames move through buffered channels
// at memory speed; it is the substrate the shaped simnet wraps and the
// default for unit tests.
//
// The zero value is not usable; call NewMemNet.
type MemNet struct {
	mu        sync.Mutex
	listeners map[Addr]*memListener
	closed    bool
}

// NewMemNet returns an empty in-process network.
func NewMemNet() *MemNet {
	return &MemNet{listeners: make(map[Addr]*memListener)}
}

// Listen implements Network.
func (n *MemNet) Listen(addr Addr) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, ErrAddrInUse
	}
	l := &memListener{
		net:     n,
		addr:    addr,
		backlog: make(chan *memConn, 64),
		done:    make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *MemNet) Dial(local, remote Addr) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[remote]
	n.mu.Unlock()
	if !ok {
		return nil, ErrNoListener
	}

	a2b := newFramePipe()
	b2a := newFramePipe()
	client := &memConn{local: local, remote: remote, send: a2b, recv: b2a}
	server := &memConn{local: remote, remote: local, send: b2a, recv: a2b}

	select {
	case l.backlog <- server:
		// The listener may have closed with this send under way, its own
		// drain already over; whichever of the two drains runs last finds
		// the connection.
		select {
		case <-l.done:
			l.drain()
		default:
		}
		return client, nil
	case <-l.done:
		return nil, ErrNoListener
	}
}

// Close shuts the network down: all listeners stop accepting.
func (n *MemNet) Close() error {
	n.mu.Lock()
	ls := make([]*memListener, 0, len(n.listeners))
	for _, l := range n.listeners {
		ls = append(ls, l)
	}
	n.closed = true
	n.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	return nil
}

type memListener struct {
	net     *MemNet
	addr    Addr
	backlog chan *memConn
	done    chan struct{}
	once    sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
		l.drain()
	})
	return nil
}

// drain closes the server end of every connection still queued for an
// Accept that will not come, so its dialer's first call fails instead of
// waiting forever.
func (l *memListener) drain() {
	for {
		select {
		case c := <-l.backlog:
			c.Close()
		default:
			return
		}
	}
}

func (l *memListener) Addr() Addr { return l.addr }

// framePipe is one direction of a memConn.
type framePipe struct {
	frames chan []byte
	done   chan struct{}
	once   sync.Once
}

func newFramePipe() *framePipe {
	return &framePipe{
		frames: make(chan []byte, bufFrames),
		done:   make(chan struct{}),
	}
}

func (p *framePipe) close() {
	p.once.Do(func() { close(p.done) })
}

func (p *framePipe) send(frame []byte) error {
	// Fast-fail when already closed, then race-free blocking send.
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	select {
	case p.frames <- frame:
		return nil
	case <-p.done:
		return ErrClosed
	}
}

func (p *framePipe) recv() ([]byte, error) {
	select {
	case f := <-p.frames:
		return f, nil
	case <-p.done:
		// Drain frames that raced with close so no data is lost.
		select {
		case f := <-p.frames:
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

type memConn struct {
	local, remote Addr
	send, recv    *framePipe
}

func (c *memConn) Send(frame []byte) error { return c.send.send(frame) }
func (c *memConn) Recv() ([]byte, error)   { return c.recv.recv() }

func (c *memConn) Close() error {
	c.send.close()
	c.recv.close()
	return nil
}

func (c *memConn) LocalAddr() Addr  { return c.local }
func (c *memConn) RemoteAddr() Addr { return c.remote }
