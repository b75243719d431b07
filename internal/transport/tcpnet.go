package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCPNet is a Network over real TCP sockets on the loopback interface.
// It exists to prove the services are genuine networked programs, not
// artifacts of the in-process transport: integration tests run a small
// cluster over TCPNet. A process-local registry maps logical Addrs to
// ephemeral ports; a tiny handshake carries the logical addresses.
type TCPNet struct {
	mu    sync.Mutex
	ports map[Addr]string // logical addr -> "127.0.0.1:port"
}

// NewTCPNet returns a TCP-backed network using loopback sockets.
func NewTCPNet() *TCPNet {
	return &TCPNet{ports: make(map[Addr]string)}
}

// maxFrame bounds a single TCP frame; larger frames indicate corruption.
const maxFrame = 1 << 30

// Listen implements Network.
func (n *TCPNet) Listen(addr Addr) (Listener, error) {
	n.mu.Lock()
	if _, ok := n.ports[addr]; ok {
		n.mu.Unlock()
		return nil, ErrAddrInUse
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	n.ports[addr] = ln.Addr().String()
	n.mu.Unlock()
	return &tcpListener{net: n, addr: addr, ln: ln}, nil
}

// Dial implements Network.
func (n *TCPNet) Dial(local, remote Addr) (Conn, error) {
	n.mu.Lock()
	hostport, ok := n.ports[remote]
	n.mu.Unlock()
	if !ok {
		return nil, ErrNoListener
	}
	c, err := net.Dial("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("tcpnet dial %s: %w", remote, err)
	}
	tc := newTCPConn(c, local, remote)
	// Handshake: announce the dialer's logical address.
	if err := tc.Send([]byte(local)); err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpnet handshake: %w", err)
	}
	return tc, nil
}

type tcpListener struct {
	net  *TCPNet
	addr Addr
	ln   net.Listener
	once sync.Once
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, ErrClosed
	}
	tc := newTCPConn(c, l.addr, "")
	peer, err := tc.Recv()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpnet accept handshake: %w", err)
	}
	tc.remote = Addr(peer)
	ReleaseFrame(peer)
	return tc, nil
}

func (l *tcpListener) Close() error {
	l.once.Do(func() {
		l.net.mu.Lock()
		delete(l.net.ports, l.addr)
		l.net.mu.Unlock()
		l.ln.Close()
	})
	return nil
}

func (l *tcpListener) Addr() Addr { return l.addr }

type tcpConn struct {
	local  Addr
	remote Addr

	sendMu sync.Mutex
	bw     *bufio.Writer

	recvMu sync.Mutex
	br     *bufio.Reader

	c    net.Conn
	once sync.Once
}

func newTCPConn(c net.Conn, local, remote Addr) *tcpConn {
	return &tcpConn{
		local:  local,
		remote: remote,
		bw:     bufio.NewWriterSize(c, 64<<10),
		br:     bufio.NewReaderSize(c, 64<<10),
		c:      c,
	}
}

func (c *tcpConn) Send(frame []byte) error {
	// Written or not, the frame is this conn's to recycle.
	defer ReleaseFrame(frame)
	if len(frame) > maxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(frame))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return ErrClosed
	}
	if _, err := c.bw.Write(frame); err != nil {
		return ErrClosed
	}
	if err := c.bw.Flush(); err != nil {
		return ErrClosed
	}
	return nil
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, ErrClosed
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	frame := NewFrame(int(n))[:n]
	if _, err := io.ReadFull(c.br, frame); err != nil {
		ReleaseFrame(frame)
		return nil, ErrClosed
	}
	return frame, nil
}

func (c *tcpConn) Close() error {
	c.once.Do(func() { c.c.Close() })
	return nil
}

func (c *tcpConn) LocalAddr() Addr  { return c.local }
func (c *tcpConn) RemoteAddr() Addr { return c.remote }
