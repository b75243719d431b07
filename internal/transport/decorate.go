package transport

// Decorate returns inner with every connection it dials or accepts
// passed through wrap before the caller sees it: the one place a
// Network's connections are layered (simnet's shaping, OnSend).
func Decorate(inner Network, wrap func(Conn) Conn) Network {
	return &decorated{inner: inner, wrap: wrap}
}

type decorated struct {
	inner Network
	wrap  func(Conn) Conn
}

func (n *decorated) Listen(addr Addr) (Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &decoratedListener{Listener: l, wrap: n.wrap}, nil
}

func (n *decorated) Dial(local, remote Addr) (Conn, error) {
	c, err := n.inner.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return n.wrap(c), nil
}

type decoratedListener struct {
	Listener
	wrap func(Conn) Conn
}

func (l *decoratedListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// OnSend returns inner with hook run, in the sender's goroutine, before
// every frame a dialed or accepted connection c sends, so blocking in it
// holds one request or answer. A non-nil error is what Send returns, and
// the frame is not sent.
//
//lint:unusedexport test seam: the fault tests of blob, bsfs, dht, hdfs, rpc and shuffle hold, drop or fail frames through it
func OnSend(inner Network, hook func(c Conn, frame []byte) error) Network {
	return Decorate(inner, func(c Conn) Conn { return &hookedConn{Conn: c, hook: hook} })
}

type hookedConn struct {
	Conn
	hook func(Conn, []byte) error
}

func (c *hookedConn) Send(frame []byte) error {
	if err := c.hook(c.Conn, frame); err != nil {
		return err
	}
	return c.Conn.Send(frame)
}
