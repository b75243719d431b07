// Package simnet decorates a transport.Network with per-host NIC
// bandwidth and link latency, standing in for the Grid'5000 testbed of
// the paper. Every simulated host owns a full-duplex NIC: one egress and
// one ingress shaper, shared by all of the host's endpoints and
// connections, exactly like co-locating a BSFS client with a data
// provider on one physical machine shares that machine's 1 GbE port.
//
// Shaping is reservation-based: sending a frame of n bytes reserves
// n/bandwidth seconds on the sender's egress NIC and on the receiver's
// ingress NIC, serialized after any reservations already made on those
// NICs, and the sending goroutine sleeps until the reserved interval has
// elapsed (plus propagation latency). Aggregate throughput therefore
// saturates exactly where the modeled NICs saturate, which is what
// produces the shapes of Figures 3-5: incast collisions on hot providers
// and the version manager's serialization, not code speed, set the curve.
//
// Wall-clock sleeping keeps all concurrency real (the same service code
// runs unshaped in unit tests); experiments choose page sizes so each
// reservation is >= ~0.5 ms, comfortably above timer resolution.
package simnet

import (
	"sync"
	"time"

	"blobseer/internal/transport"
)

// Config describes the modeled network.
type Config struct {
	// Bandwidth is the default per-host NIC capacity in bytes/second,
	// applied independently to egress and ingress (full duplex).
	// Zero means unshaped (infinite bandwidth).
	Bandwidth float64
	// Latency is the one-way propagation delay added to every frame.
	Latency time.Duration
	// FrameOverhead models per-frame header cost in bytes.
	FrameOverhead int
	// PerHost overrides the default bandwidth for specific hosts
	// (e.g. a 10 GbE metadata server in an otherwise 1 GbE cluster).
	PerHost map[string]float64
	// SleepFloor is the shortest delay worth actually sleeping for
	// (default 1ms — the practical granularity of time.Sleep on a
	// shared box). Sub-floor waits skip the sleep but still advance
	// the NIC reservation clock, so once a NIC is genuinely saturated
	// the accumulated reservations exceed the floor and senders block:
	// aggregate bandwidth limits stay accurate, only per-frame latency
	// of small control messages is forgiven. Experiments pick page
	// sizes whose transfer time is well above the floor.
	SleepFloor time.Duration
}

// Net is a shaped transport.Network.
type Net struct {
	inner transport.Network
	cfg   Config

	mu    sync.Mutex
	hosts map[string]*hostNIC
}

var _ transport.Network = (*Net)(nil)

// New wraps inner with shaping per cfg.
func New(inner transport.Network, cfg Config) *Net {
	if cfg.SleepFloor == 0 {
		cfg.SleepFloor = time.Millisecond
	}
	return &Net{inner: inner, cfg: cfg, hosts: make(map[string]*hostNIC)}
}

// hostNIC is one simulated machine's network port.
type hostNIC struct {
	egress  shaper
	ingress shaper

	statMu    sync.Mutex
	bytesIn   int64
	bytesOut  int64
	framesIn  int64
	framesOut int64
}

// HostStats reports traffic accounting for one host.
type HostStats struct {
	BytesIn, BytesOut   int64
	FramesIn, FramesOut int64
}

// Stats returns the traffic counters of host, or zeros if unknown.
//
//lint:unusedexport test hook: the pinned benchmark's nettrace test reads it
func (n *Net) Stats(host string) HostStats {
	n.mu.Lock()
	h := n.hosts[host]
	n.mu.Unlock()
	if h == nil {
		return HostStats{}
	}
	h.statMu.Lock()
	defer h.statMu.Unlock()
	return HostStats{
		BytesIn: h.bytesIn, BytesOut: h.bytesOut,
		FramesIn: h.framesIn, FramesOut: h.framesOut,
	}
}

func (n *Net) nic(host string) *hostNIC {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[host]
	if !ok {
		bw := n.cfg.Bandwidth
		if o, ok := n.cfg.PerHost[host]; ok {
			bw = o
		}
		h = &hostNIC{egress: shaper{bw: bw}, ingress: shaper{bw: bw}}
		n.hosts[host] = h
	}
	return h
}

// shaper serializes transmissions on one NIC direction.
type shaper struct {
	mu   sync.Mutex
	free time.Time
	bw   float64
}

// reserve books n bytes of transmission and returns the completion time.
// A zero-bandwidth shaper is a no-op returning the current time.
func (s *shaper) reserve(n int) time.Time {
	now := time.Now()
	if s.bw <= 0 {
		return now
	}
	d := time.Duration(float64(n) / s.bw * float64(time.Second))
	s.mu.Lock()
	start := s.free
	if start.Before(now) {
		start = now
	}
	end := start.Add(d)
	s.free = end
	s.mu.Unlock()
	return end
}

// Listen implements transport.Network.
func (n *Net) Listen(addr transport.Addr) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &listener{net: n, inner: l}, nil
}

// Dial implements transport.Network.
func (n *Net) Dial(local, remote transport.Addr) (transport.Conn, error) {
	c, err := n.inner.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return n.wrap(c), nil
}

func (n *Net) wrap(c transport.Conn) transport.Conn {
	return &conn{
		Conn:   c,
		net:    n,
		local:  n.nic(c.LocalAddr().Host()),
		remote: n.nic(c.RemoteAddr().Host()),
	}
}

type listener struct {
	net   *Net
	inner transport.Listener
}

func (l *listener) Accept() (transport.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(c), nil
}

func (l *listener) Close() error         { return l.inner.Close() }
func (l *listener) Addr() transport.Addr { return l.inner.Addr() }

// conn shapes Send; Recv is pass-through (delay is paid by the sender,
// which models a blocking streaming transfer of the frame).
type conn struct {
	transport.Conn
	net    *Net
	local  *hostNIC
	remote *hostNIC
}

func (c *conn) Send(frame []byte) error {
	n := len(frame) + c.net.cfg.FrameOverhead
	egEnd := c.local.egress.reserve(n)
	inEnd := c.remote.ingress.reserve(n)
	deliverAt := egEnd
	if inEnd.After(deliverAt) {
		deliverAt = inEnd
	}
	deliverAt = deliverAt.Add(c.net.cfg.Latency)
	if d := time.Until(deliverAt); d >= c.net.cfg.SleepFloor {
		time.Sleep(d)
	}

	c.local.statMu.Lock()
	c.local.bytesOut += int64(n)
	c.local.framesOut++
	c.local.statMu.Unlock()
	c.remote.statMu.Lock()
	c.remote.bytesIn += int64(n)
	c.remote.framesIn++
	c.remote.statMu.Unlock()

	return c.Conn.Send(frame)
}
