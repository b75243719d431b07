package main

import (
	"strings"
	"sync/atomic"
	"time"

	"blobseer/internal/transport"
)

// netTrace is a counting, timing transport.Network decorator, installed
// outermost (over simnet when there is one) in the traced pass only. It
// wraps the connections clients dial — never the accepted side, so a
// frame is counted once — and files each under the service it was
// dialed to. Requests are the frames sent on a dialed connection,
// responses the frames received on it; send wait is the time the
// calling goroutine sat inside Send, which on simnet is NIC
// reservation plus latency.
type netTrace struct {
	transport.Network
	classes [numClasses]classCounters
	// mr counts, across classes, the frames of connections dialed from
	// a Map/Reduce host (a tasktracker's node or the job client).
	mr atomic.Int64
}

type netClass int

const (
	classVM netClass = iota
	classPM
	classProvider
	classDHT
	classNS
	classOther
	numClasses
)

type classCounters struct {
	frames   atomic.Int64
	bytes    atomic.Int64
	sendWait atomic.Int64 // ns
}

// netCounts is a snapshot (or a difference of two) of the counters.
type netCounts struct {
	frames, bytes [numClasses]int64
	sendWait      [numClasses]time.Duration
	mrFrames      int64
}

func newNetTrace(inner transport.Network) *netTrace { return &netTrace{Network: inner} }

func classOf(remote transport.Addr) netClass {
	switch remote.Service() {
	case "vmanager":
		return classVM
	case "pmanager":
		return classPM
	case "provider":
		return classProvider
	case "metadata":
		return classDHT
	case "bsfs-ns":
		return classNS
	}
	return classOther
}

// isMRHost reports whether host runs Map/Reduce tasks: trackers are
// co-deployed with providers ("node-NNN") and jobs are submitted from
// "jobclient". The benchmark's own clients run on "client-N" hosts.
func isMRHost(host string) bool {
	return host == "jobclient" || strings.HasPrefix(host, "node-")
}

// Dial implements transport.Network.
func (n *netTrace) Dial(local, remote transport.Addr) (transport.Conn, error) {
	c, err := n.Network.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, counters: &n.classes[classOf(remote)]}
	if isMRHost(local.Host()) {
		tc.mr = &n.mr
	}
	return tc, nil
}

func (n *netTrace) snapshot() netCounts {
	var s netCounts
	for i := range n.classes {
		s.frames[i] = n.classes[i].frames.Load()
		s.bytes[i] = n.classes[i].bytes.Load()
		s.sendWait[i] = time.Duration(n.classes[i].sendWait.Load())
	}
	s.mrFrames = n.mr.Load()
	return s
}

func (a netCounts) sub(b netCounts) netCounts {
	for i := range a.frames {
		a.frames[i] -= b.frames[i]
		a.bytes[i] -= b.bytes[i]
		a.sendWait[i] -= b.sendWait[i]
	}
	a.mrFrames -= b.mrFrames
	return a
}

func (a netCounts) add(b netCounts) netCounts {
	for i := range a.frames {
		a.frames[i] += b.frames[i]
		a.bytes[i] += b.bytes[i]
		a.sendWait[i] += b.sendWait[i]
	}
	a.mrFrames += b.mrFrames
	return a
}

func (a netCounts) totalFrames() (n int64) {
	for _, f := range a.frames {
		n += f
	}
	return n
}

func (a netCounts) totalBytes() (n int64) {
	for _, b := range a.bytes {
		n += b
	}
	return n
}

type tracedConn struct {
	transport.Conn
	counters *classCounters
	mr       *atomic.Int64 // nil off the Map/Reduce hosts
}

func (c *tracedConn) count(n int) {
	c.counters.frames.Add(1)
	c.counters.bytes.Add(int64(n))
	if c.mr != nil {
		c.mr.Add(1)
	}
}

func (c *tracedConn) Send(frame []byte) error {
	n := len(frame) // ownership of frame passes to the transport
	t0 := time.Now()
	err := c.Conn.Send(frame)
	c.counters.sendWait.Add(int64(time.Since(t0)))
	if err == nil {
		c.count(n)
	}
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	if err == nil {
		c.count(len(frame))
	}
	return frame, err
}
