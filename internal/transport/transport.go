// Package transport abstracts message delivery between the nodes of the
// simulated cluster. Every service (version manager, providers, metadata
// providers, namespace managers, namenode, datanodes, job/task trackers)
// talks through a transport.Network, so the same service code runs over:
//
//   - memnet: in-process channels at memory speed (unit tests, examples);
//   - tcpnet: real TCP via net (loopback integration tests);
//   - simnet: a bandwidth/latency-shaped decorator reproducing the
//     Grid'5000 testbed conditions (experiments). See package simnet.
//
// Decorate is the one wrapper of a Network's connections: simnet shapes
// them through it, and tests hold, drop or fail a frame with OnSend.
//
// Frames are whole messages (the rpc package adds request framing); a
// Conn is reliable and ordered, like a TCP stream of delimited frames.
package transport

import (
	"errors"
	"strings"
)

// Addr names a service endpoint as "host/service", e.g.
// "orsay-042/provider". The host part is the unit of network shaping:
// all endpoints of one host share that host's simulated NIC.
type Addr string

// Host returns the host component of the address.
func (a Addr) Host() string {
	if i := strings.IndexByte(string(a), '/'); i >= 0 {
		return string(a)[:i]
	}
	return string(a)
}

// Service returns the service component of the address.
func (a Addr) Service() string {
	if i := strings.IndexByte(string(a), '/'); i >= 0 {
		return string(a)[i+1:]
	}
	return ""
}

// MakeAddr builds an Addr from a host and service name.
func MakeAddr(host, service string) Addr {
	return Addr(host + "/" + service)
}

// Errors shared by all transport implementations.
var (
	ErrClosed     = errors.New("transport: connection closed")
	ErrAddrInUse  = errors.New("transport: address already in use")
	ErrNoListener = errors.New("transport: no listener at address")
)

// Conn is a reliable, ordered, bidirectional frame connection.
// Send and Recv are safe for concurrent use; frames sent concurrently
// may interleave in any order but are never corrupted or dropped.
type Conn interface {
	// Send transmits one frame. Ownership of the slice passes to the
	// transport whether or not Send succeeds; the caller must not read,
	// modify or release it afterwards. An in-process transport hands
	// the very slice to the peer's Recv; a socket transport returns it
	// to the frame pool (ReleaseFrame) once it is written; a frame that
	// could not be delivered is released or left to the garbage
	// collector, never handed back. Send blocks while the (possibly
	// shaped) link transmits the frame.
	Send(frame []byte) error
	// Recv returns the next frame, blocking until one arrives or the
	// connection closes (ErrClosed). The receiver owns the frame: it
	// either passes it to ReleaseFrame exactly once, when nothing
	// aliases it any more, or drops it.
	Recv() ([]byte, error)
	// Close tears down both directions. Safe to call multiple times.
	Close() error
	// LocalAddr and RemoteAddr identify the endpoints.
	LocalAddr() Addr
	RemoteAddr() Addr
}

// Listener accepts inbound connections for one endpoint address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() Addr
}

// Network creates listeners and outbound connections.
type Network interface {
	// Listen binds the given endpoint address.
	Listen(addr Addr) (Listener, error)
	// Dial connects from the local endpoint to a remote one. The local
	// address attributes traffic to the dialing host for shaping.
	Dial(local, remote Addr) (Conn, error)
}
