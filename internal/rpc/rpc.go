// Package rpc provides the minimal multiplexed request/response layer
// used by every service in the system (version manager, provider
// manager, providers, metadata providers, namespace managers, namenode,
// datanodes, job tracker, task trackers).
//
// One Client keeps a single transport connection per (local, remote)
// pair and multiplexes concurrent calls over it with request IDs, like
// the persistent peer connections of the original BlobSeer service.
// A Server dispatches each inbound request to a registered handler in
// its own goroutine, so slow page transfers never block metadata calls.
//
// The layer is also the system's instrumentation choke point: every
// request frame carries a wire.TraceContext, and both sides of every
// call record per-method latency/bytes/error counters into the default
// metrics registry, keyed by the Method's registered name.
//
// # Frame lifetime
//
// Request and response frames come from transport.NewFrame and have
// one owner at a time; the last owner releases the frame exactly once
// or abandons it to the garbage collector.
//
//   - Call marshals the request into a frame and hands it to Conn.Send,
//     which owns it from then on whether or not the send succeeds.
//   - The server owns a request frame from Recv until the handler has
//     returned AND its response body has been marshalled, and releases
//     it then. A handler, and the body it returns, may therefore alias
//     the request (wire.Reader.Bytes, Fields) — and the body may read
//     the request as it is marshalled: the dht's get-batch answer looks
//     its keys up in the request frame inside its AppendTo. Nothing may
//     keep such an alias longer: the frame's bytes are reused by the
//     next request. What has to outlive the handler is copied
//     (pagestore.Store.Put makes that one copy of a page).
//   - The response frame goes to Conn.Send the same way. On the client
//     Call releases it as soon as DecodeFrom returns, so a response
//     decoder copies whatever it keeps: the dht client's get answer
//     copies its values into one slab per answer, and a fetched page is
//     copied into a pooled frame of its own, which the page cache
//     recycles. A response that carried an error or whose body was not
//     wanted is released undecoded, and so is one whose caller already
//     left on ctx.Done() and that the receive loop found no pending call
//     for. A response that raced a departing caller into its channel,
//     and the calls failed by a lost connection or Close, hold no frame
//     that anybody else will touch: they are abandoned.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/obs"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// Frame kinds.
const (
	kindRequest  = 1
	kindResponse = 2
)

// Errors.
var (
	ErrUnknownMethod = errors.New("rpc: unknown method")
	ErrServerClosed  = errors.New("rpc: server closed")
	ErrConnLost      = errors.New("rpc: connection lost")
	ErrPoolClosed    = errors.New("rpc: pool closed")
)

// Method identifies an RPC method: the compact id that goes on the
// wire plus the human-readable name that keys metrics and span labels.
// Services declare their method tables as Method values so the id
// space stays explicit while every histogram and trace is legible.
type Method struct {
	ID   uint32
	Name string

	// spanLabel ("rpc:"+Name) and stats (the client-side slot in the
	// default registry) are resolved once at table-construction time so
	// the per-call path does no concatenation or map lookup.
	spanLabel string
	stats     *metrics.MethodStats
}

func (m Method) String() string {
	if m.Name != "" {
		return m.Name
	}
	return fmt.Sprintf("method(%d)", m.ID)
}

// M is shorthand for constructing a Method.
func M(id uint32, name string) Method {
	return Method{
		ID:        id,
		Name:      name,
		spanLabel: "rpc:" + name,
		stats:     metrics.Default.RPCClient.Method(name),
	}
}

// HandlerFunc serves one request. The Reader is positioned at the
// request body; the returned Marshaler is the response body. A non-nil
// error is transmitted to the caller instead of the body.
type HandlerFunc func(r *wire.Reader) (wire.Marshaler, error)

// Server serves RPC requests on one endpoint address.
type Server struct {
	addr     transport.Addr
	listener transport.Listener

	reqCh chan request
	quit  chan struct{}

	mu       sync.Mutex
	handlers map[uint32]handlerEntry
	conns    map[transport.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// request is one decoded frame handed from a connection reader to a
// dispatch worker.
type request struct {
	c      transport.Conn
	id     uint64
	method uint32
	tc     wire.TraceContext
	frame  []byte      // the whole request frame, released after dispatch
	r      wire.Reader // positioned at the request body
}

// frameHeader is room for the header either direction puts in front of
// a body: kind, call id, method id and trace context are at most 36
// bytes. A body that is no wire.Sizer gets the smallest frame and
// grows it by append if it must.
const frameHeader = 64

// newFrame takes a frame that fits the rpc header plus body.
func newFrame(body wire.Marshaler) []byte {
	n := frameHeader
	if s, ok := body.(wire.Sizer); ok {
		n += s.EncodedSize()
	}
	return transport.NewFrame(n)
}

// dispatchWorkers is how many long-lived dispatch goroutines a server
// keeps. Reusing workers keeps their stacks grown across requests —
// spawning a fresh goroutine per request makes every handler chain
// re-pay stack-growth copies, which profiles as runtime.newstack on
// the busiest servers. Requests beyond the pool overflow to a spawned
// goroutine, so a full pool degrades to the old behavior instead of
// queueing behind a blocked handler.
const dispatchWorkers = 8

// NewServer binds addr on net and starts accepting. Handlers are
// registered after; until one is, requests for its method fail with
// ErrUnknownMethod. A server whose callers may already be retrying
// against addr, as they do against a restarting version manager, is
// started with Serve instead.
func NewServer(net transport.Network, addr transport.Addr) (*Server, error) {
	return Serve(net, addr, func(*Server) {})
}

// Serve is NewServer with register run on the server before it binds
// addr: no request can reach it before the methods register handles.
func Serve(net transport.Network, addr transport.Addr, register func(*Server)) (*Server, error) {
	s := &Server{
		addr:     addr,
		reqCh:    make(chan request),
		quit:     make(chan struct{}),
		handlers: make(map[uint32]handlerEntry),
		conns:    make(map[transport.Conn]struct{}),
	}
	register(s)
	l, err := net.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("rpc server %s: %w", addr, err)
	}
	s.listener = l
	s.wg.Add(1 + dispatchWorkers)
	go s.acceptLoop()
	for i := 0; i < dispatchWorkers; i++ {
		go s.dispatchWorker()
	}
	return s, nil
}

func (s *Server) dispatchWorker() {
	defer s.wg.Done()
	// One request object per worker: a handler is given a pointer to its
	// Reader, which would otherwise cost an allocation per request.
	var req request
	for {
		select {
		case req = <-s.reqCh:
			s.dispatch(&req)
			req = request{} // a parked worker pins neither frame nor conn
		case <-s.quit:
			return
		}
	}
}

// Addr returns the server's endpoint address.
func (s *Server) Addr() transport.Addr { return s.addr }

// handlerEntry pairs a handler with its method's display strings and
// stats slot, all resolved once at registration so dispatch does no
// string building or map probing beyond the one id lookup.
type handlerEntry struct {
	h         HandlerFunc
	name      string
	spanLabel string // "serve:"+name
	stats     *metrics.MethodStats
}

// Handle registers h for the given method.
func (s *Server) Handle(method Method, h HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method.ID] = handlerEntry{
		h:         h,
		name:      method.Name,
		spanLabel: "serve:" + method.Name,
		stats:     metrics.Default.RPCServer.Method(method.Name),
	}
}

// Close stops the server and tears down live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	close(s.quit)
	s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(c transport.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	for {
		frame, err := c.Recv()
		if err != nil {
			return
		}
		req := request{c: c, frame: frame, r: *wire.NewReader(frame)}
		kind := req.r.Uvarint()
		req.id = req.r.Uvarint()
		req.method = uint32(req.r.Uvarint())
		if err := req.tc.DecodeFrom(&req.r); err != nil || kind != kindRequest {
			// Corrupt stream: drop the connection, and say so — a
			// silent teardown here looks like a network fault upstream.
			slog.Warn("rpc: corrupt request frame, dropping connection", "addr", s.addr, "bytes", len(frame))
			return
		}
		select {
		case s.reqCh <- req:
		default:
			// Every worker is busy (or blocked in a handler): spawn
			// rather than queue, so one slow handler can never stall
			// the requests behind it.
			overflow := req // its own copy: only this path pays an allocation
			go s.dispatch(&overflow)
		}
	}
}

// unknownEntry builds the stats/label entry for an unregistered method
// id. Kept out of dispatch so the cold Sprintf path doesn't widen the
// frame of every per-request goroutine.
//
//go:noinline
func unknownEntry(method uint32) handlerEntry {
	name := fmt.Sprintf("method(%d)", method)
	return handlerEntry{
		name:      name,
		spanLabel: "serve:" + name,
		stats:     metrics.Default.RPCServer.Method(name),
	}
}

func (s *Server) dispatch(req *request) {
	s.mu.Lock()
	ent, known := s.handlers[req.method]
	s.mu.Unlock()
	if !known {
		ent = unknownEntry(req.method)
	}

	span := obs.StartRemote(req.tc.Trace, req.tc.Span, ent.spanLabel, string(s.addr))
	start := time.Now()

	var body wire.Marshaler
	var err error
	if ent.h == nil {
		err = fmt.Errorf("%w: %d at %s", ErrUnknownMethod, req.method, s.addr)
	} else {
		body, err = ent.h(&req.r)
	}
	if err != nil {
		body = nil
	}

	resp := wire.AppendUvarint(newFrame(body), kindResponse)
	resp = wire.AppendUvarint(resp, req.id)
	resp = wire.AppendError(resp, err)
	if body != nil {
		resp = body.AppendTo(resp)
	}
	// The body may alias the request (an echo returns what it decoded),
	// so the request frame lives until here and no longer.
	reqLen := len(req.frame)
	transport.ReleaseFrame(req.frame)

	ent.stats.Observe(time.Since(start), reqLen+len(resp), err)
	span.End(err)

	// Send owns resp from here on, delivered or not.
	if serr := req.c.Send(resp); serr != nil {
		// The peer went away mid-response; the caller will observe a
		// lost connection, but record that the reply was dropped.
		slog.Debug("rpc: drop response", "addr", s.addr, "method", ent.name, "err", serr)
	}
}

// Client issues calls to one remote endpoint. It is safe for concurrent
// use; concurrent calls are multiplexed over a single connection.
type Client struct {
	net    transport.Network
	local  transport.Addr
	remote transport.Addr
	calls  transport.FreeList[call] // for reuse once their result is in

	mu      sync.Mutex
	conn    transport.Conn
	nextID  uint64
	pending map[uint64]*call
	closed  bool
}

// call is what a Call parks in pending: the channel its result arrives
// on and the Reader its response is decoded through (DecodeFrom takes a
// pointer, which has to point somewhere that outlives the stack frame).
// A call is recycled after its result was received and nowhere else:
// whoever removes a call from pending sends on done exactly once, so a
// Call that leaves without receiving — on ctx.Done() or a failed send —
// may leave a sender behind that still holds the channel.
type call struct {
	done chan callResult // buffered: the sender never blocks
	body wire.Reader
}

type callResult struct {
	frame []byte      // the whole response frame
	body  wire.Reader // positioned at the response body
	err   error
}

// NewClient returns a client for remote; the connection is established
// lazily on first call and re-established after failures.
func NewClient(net transport.Network, local, remote transport.Addr) *Client {
	return &Client{
		net:     net,
		local:   local,
		remote:  remote,
		pending: make(map[uint64]*call),
	}
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	pend := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, cl := range pend {
		cl.done <- callResult{err: ErrConnLost}
	}
	return nil
}

// ensureConn returns a live connection, dialing if necessary.
func (c *Client) ensureConn() (transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrConnLost
	}
	if c.conn != nil {
		return c.conn, nil
	}
	// The dial is intentionally serialized under c.mu: every contender
	// needs this same connection and would block on the dial's outcome
	// regardless; racing dials would leak connections.
	//lint:lockhold contenders need this conn and block on the dial's outcome regardless; racing dials would leak connections
	conn, err := c.net.Dial(c.local, c.remote)
	if err != nil {
		return nil, fmt.Errorf("rpc dial %s: %w", c.remote, err)
	}
	c.conn = conn
	go c.recvLoop(conn)
	return conn, nil
}

func (c *Client) recvLoop(conn transport.Conn) {
	for {
		frame, err := conn.Recv()
		if err != nil {
			c.failConn(conn, ErrConnLost)
			return
		}
		res := callResult{frame: frame, body: *wire.NewReader(frame)}
		kind := res.body.Uvarint()
		id := res.body.Uvarint()
		res.err = res.body.Error()
		if res.body.Err() != nil || kind != kindResponse {
			c.failConn(conn, fmt.Errorf("rpc: corrupt response from %s", c.remote))
			return
		}
		c.mu.Lock()
		cl := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if cl == nil {
			// The caller left on ctx.Done(): nobody will decode this.
			transport.ReleaseFrame(frame)
			continue
		}
		cl.done <- res
	}
}

// failConn fails every pending call and drops the connection so the
// next call redials. It sweeps pending only while conn is still the
// current connection: both the send path and the receive loop report
// the same dead conn, and the late report must not fail calls that
// were already retried over a fresh connection.
func (c *Client) failConn(conn transport.Conn, err error) {
	conn.Close()
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	c.conn = nil
	pend := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	for _, cl := range pend {
		cl.done <- callResult{err: err}
	}
}

// Call invokes method with request body req and decodes the response
// into resp (which may be nil when no body is expected). It respects
// ctx cancellation and deadlines. When ctx carries an active trace the
// call becomes a child span and its identity rides the request frame.
//
// The instrumentation is folded into this one function rather than a
// wrapper: a wrapper frame would sit on every in-flight call's stack
// for the whole wait, and the per-request goroutines here are exactly
// the stacks the runtime is busiest copying.
func (c *Client) Call(ctx context.Context, method Method, req wire.Marshaler, resp wire.Unmarshaler) (err error) {
	start := time.Now()
	if method.stats == nil { // Method literal built without M()
		method.spanLabel = "rpc:" + method.Name
		method.stats = metrics.Default.RPCClient.Method(method.Name)
	}
	span := obs.StartChild(ctx, method.spanLabel)
	var tc wire.TraceContext
	if span != nil {
		tc = wire.TraceContext{Trace: span.Trace, Span: span.ID}
		span.Annotate("-> %s", c.remote)
	}
	nbytes := 0
	defer func() {
		method.stats.Observe(time.Since(start), nbytes, err)
		span.End(err)
	}()

	conn, err := c.ensureConn()
	if err != nil {
		return err
	}

	cl := c.calls.Take(func() *call { return &call{done: make(chan callResult, 1)} })
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = cl
	c.mu.Unlock()

	frame := wire.AppendUvarint(newFrame(req), kindRequest)
	frame = wire.AppendUvarint(frame, id)
	frame = wire.AppendUvarint(frame, uint64(method.ID))
	frame = tc.AppendTo(frame)
	if req != nil {
		frame = req.AppendTo(frame)
	}
	nbytes = len(frame)

	if err := conn.Send(frame); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		c.failConn(conn, ErrConnLost)
		return fmt.Errorf("rpc call %s/%s: %w", c.remote, method, ErrConnLost)
	}

	select {
	case res := <-cl.done:
		nbytes += len(res.frame)
		err = res.err // a remote error's text is copied out by the header decode
		if err == nil && resp != nil {
			cl.body = res.body
			if err = resp.DecodeFrom(&cl.body); err != nil {
				err = fmt.Errorf("rpc call %s/%s: decode response: %w", c.remote, method, err)
			}
			cl.body = wire.Reader{} // a free call must not pin the frame
		}
		c.calls.Give(cl)
		// Nothing aliases the frame: the decode copied what it keeps. (A
		// connection-lost result carries no frame.)
		transport.ReleaseFrame(res.frame)
		return err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return ctx.Err()
	}
}

// Pool caches one Client per remote address for a fixed local address.
// Services use it to talk to many peers (providers, metadata providers)
// without connection churn.
type Pool struct {
	net   transport.Network
	local transport.Addr

	mu      sync.Mutex
	clients map[transport.Addr]*Client
	closed  bool
}

// NewPool returns a client pool dialing from local.
func NewPool(net transport.Network, local transport.Addr) *Pool {
	return &Pool{net: net, local: local, clients: make(map[transport.Addr]*Client)}
}

// Get returns the cached client for remote, creating it if needed; a
// closed pool has none to give and returns nil.
func (p *Pool) Get(remote transport.Addr) *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	cl, ok := p.clients[remote]
	if !ok {
		cl = NewClient(p.net, p.local, remote)
		p.clients[remote] = cl
	}
	return cl
}

// Call is shorthand for Get(remote).Call(...). On a closed pool it fails
// with ErrPoolClosed and dials nothing: detached calls (a pin release,
// an abort) can run during teardown, and must not open a connection
// nobody will close.
func (p *Pool) Call(ctx context.Context, remote transport.Addr, method Method, req wire.Marshaler, resp wire.Unmarshaler) error {
	cl := p.Get(remote)
	if cl == nil {
		return fmt.Errorf("rpc call %s/%s: %w", remote, method, ErrPoolClosed)
	}
	return cl.Call(ctx, method, req, resp)
}

// Close closes every cached client.
func (p *Pool) Close() error {
	p.mu.Lock()
	cls := make([]*Client, 0, len(p.clients))
	for _, cl := range p.clients {
		cls = append(cls, cl)
	}
	p.clients = make(map[transport.Addr]*Client)
	p.closed = true
	p.mu.Unlock()
	for _, cl := range cls {
		cl.Close()
	}
	return nil
}
