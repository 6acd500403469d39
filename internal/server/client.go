package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rio/internal/sim"
	"rio/internal/wire"
)

// Client is the transport-independent face of a riod server: tests and
// the load generator speak to an in-process server and a TCP server
// through the same interface.
type Client interface {
	// Do submits one request and blocks for its response. A non-nil
	// error means the transport failed; server-side failures come back
	// as typed statuses in the response.
	Do(req *wire.Request) (*wire.Response, error)
	Close() error
}

// MemClient is the in-process transport: calls land directly on the
// server with no sockets or frames in between. Deterministic given a
// deterministic caller, which is what the golden-transcript tests use.
type MemClient struct{ S *Server }

// Do implements Client.
func (c MemClient) Do(req *wire.Request) (*wire.Response, error) { return c.S.Do(req), nil }

// Close implements Client (the server's lifecycle is the caller's).
func (c MemClient) Close() error { return nil }

// TCPClient is a synchronous wire-protocol client over one TCP
// connection. Not safe for concurrent use; closed-loop load clients
// hold one each.
type TCPClient struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

// DialTCP connects to a riod server.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPClient{conn: conn, br: bufio.NewReaderSize(conn, connReadBuf), buf: make([]byte, 0, 4096)}, nil
}

// sendRequest writes req as one frame in one Write (one syscall, one
// segment on a raw connection), reusing buf and returning its growth.
func sendRequest(w io.Writer, buf []byte, req *wire.Request) ([]byte, error) {
	if wire.RequestSize(req) > wire.MaxFrame {
		return buf, wire.ErrFrame
	}
	buf = wire.AppendRequestFrame(buf[:0], req)
	_, err := w.Write(buf)
	return buf, err
}

// Do implements Client.
func (c *TCPClient) Do(req *wire.Request) (*wire.Response, error) {
	var err error
	if c.buf, err = sendRequest(c.conn, c.buf, req); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrame(c.br, wire.MaxFrame)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResponse(payload)
}

// Close implements Client.
func (c *TCPClient) Close() error { return c.conn.Close() }

// MuxClient is a pipelined wire-protocol client: many goroutines share
// one TCP connection, each with its own request in flight. Do rewrites
// the request ID to a connection-unique tag before sending and matches
// the response by that tag (the server echoes IDs verbatim but answers
// in completion order), then restores the caller's ID on both request
// and response — callers never see the tags. Safe for concurrent use.
type MuxClient struct {
	conn net.Conn
	br   *bufio.Reader // readLoop only

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte

	mu      sync.Mutex
	nextTag uint64
	tagMask uint64 // bounds the tag space; 0 means full 64-bit. Test seam.
	pending map[uint64]chan *wire.Response
	err     error // sticky transport error; set once, fails all later Dos
}

// DialMux connects to a riod server for pipelined use.
func DialMux(addr string) (*MuxClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewMuxClient(conn), nil
}

// NewMuxClient wraps an established connection and starts the response
// reader. The client owns conn from here on.
func NewMuxClient(conn net.Conn) *MuxClient {
	m := &MuxClient{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, connReadBuf),
		wbuf:    make([]byte, 0, 4096),
		pending: make(map[uint64]chan *wire.Response),
	}
	go m.readLoop()
	return m
}

// readLoop delivers responses to waiting Dos by tag until the stream
// fails, then fails every outstanding and future call with the error.
func (m *MuxClient) readLoop() {
	for {
		payload, err := wire.ReadFrame(m.br, wire.MaxFrame)
		if err != nil {
			m.fail(err)
			return
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[resp.ID]
		if ok {
			delete(m.pending, resp.ID)
		}
		m.mu.Unlock()
		if !ok {
			// A tag nobody is waiting for means the stream is out of
			// step with our bookkeeping; nothing later can be trusted.
			m.fail(fmt.Errorf("server: response for unknown tag %d", resp.ID))
			return
		}
		ch <- resp
	}
}

// fail marks the client broken and wakes every outstanding Do.
func (m *MuxClient) fail(err error) {
	m.conn.Close()
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	for tag, ch := range m.pending {
		delete(m.pending, tag)
		close(ch)
	}
	m.mu.Unlock()
}

// Do implements Client. It may be called from many goroutines at once;
// each call blocks only for its own response.
func (m *MuxClient) Do(req *wire.Request) (*wire.Response, error) {
	ch := make(chan *wire.Response, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	// Mint a tag no in-flight request holds. On a long-lived connection
	// the counter wraps (the mask shrinks the space so tests can force
	// it in bounded time), and handing out a still-pending tag would
	// cross-deliver one request's response to another — so probe until
	// a free tag turns up, and fail cleanly if the space is saturated.
	mask := m.tagMask
	if mask == 0 {
		mask = ^uint64(0)
	}
	var tag uint64
	for tries := uint64(0); ; tries++ {
		if tries > mask {
			m.mu.Unlock()
			return nil, fmt.Errorf("server: tag space exhausted (%d requests in flight)", len(m.pending))
		}
		m.nextTag++
		tag = m.nextTag & mask
		if _, busy := m.pending[tag]; !busy {
			break
		}
	}
	m.pending[tag] = ch
	m.mu.Unlock()

	orig := req.ID
	req.ID = tag
	m.wmu.Lock()
	var err error
	m.wbuf, err = sendRequest(m.conn, m.wbuf, req)
	m.wmu.Unlock()
	req.ID = orig
	if err != nil {
		m.mu.Lock()
		delete(m.pending, tag)
		m.mu.Unlock()
		return nil, err
	}

	resp, ok := <-ch
	if !ok {
		m.mu.Lock()
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	resp.ID = orig
	return resp, nil
}

// Close implements Client. Outstanding Dos fail with net.ErrClosed.
func (m *MuxClient) Close() error { return m.conn.Close() }

// RetryPolicy bounds a client's EAGAIN loop. It is ioretry.Policy's
// shape on the client side of the wire — bounded attempts, exponential
// backoff, a cap — with wall-clock delays, because load clients live
// outside the simulation.
type RetryPolicy struct {
	// MaxRetries is re-submissions after the first attempt.
	MaxRetries int
	// BaseDelay backs off the first retry; each further retry doubles
	// it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay is a hard cap: no computed delay — doubled or jittered —
	// ever exceeds it. Zero means uncapped.
	MaxDelay time.Duration
	// Seed, when nonzero, spreads each delay uniformly over
	// [delay/2, delay] with sim.Mix(Seed, attempt). Without jitter,
	// every client blocked on the same dead primary re-sends on the
	// same schedule, and the promoted primary takes the whole herd in
	// one synchronized burst; with it, each seed gets its own
	// deterministic, desynchronized schedule.
	Seed uint64
}

// DefaultRetryPolicy rides out a shard warm reboot: ~10 attempts
// backing off 1ms -> 128ms covers several hundred milliseconds of
// outage before giving up. Callers that fan out many clients should
// set a distinct Seed per client to avoid a synchronized retry storm.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 10, BaseDelay: time.Millisecond, MaxDelay: 128 * time.Millisecond}
}

// Delay returns the backoff before retry attempt n (0-based): BaseDelay
// doubled n times, jittered into [d/2, d] when Seed is set, and never
// above MaxDelay. It is a pure function of (policy, n) — the schedule a
// seed produces is deterministic, reproducible, and testable without
// sleeping.
func (p RetryPolicy) Delay(n int) time.Duration {
	d := p.BaseDelay
	// Shift without overflow: past 62 doublings (or past the cap) the
	// exponential is saturated anyway.
	for i := 0; i < n; i++ {
		if d >= p.MaxDelay && p.MaxDelay > 0 {
			break
		}
		if d > 1<<62-1-d { // d*2 would overflow
			d = 1<<62 - 1
			break
		}
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Seed != 0 && d > 1 {
		half := d / 2
		d = half + time.Duration(sim.Mix(p.Seed, uint64(n))%uint64(half+1))
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// RetryStats counts what the retry loop absorbed.
type RetryStats struct {
	Retries   uint64 // re-submissions issued
	Exhausted uint64 // requests that stayed retryable after MaxRetries
	Redirects uint64 // StatusMoved hops followed
	Backoff   time.Duration
}

// maxRedirects bounds how many StatusMoved hops one Do will follow. A
// correct coordinator converges in one hop; the bound exists so a
// routing loop (two nodes each pointing at the other mid-promotion)
// costs a typed error, not a hang.
const maxRedirects = 4

// RetryClient wraps a Client with the EAGAIN discipline: responses
// whose status is Retryable are re-submitted with exponential backoff
// (jittered and capped per Pol). All other responses, and transport
// errors, pass through — except StatusMoved when Redial is set, which
// is followed transparently: the client re-dials the address the
// redirect names and re-sends there. Not safe for concurrent use
// (wraps a single-connection client).
type RetryClient struct {
	C     Client
	Pol   RetryPolicy
	Stats RetryStats

	// Redial, when set, follows StatusMoved redirects: it dials the
	// address carried in Response.Msg and returns a client for it; the
	// old client is closed and replaced. Works over any transport —
	// DialTCP, DialMux, or an in-process resolver.
	Redial func(addr string) (Client, error)
}

// Do implements Client.
func (r *RetryClient) Do(req *wire.Request) (*wire.Response, error) {
	resp, err := r.doMoved(req)
	if err != nil {
		return resp, err
	}
	for n := 0; n < r.Pol.MaxRetries && resp.Status.Retryable(); n++ {
		if d := r.Pol.Delay(n); d > 0 {
			r.Stats.Backoff += d
			time.Sleep(d)
		}
		r.Stats.Retries++
		if resp, err = r.doMoved(req); err != nil {
			return resp, err
		}
	}
	if resp.Status.Retryable() {
		r.Stats.Exhausted++
	}
	return resp, nil
}

// doMoved issues one attempt, following a bounded chain of StatusMoved
// redirects when a Redial hook is present.
func (r *RetryClient) doMoved(req *wire.Request) (*wire.Response, error) {
	resp, err := r.C.Do(req)
	for hops := 0; err == nil && resp.Status == wire.StatusMoved && r.Redial != nil; hops++ {
		if hops >= maxRedirects {
			return resp, fmt.Errorf("server: %d redirects without converging (last: %q)", hops, resp.Msg)
		}
		next, derr := r.Redial(resp.Msg)
		if derr != nil {
			return resp, fmt.Errorf("server: following redirect to %q: %w", resp.Msg, derr)
		}
		r.C.Close()
		r.C = next
		r.Stats.Redirects++
		resp, err = r.C.Do(req)
	}
	return resp, err
}

// Close implements Client.
func (r *RetryClient) Close() error { return r.C.Close() }
