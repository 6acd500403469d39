package server

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"time"

	"rio/internal/wire"
)

// connInflight bounds how many decoded requests one connection may have
// outstanding inside the server at once. Pipelined clients past this
// depth see backpressure on the TCP stream itself (the reader stops
// pulling frames), not an error — the bound exists so one connection
// cannot hold unbounded decoded frames in memory.
const connInflight = 64

// Connection deadline defaults (Config.IdleTimeout / WriteTimeout; a
// negative value disables). A serving goroutine must never be pinned
// forever by a peer that went silent — a hung client, or a machine on
// the wrong side of a network partition, would otherwise hold its
// reader goroutine and up to connInflight decoded requests until
// process exit.
const (
	defaultIdleTimeout  = 5 * time.Minute
	defaultWriteTimeout = 30 * time.Second
)

// Serve accepts connections on ln and serves each on its own
// goroutine until ln is closed (Accept then returns an error) — the
// caller owns the listener's lifecycle. Connections are pipelined: the
// reader keeps pulling frames while earlier requests are still in the
// shard queues, so one connection can keep many shards busy at once.
// Responses are written as they complete, matched to requests by the
// echoed ID — a synchronous client (one request in flight) observes
// exactly the old one-in, one-out behaviour.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// connReadBuf sizes the buffered reader on each end of a connection
// (requests here, replies in TCPClient and MuxClient): a pipelined burst
// of block-sized frames costs one read syscall, not two per frame.
const connReadBuf = 64 << 10

// idleReader arms a read deadline before every read that reaches the
// socket — under the buffered reader, exactly when the buffer has run
// dry and the connection is about to block, so a burst pays for one
// deadline. Between frames the peer has IdleTimeout to start the next
// one. Once a frame's first byte has arrived the rest of it must land
// within IdleTimeout of that moment: the deadline is fixed to the frame,
// not re-armed per read, so a peer trickling a byte every
// IdleTimeout−ε cannot hold the connection and its pooled frame buffer
// forever.
type idleReader struct {
	conn net.Conn
	idle time.Duration
	// arrived is when the last socket read returned bytes: the latest
	// moment anything still in the buffered reader can have arrived.
	arrived time.Time
	// frameBy is the deadline of the frame being read, zero while no
	// byte of it has arrived.
	frameBy time.Time
}

// startFrame is called before each frame is read; buffered says whether
// its first bytes already sit in the buffered reader (they came with an
// earlier frame's read).
func (r *idleReader) startFrame(buffered bool) {
	r.frameBy = time.Time{}
	if buffered {
		r.frameBy = r.arrived.Add(r.idle)
	}
}

func (r *idleReader) Read(p []byte) (int, error) {
	if r.idle <= 0 {
		return r.conn.Read(p)
	}
	by := r.frameBy
	if by.IsZero() {
		by = time.Now().Add(r.idle)
	}
	r.conn.SetReadDeadline(by)
	n, err := r.conn.Read(p)
	if n > 0 {
		r.arrived = time.Now()
		if r.frameBy.IsZero() {
			r.frameBy = r.arrived.Add(r.idle)
		}
	}
	return n, err
}

// serveConn runs one connection on two goroutines: this one reads,
// decodes and enqueues; a writer serializes response frames back onto
// the stream. Each frame lands in a pooled buffer and is decoded in
// place — Request.Data aliases the buffer, which rides the task to its
// shard and is released there once served — and the reader enqueues the
// task itself with the connection's reply channel as its destination, so
// requests to one shard execute in arrival order. Replies leave in
// completion order; the echoed request ID is the tag a pipelined client
// matches on. Any transport or decode error ends the connection: the
// framing carries no resync marker, so after a bad frame the stream
// cannot be trusted.
//
// At most connInflight requests per connection are inside the server:
// the reader takes a token before each enqueue and the writer returns it
// when it dequeues the reply. Every entry in the reply channel holds a
// token and the channel's capacity is the token count, so neither a
// shard goroutine nor Close's drain ever blocks delivering a reply,
// whatever the peer does. A peer that stops draining its receive window
// meets the writer's per-flush deadline; either deadline firing closes
// the connection.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()

	// The writer owns the socket's write side. A write failure or
	// deadline closes the connection (unblocking the reader) but keeps
	// draining the channel — releasing pooled frames and tokens — so the
	// reader's teardown below always completes.
	out := make(chan reply, connInflight)
	tokens := make(chan struct{}, connInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.connWriter(conn, out, tokens, s.cfg.WriteTimeout)
	}()

	ir := &idleReader{conn: conn, idle: s.cfg.IdleTimeout}
	br := bufio.NewReaderSize(ir, connReadBuf)
	var bad *wire.Response // the refusal for a frame that did not decode
	for bad == nil {
		buf := s.pool.get()
		ir.startFrame(br.Buffered() > 0)
		frame, err := wire.ReadFrameInto(br, wire.MaxFrame, buf)
		if err != nil {
			s.pool.putFrameBuf(buf)
			break
		}
		tokens <- struct{}{}
		var refused *wire.Response
		req, err := wire.DecodeRequestAliased(frame)
		if err != nil {
			// The ID is unknowable from a frame that did not decode;
			// answer ID 0 so the peer sees why, then drop the stream.
			bad = &wire.Response{Status: wire.StatusInvalid, Msg: "bad request frame: " + err.Error()}
		} else {
			//riolint:bufalias custody transfer: the pooled frame rides its task through the shard queue, and serve (or Close's drain) releases it once the payload is copied
			refused = s.submit(task{req: req, frame: frame, resp: out, wantFrame: true})
		}
		if bad != nil || refused != nil {
			s.pool.putFrameBuf(frame)
		}
		if refused != nil {
			out <- reply{resp: refused}
		}
	}
	// Holding every token means nothing of this connection's is queued,
	// being served, or waiting in out: every earlier frame has been
	// answered, so the refusal, if any, is the last thing the peer reads.
	held := 0
	if bad != nil {
		held = 1 // the bad frame's token, which its refusal carries
	}
	for ; held < connInflight; held++ {
		tokens <- struct{}{}
	}
	if bad != nil {
		out <- reply{resp: bad}
	}
	close(out)
	<-writerDone
}

// connWriter drains one connection's reply channel onto the socket,
// returning an in-flight token for every reply it dequeues. Each wakeup
// collects every reply already queued and flushes them as ONE vectored
// write (net.Buffers, i.e. writev): zero-copy read frames go into the
// vector as-is — the pooled buffer filled from cache frames is handed to
// the kernel untouched — and all other responses are serialized
// back-to-back into a persistent encode buffer whose contiguous runs
// each contribute a single vector entry. A pipelined burst of K
// responses therefore costs one syscall, not K, and the encode buffer's
// growth is kept across iterations (the old per-frame writer grew a
// throwaway copy on every response larger than its seed).
func (s *Server) connWriter(conn net.Conn, out <-chan reply, tokens <-chan struct{}, write time.Duration) {
	var (
		batch  []reply
		encBuf []byte // persistent arena for non-frame responses
		spans  []int  // encBuf offset after each batch entry (parallel to batch)
		iov    net.Buffers
	)
	broken := false
	for first := range out {
		// One scheduler pass before draining: the shard goroutine that
		// woke us is still delivering the rest of its batch. Measured
		// against no yield (4 alternating pairs): writev_avg_frames 3.5
		// vs 2.3, serve-rw8k p50 121 vs 138 us (4/4); at depth 1, where
		// nothing can batch, serve-meta is level (46.4 vs 47.5 us).
		runtime.Gosched()
		batch = append(batch[:0], first)
	drain:
		for len(batch) < connInflight {
			select {
			case r, ok := <-out:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		for range batch {
			<-tokens
		}
		if broken {
			// The peer is gone; keep consuming so the reader's teardown
			// finishes, and return the frames to the pool.
			s.releaseBatch(batch)
			continue
		}

		encBuf, spans = encodeBatch(encBuf, spans, batch)
		iov = buildIov(iov, encBuf, spans, batch)
		if write > 0 {
			conn.SetWriteDeadline(time.Now().Add(write))
		}
		// WriteTo consumes the header it is called on (that is how it
		// resumes partial writes), so hand it a copy and keep iov as
		// the reusable scratch.
		toWrite := iov
		if _, err := toWrite.WriteTo(conn); err != nil {
			broken = true
			conn.Close()
		} else {
			s.recordWritev(len(batch))
		}
		s.releaseBatch(batch)
		// Drop the frame references before the next batch: the pool may
		// hand those buffers to another connection at any moment.
		for i := range iov {
			iov[i] = nil
		}
	}
}

// releaseBatch returns every pooled frame in batch to the pool.
func (s *Server) releaseBatch(batch []reply) {
	for _, r := range batch {
		s.ReleaseFrame(r.frame)
	}
}

// encodeBatch serializes every non-frame reply in batch into encBuf,
// back to back, recording in spans the encBuf offset after each batch
// entry (frame entries contribute nothing, so their span repeats the
// previous offset). Both slices are the caller's reusable scratch:
// growth is returned and kept, which is the fix for the old per-frame
// writer whose grown encode buffer was a discarded copy — every
// response larger than the 4KB seed allocated afresh, forever.
func encodeBatch(encBuf []byte, spans []int, batch []reply) ([]byte, []int) {
	encBuf = encBuf[:0]
	spans = spans[:0]
	for _, r := range batch {
		if r.frame == nil {
			encBuf = wire.AppendResponseFrame(encBuf, r.resp)
		}
		spans = append(spans, len(encBuf))
	}
	return encBuf, spans
}

// buildIov appends the batch's vector entries to iov (reset first), in
// batch order. Consecutive encoded responses are contiguous in encBuf
// by construction, so each run of them is a single vector entry;
// zero-copy frames interleave as their own entries. Entries must be
// sliced only after encodeBatch finishes, since an append there may
// move encBuf — which is why this is a second pass.
func buildIov(iov net.Buffers, encBuf []byte, spans []int, batch []reply) net.Buffers {
	iov = iov[:0]
	runStart := 0
	for i, r := range batch {
		if r.frame == nil {
			continue // tail of the current encoded run
		}
		if spans[i] > runStart {
			iov = append(iov, encBuf[runStart:spans[i]])
			runStart = spans[i]
		}
		iov = append(iov, r.frame)
	}
	if len(encBuf) > runStart {
		iov = append(iov, encBuf[runStart:])
	}
	return iov
}
