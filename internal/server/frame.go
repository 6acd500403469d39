package server

import (
	"fmt"
	"sync"
	"time"

	"rio/internal/wire"
)

// reply is what a task's channel carries back: the response, by value,
// plus — on the zero-copy read path — the fully serialized wire frame
// (length prefix included) whose data region was filled straight from
// cache frames. When frame is non-nil it is backed by a pooled buffer and
// the receiver owns it until ReleaseFrame; resp.Data is nil in that case
// (the payload lives only in the frame).
type reply struct {
	resp  wire.Response
	frame []byte
}

// frameBufSize seeds new pool buffers with room for a block-sized read
// or write frame so the common case never grows.
const frameBufSize = 4 + 64 + 8192

// maxPooledFrames bounds the pool's entries and maxPooledFrameCap each
// entry's capacity (8 MB in all); past either, a buffer is dropped for
// the collector rather than pinning a burst's worth of frames — or a
// whole-file read's or MaxData write's 1 MB — forever.
const (
	maxPooledFrames   = 256
	maxPooledFrameCap = 4 * frameBufSize
)

// framePool recycles wire-frame buffers in both directions. Responses
// cycle get -> ExecReadFrame -> reply channel -> TCP writer (or DoFrame
// caller) -> putFrameBuf; requests cycle get -> TCP reader (decoded in
// place) -> task -> shard serve -> putFrameBuf. The slice-of-slices
// field is the shape the bufalias analyzer tracks: everything aliased
// from frameBufs is a pooled buffer that must not outlive its window.
type framePool struct {
	mu        sync.Mutex
	frameBufs [][]byte
}

func (p *framePool) get() []byte {
	p.mu.Lock()
	if n := len(p.frameBufs); n > 0 {
		b := p.frameBufs[n-1]
		p.frameBufs[n-1] = nil
		p.frameBufs = p.frameBufs[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]byte, 0, frameBufSize)
}

func (p *framePool) putFrameBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledFrameCap {
		return
	}
	p.mu.Lock()
	if len(p.frameBufs) < maxPooledFrames {
		p.frameBufs = append(p.frameBufs, b[:0])
	}
	p.mu.Unlock()
}

// DoFrame is Do for the zero-copy read path: an OpRead that succeeds
// returns its complete serialized response frame (4-byte length prefix
// included) backed by a pooled buffer, with the file data copied once —
// cache frame to wire frame — and resp.Data nil. The caller must hand
// the frame back via ReleaseFrame when done with it. Any other op, and
// any read that fails, returns frame == nil and a response exactly as
// Do would.
func (s *Server) DoFrame(req *wire.Request) ([]byte, *wire.Response) {
	r := s.do(req, true)
	return r.frame, &r.resp
}

// ReleaseFrame returns a frame obtained from DoFrame to the pool. Safe
// on nil.
func (s *Server) ReleaseFrame(frame []byte) { s.pool.putFrameBuf(frame) }

// replyChPool recycles the one-shot buffered channels do() blocks on.
// Every task is answered exactly once (by its shard goroutine or by
// waitDrain, never both), so a received-from channel is empty and safe
// to reuse.
var replyChPool = sync.Pool{New: func() any { return make(chan reply, 1) }}

// do submits a copy of one request and blocks until its reply. wantFrame
// selects the zero-copy read path for OpRead.
func (s *Server) do(req *wire.Request, wantFrame bool) reply {
	ch := replyChPool.Get().(chan reply)
	defer replyChPool.Put(ch)
	if refused := s.submit(task{req: *req, resp: ch, wantFrame: wantFrame}); refused != nil {
		return reply{resp: *refused}
	}
	return <-ch
}

// submit is the one way into a shard queue, shared by Do and the TCP
// readers: it routes t.req and enqueues t without blocking. nil means
// queued — exactly one reply then arrives on t.resp; otherwise the typed
// refusal: invalid, closed, or again (queue full).
func (s *Server) submit(t task) *wire.Response {
	sh, refused := s.route(&t.req)
	if refused != nil {
		return refused
	}
	t.enq = time.Now()
	// The read lock pins the closed flag across the enqueue so Close
	// cannot close a shard channel between our check and our send.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return &wire.Response{ID: t.req.ID, Status: wire.StatusClosed, Msg: "server closed"}
	}
	select {
	case sh.ch <- t:
		s.mu.RUnlock()
		return nil
	default:
	}
	s.mu.RUnlock()
	sh.mu.Lock()
	sh.rejected++
	sh.mu.Unlock()
	return &wire.Response{ID: t.req.ID, Status: wire.StatusAgain,
		Msg: fmt.Sprintf("shard %d queue full", sh.id)}
}
