package server

import (
	"fmt"
	"sync"
	"time"

	"rio"
	"rio/internal/wire"
)

// reply is what a task's channel carries back: the response, plus — on
// the zero-copy read path — the fully serialized wire frame (length
// prefix included) whose data region was filled straight from cache
// frames. When frame is non-nil it is backed by a pooled buffer and the
// receiver owns it until ReleaseFrame; resp.Data is nil in that case
// (the payload lives only in the frame).
type reply struct {
	resp  *wire.Response
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
	return r.frame, r.resp
}

// ReleaseFrame returns a frame obtained from DoFrame to the pool. Safe
// on nil.
func (s *Server) ReleaseFrame(frame []byte) {
	if frame != nil {
		s.pool.putFrameBuf(frame)
	}
}

// handleReadFrame is handle() for a frame-path read: same health
// checks, but a successful read comes back as a serialized frame in a
// pooled buffer instead of a Data slice. Runs only on the shard
// goroutine.
func (sh *shard) handleReadFrame(req *wire.Request) ([]byte, *wire.Response, int) {
	if sh.isDown() {
		return nil, &wire.Response{ID: req.ID, Status: wire.StatusAgain,
			Msg: fmt.Sprintf("shard %d down (crashed; awaiting warmboot)", sh.id)}, -1
	}
	buf, resp, dataLen := ExecReadFrame(sh.sys, req, sh.pool.get())
	if crashed, why := sh.sys.Crashed(); crashed {
		sh.setDown(true)
		sh.txns = nil
		resp = &wire.Response{ID: req.ID, Status: wire.StatusAgain,
			Msg: fmt.Sprintf("shard %d crashed serving request: %s", sh.id, why)}
		dataLen = -1
	}
	if dataLen >= 0 {
		return buf, resp, dataLen
	}
	sh.pool.putFrameBuf(buf)
	return nil, resp, -1
}

// ExecReadFrame is Exec's zero-copy variant for wire.OpRead. Instead of
// allocating a Data slice and letting the transport serialize it into
// yet another buffer, it reserves the response's data region inside dst
// (wire.ReserveResponseFrame) and reads cache frames directly into that
// reservation — one copy, frame to wire. On success the returned buf
// holds the complete response frame and dataLen is the payload size
// (>= 0). On any failure dataLen is -1, resp carries the typed status,
// and buf holds no frame (the caller should re-pool it). The caller
// owns the single-goroutine discipline for sys.
func ExecReadFrame(sys *rio.System, req *wire.Request, dst []byte) (buf []byte, resp *wire.Response, dataLen int) {
	resp = &wire.Response{ID: req.ID}
	fail := func(err error) ([]byte, *wire.Response, int) {
		resp.Status, resp.Msg = statusOf(err)
		return dst, resp, -1
	}
	ino, size, isDir, err := sys.Lookup(req.Path)
	if err != nil {
		return fail(err)
	}
	if isDir {
		return fail(rio.ErrIsDir)
	}
	if req.Offset < 0 {
		resp.Status, resp.Msg = wire.StatusInvalid, "negative read offset"
		return dst, resp, -1
	}
	resp.Size = size
	want := int64(req.Len)
	if want == 0 || want > wire.MaxData {
		want = wire.MaxData
	}
	if remain := size - req.Offset; remain < want {
		want = remain
	}
	if want < 0 {
		want = 0
	}
	frame, off := wire.ReserveResponseFrame(dst, resp, int(want))
	if want > 0 {
		n, err := sys.ReadInoAt(ino, frame[off:off+int(want)], req.Offset)
		if err != nil {
			// The reservation holds partial bytes; drop the frame and
			// answer the error on the plain path.
			resp.Status, resp.Msg = statusOf(err)
			return frame[:0], resp, -1
		}
		if int64(n) != want {
			// The shard goroutine is the only writer, so the size cannot
			// have moved between Lookup and the read; a short read here
			// means the simulation refused mid-loop.
			resp.Status = wire.StatusIO
			resp.Msg = fmt.Sprintf("short read: %d of %d bytes", n, want)
			return frame[:0], resp, -1
		}
	}
	return frame, resp, int(want)
}

// replyChPool recycles the one-shot buffered channels do() blocks on.
// Every task is answered exactly once (by its shard goroutine or by
// waitDrain, never both), so a received-from channel is empty and safe
// to reuse.
var replyChPool = sync.Pool{New: func() any { return make(chan reply, 1) }}

// do submits one request and blocks until its reply. wantFrame selects
// the zero-copy read path for OpRead.
func (s *Server) do(req *wire.Request, wantFrame bool) reply {
	ch := replyChPool.Get().(chan reply)
	defer replyChPool.Put(ch)
	if refused := s.submit(task{req: req, resp: ch, wantFrame: wantFrame}); refused != nil {
		return reply{resp: refused}
	}
	return <-ch
}

// submit is the one way into a shard queue, shared by Do and the TCP
// readers: it routes t.req and enqueues t without blocking. nil means
// queued — exactly one reply then arrives on t.resp; otherwise the typed
// refusal: invalid, closed, or again (queue full).
func (s *Server) submit(t task) *wire.Response {
	sh, refused := s.route(t.req)
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
