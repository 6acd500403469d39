package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rio/internal/wire"
)

// rawClient is a pipelining test client on a bare connection: it sends
// any number of frames in one Write, reads replies one at a time, and
// runs no goroutine of its own, so goroutine counts taken around it are
// the server's.
type rawClient struct {
	t   *testing.T
	c   net.Conn
	br  *bufio.Reader
	enc []byte
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawClient{t: t, c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// send writes every request's frame in a single Write.
func (r *rawClient) send(reqs ...*wire.Request) {
	r.t.Helper()
	r.enc = r.enc[:0]
	for _, req := range reqs {
		r.enc = wire.AppendRequestFrame(r.enc, req)
	}
	if _, err := r.c.Write(r.enc); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawClient) recv() *wire.Response {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(20 * time.Second))
	payload, err := wire.ReadFrame(r.br, wire.MaxFrame)
	if err != nil {
		r.t.Fatalf("reading a reply: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// pattern is the 8 KB payload only (conn, seq) writes.
func pattern(conn, seq int) []byte {
	b := make([]byte, 8192)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint32(b[i:], uint32(conn)<<24|uint32(seq))
		binary.LittleEndian.PutUint32(b[i+4:], uint32(i))
	}
	return b
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// pooled reports what the frame pool currently pins: how many buffers,
// their total capacity, and the largest one.
func pooled(s *Server) (frames, bytes, largest int) {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	for _, b := range s.pool.frameBufs {
		bytes += cap(b)
		largest = max(largest, cap(b))
	}
	return len(s.pool.frameBufs), bytes, largest
}

// TestFramePoolBytesBounded: the pool is bounded in bytes, not just in
// entries. A burst of MaxData writes and whole-file reads over TCP moves
// megabyte frames through both directions of the pool; none of them may
// stay parked there (256 entries of 1 MB each was the old worst case).
func TestFramePoolBytesBounded(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Seed: 3, MemoryMB: 16, DiskMB: 32})
	cl := dialRaw(t, listenAndServe(t, s))
	big := bytes.Repeat([]byte{0xC3}, wire.MaxData)
	const files = 4
	for i := 0; i < files; i++ {
		cl.send(&wire.Request{ID: uint64(i), Op: wire.OpWrite, Shard: -1, Path: fmt.Sprintf("/big/f%d", i), Data: big})
	}
	for i := 0; i < files; i++ {
		if r := cl.recv(); r.Status != wire.StatusOK || r.Size != wire.MaxData {
			t.Fatalf("MaxData write: %+v", r)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < files; i++ {
			cl.send(&wire.Request{ID: uint64(i), Op: wire.OpRead, Shard: -1, Path: fmt.Sprintf("/big/f%d", i)})
		}
		for i := 0; i < files; i++ {
			if r := cl.recv(); r.Status != wire.StatusOK || !bytes.Equal(r.Data, big) {
				t.Fatalf("whole-file read: status %v, %d bytes", r.Status, len(r.Data))
			}
		}
	}
	// Small traffic afterwards still pools.
	cl.send(&wire.Request{ID: 99, Op: wire.OpWrite, Shard: -1, Path: "/small", Data: pattern(0, 0)})
	cl.recv()
	n, held, largest := pooled(s)
	if held > maxPooledFrames*maxPooledFrameCap {
		t.Fatalf("pool pins %d bytes, bound is %d", held, maxPooledFrames*maxPooledFrameCap)
	}
	if largest > maxPooledFrameCap {
		t.Fatalf("pool kept a %d-byte buffer, per-entry bound is %d", largest, maxPooledFrameCap)
	}
	if n == 0 {
		t.Fatal("pool is empty after block-sized traffic: nothing is being recycled")
	}
}

// TestTxnStagedWriteSurvivesFrameRecycling is the regression test for
// the aliasing window: a staged write's payload sits in its transaction
// until commit, long after the batch that carried it ended and its
// request frame went back to the pool. One connection stages N distinct
// 8 KB writes, then pushes enough plain overwrites through to recycle
// every pooled frame several times, then commits: the committed bytes
// must be the staged ones, not whatever last passed through the frames.
func TestTxnStagedWriteSurvivesFrameRecycling(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Seed: 5, MemoryMB: 8, DiskMB: 16})
	cl := dialRaw(t, listenAndServe(t, s))

	const staged = 8
	paths := make([]string, staged)
	for i := range paths {
		paths[i] = pathOnShard(t, s, 0, fmt.Sprintf("txn-%d", i))
	}
	cl.send(&wire.Request{ID: 1, Op: wire.OpTxnBegin, Shard: -1, Path: paths[0]})
	b := cl.recv()
	if b.Status != wire.StatusOK || b.Size == 0 {
		t.Fatalf("txn-begin: %+v", b)
	}
	txn := uint64(b.Size)

	var reqs []*wire.Request
	for i, p := range paths {
		reqs = append(reqs, &wire.Request{ID: uint64(100 + i), Op: wire.OpWrite, Shard: -1, Txn: txn, Path: p, Data: pattern(1, i)})
	}
	cl.send(reqs...)
	for range paths {
		if r := cl.recv(); r.Status != wire.StatusOK {
			t.Fatalf("staged write: %+v", r)
		}
	}

	// Recycle: plain overwrites of other files, a window at a time.
	const overwrites = 4 * connInflight
	scratch := pathOnShard(t, s, 1, "scratch")
	for sent := 0; sent < overwrites; sent += 16 {
		reqs = reqs[:0]
		for i := 0; i < 16; i++ {
			reqs = append(reqs, &wire.Request{ID: uint64(1000 + sent + i), Op: wire.OpWrite, Shard: -1, Path: scratch, Data: pattern(2, sent+i)})
		}
		cl.send(reqs...)
		for i := 0; i < 16; i++ {
			if r := cl.recv(); r.Status != wire.StatusOK {
				t.Fatalf("overwrite: %+v", r)
			}
		}
	}

	cl.send(&wire.Request{ID: 2, Op: wire.OpTxnCommit, Shard: -1, Txn: txn})
	if r := cl.recv(); r.Status != wire.StatusOK || r.Size != staged {
		t.Fatalf("commit: %+v", r)
	}
	for i, p := range paths {
		cl.send(&wire.Request{ID: uint64(200 + i), Op: wire.OpRead, Shard: -1, Path: p})
		r := cl.recv()
		if r.Status != wire.StatusOK {
			t.Fatalf("read %s: %+v", p, r)
		}
		if !bytes.Equal(r.Data, pattern(1, i)) {
			t.Fatalf("%s: committed bytes are not the staged ones (first word %#x, want %#x): the staged op aliased a recycled request frame",
				p, binary.LittleEndian.Uint32(r.Data), binary.LittleEndian.Uint32(pattern(1, i)))
		}
	}
}

// TestTCPIngressOwnershipRace drives the frame hand-off — reader fills a
// pooled frame, the shard copies out of it and releases it, the reader
// of any connection refills it — from several connections at once, each
// with 16 requests in flight: 8 KB writes stamped with (conn, seq),
// every one followed by a read of the same file checked byte for byte.
// A frame released before its payload was copied shows up as a wrong
// byte here and as a data race under -race (scripts/check.sh).
func TestTCPIngressOwnershipRace(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, Seed: 9, MemoryMB: 8, DiskMB: 16})
	addr := listenAndServe(t, s)
	const (
		conns  = 4
		window = 16
		pairs  = 150 // write+read pairs per connection
		files  = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- func() error {
				// ID 2k is the write of pattern(c, k) to file k%files, ID 2k+1
				// the read of it: same path, same shard, so FIFO makes the
				// read see that write.
				sendErr := make(chan error, 1)
				slots := make(chan struct{}, window)
				go func() {
					var enc []byte
					for k := 0; k < pairs; k++ {
						path := fmt.Sprintf("/own/c%d-f%d", c, k%files)
						slots <- struct{}{}
						slots <- struct{}{}
						enc = wire.AppendRequestFrame(enc[:0], &wire.Request{ID: uint64(2 * k), Op: wire.OpWrite, Shard: -1, Path: path, Data: pattern(c, k)})
						enc = wire.AppendRequestFrame(enc, &wire.Request{ID: uint64(2*k + 1), Op: wire.OpRead, Shard: -1, Path: path})
						if _, err := conn.Write(enc); err != nil {
							sendErr <- err
							return
						}
					}
					sendErr <- nil
				}()
				br := bufio.NewReader(conn)
				conn.SetReadDeadline(time.Now().Add(60 * time.Second))
				for got := 0; got < 2*pairs; got++ {
					payload, err := wire.ReadFrame(br, wire.MaxFrame)
					if err != nil {
						return err
					}
					resp, err := wire.DecodeResponse(payload)
					if err != nil {
						return err
					}
					if resp.Status != wire.StatusOK {
						return fmt.Errorf("conn %d id %d: %+v", c, resp.ID, resp)
					}
					if resp.ID%2 == 1 && !bytes.Equal(resp.Data, pattern(c, int(resp.ID/2))) {
						return fmt.Errorf("conn %d: read %d returned bytes that are not write %d's", c, resp.ID, resp.ID-1)
					}
					<-slots
				}
				return <-sendErr
			}()
		}(c)
	}
	wg.Wait()
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPPipelineFIFOPerShard pins the ordering guarantee the direct
// enqueue gives: requests from one connection to one shard execute in
// arrival order. write v1, write v2, read — sent back to back in one
// segment, never waiting — must always read v2.
func TestTCPPipelineFIFOPerShard(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, Seed: 11})
	cl := dialRaw(t, listenAndServe(t, s))
	for round := 0; round < 1000; round++ {
		path := fmt.Sprintf("/fifo/k%d", round%7)
		v1 := []byte(fmt.Sprintf("round %d first", round))
		v2 := []byte(fmt.Sprintf("round %d SECOND", round))
		cl.send(
			&wire.Request{ID: 1, Op: wire.OpWrite, Shard: -1, Path: path, Data: v1},
			&wire.Request{ID: 2, Op: wire.OpWrite, Shard: -1, Path: path, Data: v2},
			&wire.Request{ID: 3, Op: wire.OpRead, Shard: -1, Path: path, Len: uint32(len(v2))},
		)
		for i := 1; i <= 3; i++ {
			r := cl.recv()
			if r.Status != wire.StatusOK || r.ID != uint64(i) {
				t.Fatalf("round %d: reply %d is %+v (one shard answers in order)", round, i, r)
			}
			if i == 3 && !bytes.Equal(r.Data, v2) {
				t.Fatalf("round %d: read %q after writes %q then %q", round, r.Data, v1, v2)
			}
		}
	}
}

// gatedServer returns a server whose shard 0 is stalled until the
// returned release is called (the cleanup calls it if the test did not).
func gatedServer(t *testing.T, cfg Config) (*Server, func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	cfg.testGate = func(shard int) {
		if shard == 0 {
			<-gate
		}
	}
	s := newTestServer(t, cfg)
	t.Cleanup(release) // runs before newTestServer's Close
	return s, release
}

// TestTCPTwoGoroutinesPerConn: a connection costs the server exactly two
// goroutines — reader and writer — whether it has one request in flight
// or connInflight of them. (The old front end added one per request.)
func TestTCPTwoGoroutinesPerConn(t *testing.T) {
	s, release := gatedServer(t, Config{Shards: 2, Seed: 7})
	addr := listenAndServe(t, s)
	slow, fast := pathOnShard(t, s, 0, "slow"), pathOnShard(t, s, 1, "fast")

	waitStable := func() int {
		n := runtime.NumGoroutine()
		for same := 0; same < 20; {
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				same++
			} else {
				n, same = m, 0
			}
		}
		return n
	}
	before := waitStable()
	cl := dialRaw(t, addr)
	cl.send(&wire.Request{ID: 1, Op: wire.OpOpen, Shard: -1, Path: fast})
	if r := cl.recv(); r.Status != wire.StatusOK {
		t.Fatalf("warm-up request: %+v", r)
	}
	if depth1 := waitStable(); depth1 != before+2 {
		t.Fatalf("one connection at depth 1 runs %d server goroutines, want 2", depth1-before)
	}
	reqs := make([]*wire.Request, connInflight)
	for i := range reqs {
		reqs[i] = &wire.Request{ID: uint64(10 + i), Op: wire.OpWrite, Shard: -1, Path: slow, Data: pattern(0, i)}
	}
	cl.send(reqs...)
	waitFor(t, "64 requests queued on the gated shard", func() bool { return len(s.shards[0].ch) == connInflight })
	if deep := waitStable(); deep != before+2 {
		t.Fatalf("one connection with %d requests in flight runs %d server goroutines, want 2", connInflight, deep-before)
	}
	release()
	for range reqs {
		if r := cl.recv(); r.Status != wire.StatusOK {
			t.Fatalf("released request: %+v", r)
		}
	}
}

// TestTCPConnInflightBound: at most connInflight requests of one
// connection are inside the server; past that the reader stops pulling
// frames and the peer sees TCP backpressure, not an error. The token is
// returned when the writer dequeues a reply, so the reply channel —
// capacity connInflight — always has room: after the gate opens every
// request is answered.
func TestTCPConnInflightBound(t *testing.T) {
	s, release := gatedServer(t, Config{Shards: 2, Seed: 7, QueueDepth: 4 * connInflight})
	cl := dialRaw(t, listenAndServe(t, s))
	slow := pathOnShard(t, s, 0, "slow")
	const total = 3 * connInflight
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		var enc []byte
		for i := 0; i < total; i++ {
			enc = wire.AppendRequestFrame(enc[:0], &wire.Request{ID: uint64(i), Op: wire.OpStat, Shard: -1, Path: slow})
			if _, err := cl.c.Write(enc); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	<-sent // 3 x 64 small frames fit the socket buffers: all are on the wire
	waitFor(t, "the window to fill", func() bool { return len(s.shards[0].ch) == connInflight })
	time.Sleep(50 * time.Millisecond) // anything past the bound would land now
	if n := len(s.shards[0].ch); n != connInflight {
		t.Fatalf("%d requests of one connection queued, bound is %d", n, connInflight)
	}
	release()
	for i := 0; i < total; i++ {
		if r := cl.recv(); r.ID != uint64(i) {
			t.Fatalf("reply %d has ID %d", i, r.ID)
		}
	}
}

// TestCloseDrainTimeoutAnswersTCPQueued: when a bounded drain expires,
// Close answers everything still queued with StatusTimeout — for a TCP
// request that reply lands on the connection's reply channel, which the
// in-flight tokens guarantee has room, so Close never blocks on a peer.
func TestCloseDrainTimeoutAnswersTCPQueued(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s, err := New(Config{Shards: 1, MemoryMB: 4, DiskMB: 8, DrainTimeout: 100 * time.Millisecond,
		testGate: func(int) { <-gate }})
	if err != nil {
		t.Fatal(err)
	}
	cl := dialRaw(t, listenAndServe(t, s))
	reqs := make([]*wire.Request, connInflight)
	for i := range reqs {
		reqs[i] = &wire.Request{ID: uint64(i + 1), Op: wire.OpWrite, Shard: -1, Path: "/wedged", Data: pattern(0, i)}
	}
	cl.send(reqs...)
	waitFor(t, "the requests to queue", func() bool { return len(s.shards[0].ch) == connInflight })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for range reqs {
		if r := cl.recv(); r.Status != wire.StatusTimeout {
			t.Fatalf("queued request answered %v (%s), want StatusTimeout", r.Status, r.Msg)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung despite DrainTimeout")
	}
	if n, _, _ := pooled(s); n < connInflight {
		t.Fatalf("drain released %d request frames to the pool, want %d", n, connInflight)
	}
}

// TestTCPNonReadingPeerBounded: a client that pipelines ten windows of
// 8 KB writes and never reads a reply costs the server a bounded amount
// of memory (the frames of at most one window are alive at a time, not
// one per request); and once its unread replies fill the socket — reads
// are what make replies big — the write deadline closes the connection,
// both of its goroutines exit, and every frame it held is released.
func TestTCPNonReadingPeerBounded(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Seed: 13, MemoryMB: 8, DiskMB: 16,
		WriteTimeout: 200 * time.Millisecond})
	addr := listenAndServe(t, s)
	if r := s.Do(&wire.Request{ID: 1, Op: wire.OpWrite, Path: "/nr/blob", Data: bytes.Repeat([]byte{7}, 512<<10)}); r.Status != wire.StatusOK {
		t.Fatalf("seed write: %+v", r)
	}
	if r := s.Do(&wire.Request{ID: 1, Op: wire.OpWrite, Path: "/nr/f", Data: pattern(0, 0)}); r.Status != wire.StatusOK {
		t.Fatalf("seed write: %+v", r)
	}
	goroutines := runtime.NumGoroutine()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const writes = 10 * connInflight
	ops0 := s.Metrics().Ops
	var enc []byte
	for i := 0; i < writes; i++ {
		enc = wire.AppendRequestFrame(enc[:0], &wire.Request{ID: uint64(i), Op: wire.OpWrite, Shard: -1, Path: "/nr/f", Data: pattern(3, i)})
		if _, err := conn.Write(enc); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the writes to be served", func() bool { return s.Metrics().Ops == ops0+writes })
	// 640 frames of 8 KB are 5.3 MB if each request holds one; a window of
	// them plus the read buffer and the whole pool is under 3 MB.
	const bound = 3 << 20
	if grown := int64(heap()) - int64(before); grown > bound {
		t.Fatalf("heap grew %d bytes across %d unread 8 KB writes, bound %d", grown, writes, bound)
	}

	// Now make the replies big and keep not reading: 64 x 512 KB cannot
	// fit any socket buffer, the writer blocks, the deadline fires.
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < connInflight; i++ {
		enc = wire.AppendRequestFrame(enc[:0], &wire.Request{ID: uint64(i), Op: wire.OpRead, Shard: -1, Path: "/nr/blob"})
		if _, err := conn.Write(enc); err != nil {
			break // the server already hung up
		}
	}
	waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
	if _, held, _ := pooled(s); held > maxPooledFrames*maxPooledFrameCap {
		t.Fatalf("pool pins %d bytes after the peer was dropped", held)
	}
	if grown := int64(heap()) - int64(before); grown > bound {
		t.Fatalf("heap is %d bytes above baseline after the peer was dropped, bound %d", grown, bound)
	}
}

// TestTCPBadFrameMidBurst: a frame that does not decode, in the middle of
// a burst the server reads in one syscall, ends the stream — but every
// frame before it is answered first, then the typed ID-0 refusal, then
// the close; frames after it are never executed.
func TestTCPBadFrameMidBurst(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, Seed: 7})
	cl := dialRaw(t, listenAndServe(t, s))
	var burst []byte
	const good = 5
	for i := 1; i <= good; i++ {
		burst = wire.AppendRequestFrame(burst, &wire.Request{ID: uint64(i), Op: wire.OpWrite, Shard: -1,
			Path: fmt.Sprintf("/burst/f%d", i), Data: pattern(0, i)})
	}
	burst = append(burst, 0, 0, 0, 2, 0xde, 0xad)
	burst = wire.AppendRequestFrame(burst, &wire.Request{ID: 99, Op: wire.OpWrite, Shard: -1, Path: "/burst/after", Data: []byte("never")})
	if _, err := cl.c.Write(burst); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < good; i++ {
		r := cl.recv()
		if r.Status != wire.StatusOK || r.ID < 1 || r.ID > good || seen[r.ID] {
			t.Fatalf("reply %d: %+v, want an OK for one of the %d frames before the bad one", i, r, good)
		}
		seen[r.ID] = true
	}
	if r := cl.recv(); r.Status != wire.StatusInvalid || r.ID != 0 {
		t.Fatalf("after the good frames: %+v, want the ID-0 StatusInvalid refusal", r)
	}
	cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(cl.br, wire.MaxFrame); err != io.EOF {
		t.Fatalf("after the refusal: %v, want EOF", err)
	}
	if r := s.Do(&wire.Request{ID: 1, Op: wire.OpStat, Path: "/burst/after"}); r.Status != wire.StatusNotFound {
		t.Fatalf("the frame after the bad one was executed: %+v", r)
	}
}

// oneByteConn delivers its stream one byte per Read, so every frame is
// split at every boundary the reader could care about.
type oneByteConn struct{ net.Conn }

func (c oneByteConn) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return c.Conn.Read(p)
}

// serveWrapped accepts one loopback connection and serves it through
// wrap, so a test can stand between serveConn and its socket. served is
// closed when serveConn returns.
func serveWrapped(t *testing.T, s *Server, wrap func(net.Conn) net.Conn) (cl *rawClient, served <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		if conn, err := ln.Accept(); err == nil {
			s.serveConn(wrap(conn))
		}
	}()
	return dialRaw(t, ln.Addr().String()), done
}

// TestTCPOneBytePerRead: the same pipelined stream served over a
// connection that yields one byte per Read decodes to the same requests
// and the same answers as over a normal connection.
func TestTCPOneBytePerRead(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Seed: 7})
	cl, served := serveWrapped(t, s, func(c net.Conn) net.Conn { return oneByteConn{c} })
	var reqs []*wire.Request
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("/drip/f%d", i%5)
		reqs = append(reqs,
			&wire.Request{ID: uint64(2 * i), Op: wire.OpWrite, Shard: -1, Path: path, Data: pattern(4, i)[:100+37*i]},
			&wire.Request{ID: uint64(2*i + 1), Op: wire.OpRead, Shard: -1, Path: path, Len: uint32(100 + 37*i)})
	}
	cl.send(reqs...)
	for range reqs {
		r := cl.recv()
		if r.Status != wire.StatusOK {
			t.Fatalf("reply %d: %+v", r.ID, r)
		}
		if i := int(r.ID / 2); r.ID%2 == 1 && !bytes.Equal(r.Data, pattern(4, i)[:100+37*i]) {
			t.Fatalf("read %d returned bytes that are not write %d's", r.ID, r.ID-1)
		}
	}
	cl.c.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn did not return after the peer hung up")
	}
}

// countingConn counts the Read calls that reach the socket.
type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestTCPOneReadPerBurst: the reader pulls a pipelined burst off the
// socket in one read, not two per frame. A client keeping a window of
// eight 8 KB writes in flight, eight frames to a segment, costs the
// server well under one read syscall per request (two at the parent).
func TestTCPOneReadPerBurst(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Seed: 7, MemoryMB: 8, DiskMB: 16})
	var reads atomic.Int64
	cl, _ := serveWrapped(t, s, func(c net.Conn) net.Conn { return countingConn{c, &reads} })
	const window, rounds = 8, 100
	reqs := make([]*wire.Request, window)
	for round := 0; round < rounds; round++ {
		for i := range reqs {
			reqs[i] = &wire.Request{ID: uint64(i), Op: wire.OpWrite, Shard: -1, Path: fmt.Sprintf("/burst/f%d", i), Data: pattern(6, round)}
		}
		cl.send(reqs...)
		for range reqs {
			if r := cl.recv(); r.Status != wire.StatusOK {
				t.Fatalf("write: %+v", r)
			}
		}
	}
	perReq := float64(reads.Load()) / (window * rounds)
	t.Logf("%.2f socket reads per request at window %d", perReq, window)
	if perReq >= 1 {
		t.Fatalf("%.2f socket reads per request at window %d, want < 1", perReq, window)
	}
}

// TestServeConnIdleTimeoutMidFrame: the idle deadline is armed when the
// reader is about to block, wherever in the stream that is — a peer that
// stalls after half a frame is dropped like one that stalls between
// frames (TestServeConnIdleTimeout).
func TestServeConnIdleTimeoutMidFrame(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, IdleTimeout: 100 * time.Millisecond})
	cl := dialRaw(t, listenAndServe(t, s))
	cl.send(&wire.Request{ID: 1, Op: wire.OpOpen, Shard: -1, Path: "/alive"})
	if r := cl.recv(); r.Status != wire.StatusOK {
		t.Fatalf("healthy request: %+v", r)
	}
	frame := wire.AppendRequestFrame(nil, &wire.Request{ID: 2, Op: wire.OpWrite, Shard: -1, Path: "/half", Data: pattern(0, 1)})
	if _, err := cl.c.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cl.c.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := cl.br.ReadByte(); err != io.EOF {
		t.Fatalf("stalled mid-frame: read returned %v, want the server's hang-up (EOF)", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("server kept a connection stalled mid-frame open %v (idle timeout 100ms)", waited)
	}
	if r := s.Do(&wire.Request{ID: 3, Op: wire.OpStat, Path: "/half"}); r.Status != wire.StatusNotFound {
		t.Fatalf("half a frame was executed: %+v", r)
	}
}

// TestServeConnTricklingPeerCut: the idle bound is per frame, not per
// socket read. A peer that sends a valid 8 KB write one byte per
// IdleTimeout/2 never goes silent for a whole IdleTimeout, yet is cut
// about one IdleTimeout after the frame's first byte — and with it go
// the pooled frame buffer it was filling and both of the connection's
// goroutines.
func TestServeConnTricklingPeerCut(t *testing.T) {
	const idle = 200 * time.Millisecond
	s := newTestServer(t, Config{Shards: 1, IdleTimeout: idle})
	addr := listenAndServe(t, s)
	goroutines := runtime.NumGoroutine()
	// The connection uses two buffers: the healthy request's, which the
	// shard releases, and the one its reader then holds for the next frame
	// — the trickled one. They are put in the pool beforehand because an
	// empty pool makes that count a race: a reader that asks for its second
	// buffer after the shard has released the first gets the same one back,
	// and one buffer is all there ever is (1 run in 600 here).
	for i := 0; i < 2; i++ {
		s.pool.putFrameBuf(make([]byte, 0, frameBufSize))
	}
	cl := dialRaw(t, addr)
	cl.send(&wire.Request{ID: 1, Op: wire.OpOpen, Shard: -1, Path: "/alive"})
	if r := cl.recv(); r.Status != wire.StatusOK {
		t.Fatalf("healthy request: %+v", r)
	}
	waitFor(t, "the first frame's release", func() bool { n, _, _ := pooled(s); return n == 1 })

	frame := wire.AppendRequestFrame(nil, &wire.Request{ID: 2, Op: wire.OpWrite, Shard: -1, Path: "/trickle", Data: pattern(0, 1)})
	hungUp := make(chan time.Time, 1)
	go func() {
		cl.c.SetReadDeadline(time.Now().Add(20 * time.Second))
		// A byte trickled after the server closed is answered with RST,
		// and the read then sees the reset instead of EOF: either is the
		// server's hang-up.
		if _, err := cl.br.ReadByte(); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
			t.Errorf("trickling peer: read returned %v, want the server's hang-up (EOF or a reset)", err)
		}
		hungUp <- time.Now()
	}()
	start := time.Now()
	var cut time.Time
	sent := 0
trickle:
	for ; sent < len(frame); sent++ {
		if _, err := cl.c.Write(frame[sent : sent+1]); err != nil {
			break // the server hung up and the reset came back
		}
		select {
		case cut = <-hungUp:
			break trickle
		case <-time.After(idle / 2):
		}
		if time.Since(start) > 10*idle {
			// Re-arming per socket read (the parent) holds on for the whole
			// frame: 8 KB at a byte per 100 ms is 14 minutes.
			t.Fatalf("server still holds a connection that trickled %d bytes over %v (idle timeout %v)", sent, time.Since(start), idle)
		}
	}
	if cut.IsZero() {
		select {
		case cut = <-hungUp:
		case <-time.After(5 * time.Second):
			t.Fatalf("server never hung up on a connection whose writes started failing after %d bytes", sent)
		}
	}
	if held := cut.Sub(start); held < idle/2 || held > 5*idle {
		t.Fatalf("trickling peer was cut after %v, want about one idle timeout (%v)", held, idle)
	}
	waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
	if n, _, _ := pooled(s); n != 2 {
		t.Fatalf("pool holds %d frame buffers after the cut, want both the connection took: the half-filled frame was not released", n)
	}
	if r := s.Do(&wire.Request{ID: 3, Op: wire.OpStat, Path: "/trickle"}); r.Status != wire.StatusNotFound {
		t.Fatalf("a trickled partial frame was executed: %+v", r)
	}
}

// TestTCPWrite8KServerAllocBudget pins what an 8 KB write costs the
// process in allocations when the client allocates nothing: the frame
// lands in a pooled buffer and is decoded in place, so no request-sized
// object is allocated. Measured 181 B and 3.2 objects per op — the
// decoded Request, its path string, the Response — against 17 897 B and
// 7.3 at the parent commit (the frame, its copy in Request.Data, the
// header read, a goroutine per request). The budget is 1 KB and 4.
func TestTCPWrite8KServerAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000 writes")
	}
	s := newTestServer(t, Config{Shards: 2, Seed: 17, MemoryMB: 8, DiskMB: 16})
	conn, err := net.Dial("tcp", listenAndServe(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The client reuses everything: four pre-encoded frames (two files per
	// shard), one reply buffer, and it reads only each reply's status byte.
	const window = 8
	var frames [4][]byte
	for i := range frames {
		frames[i] = wire.AppendRequestFrame(nil, &wire.Request{ID: uint64(i), Op: wire.OpWrite, Shard: -1,
			Path: pathOnShard(t, s, i%2, fmt.Sprintf("budget%d", i)), Data: pattern(5, i)})
	}
	br := bufio.NewReaderSize(conn, 4096)
	reply := make([]byte, 0, 256)
	run := func(n int) {
		conn.SetDeadline(time.Now().Add(60 * time.Second))
		sent, got := 0, 0
		for got < n {
			for sent < n && sent-got < window {
				if _, err := conn.Write(frames[sent%len(frames)]); err != nil {
					t.Fatal(err)
				}
				sent++
			}
			payload, err := wire.ReadFrameInto(br, wire.MaxFrame, reply)
			if err != nil {
				t.Fatal(err)
			}
			if st := wire.Status(payload[8]); st != wire.StatusOK {
				t.Fatalf("write answered %v", st)
			}
			got++
		}
	}
	run(500) // create the files, warm the pools, the dcache and the writer's buffers

	const ops = 10000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run(ops)
	runtime.ReadMemStats(&m1)
	bytesPerOp := float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	allocsPerOp := float64(m1.Mallocs-m0.Mallocs) / ops
	t.Logf("8 KB write over TCP: %.0f B/op, %.2f allocs/op process-wide", bytesPerOp, allocsPerOp)
	if bytesPerOp >= 1024 {
		t.Errorf("%.0f bytes allocated per 8 KB write, budget is under 1 KB: a request-sized object is being allocated", bytesPerOp)
	}
	if allocsPerOp > 4 {
		t.Errorf("%.2f allocations per 8 KB write, budget is 4", allocsPerOp)
	}
}
