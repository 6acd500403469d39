package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"rio"
	"rio/internal/wire"
)

// TestReadDestinationsAgree: Exec and ExecReadFrame are one read with two
// destinations. Over every file size around a block boundary, every
// offset around EOF and every length the clamp treats differently — plus
// a directory and a missing path — both return the same Status, Size, Msg
// and payload bytes (the frame's decoded with wire.DecodeResponse, its
// resp.Data left nil: the payload lives only in the frame), a failure
// hands back a frameless buffer that can be re-pooled, and Server.Do /
// DoFrame — the same exec behind the one handle — answer as the bare
// calls do, with non-reads and failed reads frameless.
func TestReadDestinationsAgree(t *testing.T) {
	sys, err := rio.New(rio.Config{Seed: 11, MemoryMB: 4, DiskMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Shards: 1, Seed: 11})
	content := func(size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*7 + size)
		}
		return b
	}
	sizes := []int{0, 1, 8191, 8192, 8193, 3 * 8192}
	for _, size := range sizes {
		w := &wire.Request{Op: wire.OpWrite, Path: fmt.Sprintf("/grid/f%d", size), Data: content(size)}
		if size == 0 {
			w.Op = wire.OpOpen
		}
		if r := Exec(sys, w); r.Status != wire.StatusOK {
			t.Fatalf("seed %s on the bare system: %+v", w.Path, r)
		}
		if r := do(t, s, w); r.Status != wire.StatusOK {
			t.Fatalf("seed %s on the server: %+v", w.Path, r)
		}
	}

	pool := make([]byte, 0, frameBufSize)
	check := func(req *wire.Request, want []byte, wantStatus wire.Status) {
		t.Helper()
		heap := Exec(sys, req)
		var buf []byte
		buf, framed, n := ExecReadFrame(sys, req, pool[:0])
		viaDo := do(t, s, req)
		frame, viaFrame := s.DoFrame(req)
		defer s.ReleaseFrame(frame)

		if heap.Status != wantStatus || !bytes.Equal(heap.Data, want) {
			t.Fatalf("%+v: Exec answered %v with %d bytes, want %v with %d", req, heap.Status, len(heap.Data), wantStatus, len(want))
		}
		for name, r := range map[string]*wire.Response{"ExecReadFrame": framed, "Do": viaDo, "DoFrame": viaFrame} {
			if r.Status != heap.Status || r.Size != heap.Size || r.Msg != heap.Msg {
				t.Fatalf("%+v: %s answered (%v, %d, %q), Exec (%v, %d, %q)", req, name,
					r.Status, r.Size, r.Msg, heap.Status, heap.Size, heap.Msg)
			}
		}
		if !bytes.Equal(viaDo.Data, heap.Data) {
			t.Fatalf("%+v: Do's payload differs from Exec's", req)
		}
		if framed.Data != nil || viaFrame.Data != nil {
			t.Fatalf("%+v: a frame-destination response also carries resp.Data", req)
		}
		if heap.Status != wire.StatusOK || req.Op != wire.OpRead {
			if n != -1 || len(buf) != 0 || cap(buf) == 0 {
				t.Fatalf("%+v: failed ExecReadFrame returned dataLen %d and a buffer of len %d cap %d, want -1 and an empty re-poolable one",
					req, n, len(buf), cap(buf))
			}
			if frame != nil {
				t.Fatalf("%+v: DoFrame returned a frame with status %v", req, viaFrame.Status)
			}
			pool = buf
			return
		}
		if frame == nil {
			t.Fatalf("%+v: successful DoFrame read returned no frame", req)
		}
		for name, f := range map[string][]byte{"ExecReadFrame": buf, "DoFrame": frame} {
			if n != len(heap.Data) || int(binary.BigEndian.Uint32(f[:4])) != len(f)-4 {
				t.Fatalf("%+v: %s: dataLen %d (Exec read %d), prefix %d for a %d-byte frame", req, name,
					n, len(heap.Data), binary.BigEndian.Uint32(f[:4]), len(f)-4)
			}
			dec, err := wire.DecodeResponse(f[4:])
			if err != nil {
				t.Fatalf("%+v: %s frame does not decode: %v", req, name, err)
			}
			if dec.ID != req.ID || dec.Status != heap.Status || dec.Size != heap.Size || !bytes.Equal(dec.Data, heap.Data) {
				t.Fatalf("%+v: %s frame decodes to (%d, %v, %d, %d bytes), Exec (%d, %v, %d, %d bytes)", req, name,
					dec.ID, dec.Status, dec.Size, len(dec.Data), req.ID, heap.Status, heap.Size, len(heap.Data))
			}
		}
		if cap(buf) <= maxPooledFrameCap {
			pool = buf
		}
	}

	id := uint64(100)
	for _, size := range sizes {
		data := content(size)
		for _, off := range []int64{0, 4096, int64(size) - 1, int64(size), int64(size) + 1, -1} {
			for _, length := range []uint32{0, 1, 8192, wire.MaxData + 1} {
				id++
				req := &wire.Request{ID: id, Op: wire.OpRead, Path: fmt.Sprintf("/grid/f%d", size), Offset: off, Len: length}
				if off < 0 {
					check(req, nil, wire.StatusInvalid)
					continue
				}
				var want []byte
				if off < int64(size) {
					want = data[off:]
					if length != 0 && length <= wire.MaxData && int64(length) < int64(len(want)) {
						want = want[:length]
					}
				}
				check(req, want, wire.StatusOK)
			}
		}
	}
	check(&wire.Request{ID: 1, Op: wire.OpRead, Path: "/grid"}, nil, wire.StatusIsDir)
	check(&wire.Request{ID: 2, Op: wire.OpRead, Path: "/grid/missing"}, nil, wire.StatusNotFound)
	check(&wire.Request{ID: 3, Op: wire.OpStat, Path: "/grid/f1"}, nil, wire.StatusOK)
}

// TestServedReadAllocs pins the zero-copy read path's allocation
// budget: a steady-state DoFrame of a block-sized file must allocate
// at most 1 object per op (the wire.Response header) across client and
// shard goroutines combined. This is the regression guard for the
// whole chain — pooled frame buffers, pooled reply channels, the
// shard's reusable serve scratch, and the split-free path resolver.
// It counts runtime.MemStats.Mallocs itself: testing.AllocsPerRun
// returns the integer mallocs/runs, which forgives an extra allocation
// on every other op; the 0.005 leaves room for a stray runtime
// allocation or ten in the sample and none for one per op. Under the
// race detector sync.Pool drops a quarter of its Puts on purpose, and
// the count would measure that.
func TestServedReadAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("sync.Pool sheds objects under -race")
			}
		}
	}
	s := newTestServer(t, Config{Shards: 1, Seed: 13})
	if r := s.Do(&wire.Request{ID: 1, Op: wire.OpWrite, Path: "/a/blk", Data: bytes.Repeat([]byte{7}, 8192)}); r.Status != wire.StatusOK {
		t.Fatalf("write: %+v", r)
	}
	req := &wire.Request{ID: 2, Op: wire.OpRead, Path: "/a/blk"}
	read := func(n int) {
		for i := 0; i < n; i++ {
			frame, resp := s.DoFrame(req)
			if resp.Status != wire.StatusOK || frame == nil {
				t.Fatalf("frame read: %+v", resp)
			}
			s.ReleaseFrame(frame)
		}
	}
	read(64) // warm the pools and the dcache
	runtime.GC()
	read(16) // the GC emptied the sync.Pools; their refill is not the ops' cost
	const ops = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read(ops)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / ops
	t.Logf("%.4f objects per served frame read", per)
	if per > 1.005 {
		t.Fatalf("served frame read allocates %.4f objects/op, budget 1", per)
	}
}

// TestWriterEncodeReuse is the regression test for the discarded-growth
// bug in the old TCP writer: it encoded with AppendResponse(buf[:0], r)
// and threw the grown copy away, so every response beyond the seed
// capacity allocated afresh forever. encodeBatch returns its growth to
// the caller; once warm, encoding a batch of block-sized responses must
// not allocate at all, and the same backing array must be reused.
func TestWriterEncodeReuse(t *testing.T) {
	batch := make([]reply, 8)
	for i := range batch {
		batch[i] = reply{resp: wire.Response{ID: uint64(i), Status: wire.StatusOK,
			Data: bytes.Repeat([]byte{byte(i)}, 8192)}}
	}
	var encBuf []byte
	var spans []int
	var iov net.Buffers
	encBuf, spans = encodeBatch(encBuf, spans, batch) // growth run
	warm := &encBuf[:1][0]
	if allocs := testing.AllocsPerRun(100, func() {
		encBuf, spans = encodeBatch(encBuf, spans, batch)
		iov = buildIov(iov, encBuf, spans, batch)
	}); allocs != 0 {
		t.Fatalf("warm encode of 8x8KB batch allocates %.1f objects, want 0", allocs)
	}
	if &encBuf[:1][0] != warm {
		t.Fatal("encode buffer was reallocated on a warm run")
	}
}

// TestBuildIovCoalesces checks the vector layout: runs of encoded
// responses collapse to one entry, zero-copy frames interleave in batch
// order, and the concatenation of all entries is exactly the frames the
// client must see, in order.
func TestBuildIovCoalesces(t *testing.T) {
	mk := func(id uint64, data []byte) wire.Response {
		return wire.Response{ID: id, Status: wire.StatusOK, Data: data}
	}
	frameFor := func(r wire.Response) []byte { return wire.AppendResponseFrame(nil, &r) }

	// enc, enc, FRAME, enc, FRAME, FRAME, enc
	batch := []reply{
		{resp: mk(0, []byte("aa"))},
		{resp: mk(1, nil)},
		{frame: frameFor(mk(2, []byte("frame-2"))), resp: wire.Response{ID: 2, Status: wire.StatusOK}},
		{resp: mk(3, []byte("ccc"))},
		{frame: frameFor(mk(4, nil)), resp: wire.Response{ID: 4, Status: wire.StatusOK}},
		{frame: frameFor(mk(5, []byte("frame-5"))), resp: wire.Response{ID: 5, Status: wire.StatusOK}},
		{resp: mk(6, []byte("d"))},
	}
	encBuf, spans := encodeBatch(nil, nil, batch)
	iov := buildIov(nil, encBuf, spans, batch)
	if len(iov) != 6 { // run(0,1), frame2, run(3), frame4, frame5, run(6)
		t.Fatalf("iov has %d entries, want 6", len(iov))
	}

	var stream []byte
	for _, b := range iov {
		stream = append(stream, b...)
	}
	for i := uint64(0); i < 7; i++ {
		if len(stream) < 4 {
			t.Fatalf("stream truncated before response %d", i)
		}
		n := binary.BigEndian.Uint32(stream[:4])
		dec, err := wire.DecodeResponse(stream[4 : 4+n])
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if dec.ID != i {
			t.Fatalf("response %d decoded with ID %d: ordering broken", i, dec.ID)
		}
		stream = stream[4+n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes after batch", len(stream))
	}
}

// TestWritevCoalescing drives a pipelined burst over real TCP and
// checks the server-side writev accounting: with many requests in
// flight on one connection, responses must leave in multi-frame
// vectored writes (avg frames/call > 1), and every byte must still
// round-trip correctly.
func TestWritevCoalescing(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Seed: 17})
	addr := listenAndServe(t, s)

	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/wv/f%d", i)
		if r := s.Do(&wire.Request{ID: 1, Op: wire.OpWrite, Path: p,
			Data: bytes.Repeat([]byte{byte(i)}, 2048)}); r.Status != wire.StatusOK {
			t.Fatalf("seed write %d: %+v", i, r)
		}
	}

	mux, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	const rounds = 50
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			p := fmt.Sprintf("/wv/f%d", w)
			wantByte := byte(w)
			for r := 0; r < rounds; r++ {
				resp, err := mux.Do(&wire.Request{ID: uint64(w*rounds + r), Op: wire.OpRead, Path: p})
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if resp.Status != wire.StatusOK || len(resp.Data) != 2048 || resp.Data[0] != wantByte {
					errs <- fmt.Errorf("worker %d round %d: %+v", w, r, resp)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	m := s.Metrics()
	if m.Writev == nil || m.Writev.Calls == 0 {
		t.Fatal("no writev accounting after TCP traffic")
	}
	if m.Writev.Frames != 8*rounds {
		t.Fatalf("writev carried %d frames, want %d", m.Writev.Frames, 8*rounds)
	}
	if m.Writev.AvgFrames <= 1.0 {
		t.Fatalf("avg %.2f frames per writev under 8-way pipelining, want > 1", m.Writev.AvgFrames)
	}
}
