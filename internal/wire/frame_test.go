package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// TestDecodeRequestAliasedMatchesCopy: the in-place decoder is the
// copying decoder with one difference — Data is a view of the frame. Same
// fields, and for every truncated or corrupted frame the same error.
func TestDecodeRequestAliasedMatchesCopy(t *testing.T) {
	for _, want := range sampleRequests() {
		buf := AppendRequest(nil, want)
		copied, err := DecodeRequest(buf)
		if err != nil {
			t.Fatal(err)
		}
		aliased, err := DecodeRequestAliased(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*copied, aliased) {
			t.Fatalf("aliased decode %+v, copying decode %+v", aliased, copied)
		}
		if len(want.Data) > 0 {
			// Overwrite the frame, as the pool's next user would: the
			// aliased payload changes with it, the copied one does not.
			for i := range buf {
				buf[i] ^= 0xff
			}
			if bytes.Equal(aliased.Data, want.Data) {
				t.Fatal("aliased Data did not follow the frame: it was copied")
			}
			if !bytes.Equal(copied.Data, want.Data) {
				t.Fatal("DecodeRequest's Data follows the frame: its copying contract is broken")
			}
		}
		for cut := 0; cut < len(buf); cut++ {
			_, e1 := DecodeRequest(buf[:cut])
			_, e2 := DecodeRequestAliased(buf[:cut])
			if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
				t.Fatalf("cut %d: copying decoder says %v, aliasing decoder %v", cut, e1, e2)
			}
		}
	}
}

// frames returns the stream encoding of reqs and each request's payload.
func frames(reqs []*Request) (stream []byte, payloads [][]byte) {
	for _, r := range reqs {
		p := AppendRequest(nil, r)
		payloads = append(payloads, p)
		stream = AppendRequestFrame(stream, r)
	}
	return stream, payloads
}

// TestReadFrameIntoReusesDst: a payload that fits the destination's
// capacity lands in it without allocating; one that does not allocates
// exactly its declared size.
func TestReadFrameIntoReusesDst(t *testing.T) {
	stream, payloads := frames(sampleRequests())
	dst := make([]byte, 0, 64<<10)
	r := bytes.NewReader(stream)
	for i, want := range payloads {
		got, err := ReadFrameInto(r, MaxFrame, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
		if len(got) > 0 && &got[0] != &dst[:1][0] {
			t.Fatalf("frame %d: payload not read into dst", i)
		}
	}
	if _, err := ReadFrameInto(r, MaxFrame, dst); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	var src io.Reader = r
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		if _, err := ReadFrameInto(src, MaxFrame, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("reading into a large-enough dst allocates %.1f objects, want 0", allocs)
	}

	big := AppendRequestFrame(nil, &Request{ID: 1, Op: OpWrite, Path: "/big", Data: make([]byte, 100<<10)})
	got, err := ReadFrameInto(bytes.NewReader(big), MaxFrame, make([]byte, 0, 512))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big)-4 || cap(got) != len(got) {
		t.Fatalf("grown payload len %d cap %d, want exactly %d", len(got), cap(got), len(big)-4)
	}
}

// TestReadFrameIntoOversizeBeforeAllocation: the frame cap is checked
// before anything is allocated for the payload, whatever the declared
// length — a hostile 4-byte header cannot make the reader hold memory.
func TestReadFrameIntoOversizeBeforeAllocation(t *testing.T) {
	dst := make([]byte, 0, 64)
	for _, hdr := range [][]byte{
		{0x40, 0x00, 0x00, 0x00}, // 1 GB
		{0xff, 0xff, 0xff, 0xff}, // 4 GB - 1
		AppendRequestFrame(nil, &Request{ID: 1, Op: OpWrite, Path: "/f", Data: make([]byte, 1024)})[:4], // legal, but over a 512 B cap
	} {
		r := bytes.NewReader(hdr)
		var src io.Reader = r
		if allocs := testing.AllocsPerRun(10, func() {
			r.Reset(hdr)
			if _, err := ReadFrameInto(src, 512, dst); !errors.Is(err, ErrFrame) {
				t.Fatalf("header %x: got %v, want ErrFrame", hdr, err)
			}
		}); allocs != 0 {
			t.Fatalf("header %x: rejected after %.1f allocations, want 0", hdr, allocs)
		}
	}
}

// TestReadFrameOneBytePerRead: a stream delivered one byte per Read —
// every frame split at every boundary — yields the same frames as the
// stream delivered whole, through the buffered reader the server uses
// and without it.
func TestReadFrameOneBytePerRead(t *testing.T) {
	stream, payloads := frames(sampleRequests())
	for name, r := range map[string]io.Reader{
		"raw":      iotest.OneByteReader(bytes.NewReader(stream)),
		"buffered": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream)), 16),
	} {
		dst := make([]byte, 0, 32)
		for i, want := range payloads {
			got, err := ReadFrameInto(r, MaxFrame, dst)
			if err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s frame %d: payload mismatch", name, i)
			}
			if _, err := DecodeRequestAliased(got); err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
		}
	}
}

// TestFrameHeadersAllocateNothing: the u32 prefix is never a heap object
// on a buffered stream — ReadFrame over a *bufio.Reader peeks it in the
// reader's buffer, so a fresh frame costs exactly its payload, and
// WriteFrame into a *bufio.Writer builds it in the writer's free space,
// so framing costs nothing (the writer's 64-byte buffer makes most
// frames straddle a flush).
func TestFrameHeadersAllocateNothing(t *testing.T) {
	stream, payloads := frames(sampleRequests()[:1])
	r := bytes.NewReader(stream)
	br := bufio.NewReaderSize(r, 4096)
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		br.Reset(r)
		got, err := ReadFrame(br, MaxFrame)
		if err != nil || !bytes.Equal(got, payloads[0]) {
			t.Fatalf("ReadFrame = %x, %v", got, err)
		}
	}); allocs != 1 {
		t.Fatalf("ReadFrame over a bufio.Reader allocates %.1f objects, want 1 (the payload)", allocs)
	}

	var out bytes.Buffer
	bw := bufio.NewWriterSize(&out, 64)
	payload := payloads[0]
	if allocs := testing.AllocsPerRun(100, func() {
		out.Reset()
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WriteFrame into a bufio.Writer allocates %.1f objects, want 0", allocs)
	}
	// Every frame written above, split across flushes or not, reads back.
	out.Reset()
	bw.Reset(&out)
	for i := 0; i < 5; i++ {
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(out.Bytes())
	for i := 0; i < 5; i++ {
		if got, err := ReadFrame(rd, MaxFrame); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("frame %d written through the bufio.Writer reads back as %x, %v", i, got, err)
		}
	}
}

// TestReadFrameErrors: the buffered and the unbuffered reader answer a
// broken stream alike, and allocate nothing to do it — a clean close
// before a frame is io.EOF, a stream that ends inside the prefix or the
// payload is io.ErrUnexpectedEOF, and a declared length over max is
// ErrFrame before any payload buffer exists.
func TestReadFrameErrors(t *testing.T) {
	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"clean close", nil, io.EOF},
		{"1 header byte", []byte{0}, io.ErrUnexpectedEOF},
		{"2 header bytes", []byte{0, 0}, io.ErrUnexpectedEOF},
		{"3 header bytes", []byte{0, 0, 0}, io.ErrUnexpectedEOF},
		{"header, no payload", []byte{0, 0, 0, 8}, io.ErrUnexpectedEOF},
		{"payload cut short", []byte{0, 0, 0, 8, 1, 2, 3}, io.ErrUnexpectedEOF},
		{"declared length over max", []byte{0, 0, 2, 1}, ErrFrame},
		{"4 GB - 1 declared", []byte{0xff, 0xff, 0xff, 0xff}, ErrFrame},
	}
	dst := make([]byte, 0, 64)
	for _, c := range cases {
		r := bytes.NewReader(c.stream)
		br := bufio.NewReaderSize(r, 16)
		for _, path := range []struct {
			name  string
			src   io.Reader
			reset func()
		}{
			{"unbuffered", r, func() { r.Reset(c.stream) }},
			{"buffered", br, func() { r.Reset(c.stream); br.Reset(r) }},
		} {
			if allocs := testing.AllocsPerRun(10, func() {
				path.reset()
				if _, err := ReadFrameInto(path.src, 512, dst); err != c.want {
					t.Fatalf("%s, %s: got %v, want %v", c.name, path.name, err, c.want)
				}
			}); allocs != 0 {
				t.Fatalf("%s, %s: answered after %.1f allocations, want 0", c.name, path.name, allocs)
			}
		}
	}
}
