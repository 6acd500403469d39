package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"rio/internal/wire"
)

// TestTCPTransport runs the full wire path: listener, frames, codec,
// shard execution, response frames.
func TestTCPTransport(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Seed: 7})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.Serve(ln)

	cl, err := DialMux(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	payload := bytes.Repeat([]byte("rio"), 100)
	resp, err := cl.Do(&wire.Request{ID: 1, Op: wire.OpWrite, Shard: -1, Path: "/tcp", Data: payload})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("write over tcp: %v %+v", err, resp)
	}
	resp, err = cl.Do(&wire.Request{ID: 2, Op: wire.OpRead, Shard: -1, Path: "/tcp"})
	if err != nil || resp.Status != wire.StatusOK || !bytes.Equal(resp.Data, payload) {
		t.Fatalf("read over tcp: %v %+v", err, resp)
	}
	if resp.ID != 2 {
		t.Fatalf("response ID = %d, want 2", resp.ID)
	}
	// Typed errors cross the wire typed.
	resp, err = cl.Do(&wire.Request{ID: 3, Op: wire.OpRead, Shard: -1, Path: "/missing"})
	if err != nil || resp.Status != wire.StatusNotFound {
		t.Fatalf("missing over tcp: %v %+v", err, resp)
	}

	// A second connection works concurrently with the first.
	cl2, err := DialMux(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	resp, err = cl2.Do(&wire.Request{ID: 4, Op: wire.OpStat, Shard: -1, Path: "/tcp"})
	if err != nil || resp.Status != wire.StatusOK || resp.Size != int64(len(payload)) {
		t.Fatalf("stat on second conn: %v %+v", err, resp)
	}
}

// TestTCPBadFrameClosesConn: a frame that does not decode gets a typed
// refusal and the stream ends.
func TestTCPBadFrameClosesConn(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Seed: 7})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, wire.MaxFrame)
	if err != nil {
		t.Fatalf("expected a refusal response, got %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil || resp.Status != wire.StatusInvalid {
		t.Fatalf("refusal: %v %+v", err, resp)
	}
	// The server hangs up after a bad frame.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(conn, wire.MaxFrame); err == nil {
		t.Fatal("connection stayed open after a bad frame")
	}
}

// fakeClient scripts a status sequence for retry testing.
type fakeClient struct {
	statuses []wire.Status
	calls    int
}

func (f *fakeClient) Do(req *wire.Request) (*wire.Response, error) {
	st := f.statuses[len(f.statuses)-1]
	if f.calls < len(f.statuses) {
		st = f.statuses[f.calls]
	}
	f.calls++
	return &wire.Response{ID: req.ID, Status: st}, nil
}
func (f *fakeClient) Close() error { return nil }

func TestRetryClientRidesOutEAGAIN(t *testing.T) {
	fc := &fakeClient{statuses: []wire.Status{wire.StatusAgain, wire.StatusAgain, wire.StatusOK}}
	rc := &RetryClient{C: fc, Pol: RetryPolicy{MaxRetries: 5, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}}
	resp, err := rc.Do(&wire.Request{ID: 1, Op: wire.OpSync})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("got %v %+v", err, resp)
	}
	if fc.calls != 3 || rc.Stats.Retries != 2 || rc.Stats.Exhausted != 0 {
		t.Fatalf("calls=%d stats=%+v", fc.calls, rc.Stats)
	}
}

func TestRetryClientExhausts(t *testing.T) {
	fc := &fakeClient{statuses: []wire.Status{wire.StatusAgain}}
	rc := &RetryClient{C: fc, Pol: RetryPolicy{MaxRetries: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}}
	resp, err := rc.Do(&wire.Request{ID: 1, Op: wire.OpSync})
	if err != nil || resp.Status != wire.StatusAgain {
		t.Fatalf("got %v %+v", err, resp)
	}
	if fc.calls != 4 || rc.Stats.Exhausted != 1 {
		t.Fatalf("calls=%d stats=%+v", fc.calls, rc.Stats)
	}
}

func TestRetryClientPassesThroughNonRetryable(t *testing.T) {
	fc := &fakeClient{statuses: []wire.Status{wire.StatusNotFound}}
	rc := &RetryClient{C: fc, Pol: DefaultRetryPolicy()}
	resp, _ := rc.Do(&wire.Request{ID: 1, Op: wire.OpStat, Path: "/x"})
	if resp.Status != wire.StatusNotFound || fc.calls != 1 {
		t.Fatalf("calls=%d resp=%+v", fc.calls, resp)
	}
}
