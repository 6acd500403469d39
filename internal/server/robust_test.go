package server

import (
	"fmt"
	"net"
	"testing"
	"time"

	"rio/internal/wire"
)

// The jittered backoff schedule must be a pure function of (policy,
// attempt): same seed, same schedule, byte for byte — and every delay
// must respect the hard cap, jitter included.
func TestRetryPolicyDelayDeterministicAndCapped(t *testing.T) {
	pol := RetryPolicy{MaxRetries: 12, BaseDelay: time.Millisecond,
		MaxDelay: 64 * time.Millisecond, Seed: 1996}
	var first []time.Duration
	for n := 0; n < pol.MaxRetries; n++ {
		first = append(first, pol.Delay(n))
	}
	for round := 0; round < 3; round++ {
		for n := 0; n < pol.MaxRetries; n++ {
			if d := pol.Delay(n); d != first[n] {
				t.Fatalf("round %d attempt %d: %v != first run's %v (schedule not deterministic)", round, n, d, first[n])
			}
		}
	}
	for n, d := range first {
		if d > pol.MaxDelay {
			t.Fatalf("attempt %d: delay %v exceeds hard cap %v", n, d, pol.MaxDelay)
		}
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", n, d)
		}
	}
	// Jitter must actually spread schedules: two seeds should disagree
	// somewhere (with 12 attempts the chance of a full collision is
	// negligible; a failure here means the seed is being ignored).
	pol2 := pol
	pol2.Seed = 7
	same := true
	for n := 0; n < pol.MaxRetries; n++ {
		if pol2.Delay(n) != first[n] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two different seeds produced identical schedules: jitter is not seed-derived")
	}
	// Saturated attempts stay within [Max/2, Max].
	if d := pol.Delay(1000); d > pol.MaxDelay || d < pol.MaxDelay/2 {
		t.Fatalf("saturated delay %v outside [%v, %v]", d, pol.MaxDelay/2, pol.MaxDelay)
	}
	// Without a seed the schedule is the plain capped exponential.
	plain := RetryPolicy{MaxRetries: 8, BaseDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond}
	want := []time.Duration{1, 2, 4, 8, 16, 16, 16, 16}
	for n, w := range want {
		if d := plain.Delay(n); d != w*time.Millisecond {
			t.Fatalf("plain attempt %d: %v, want %v", n, d, w*time.Millisecond)
		}
	}
}

// movedClient answers StatusMoved(addr) until the caller "dials" the
// right address, then serves OK — the shape of a fleet promotion.
type movedClient struct {
	addr    string
	primary string
	calls   *int
}

func (m *movedClient) Do(req *wire.Request) (*wire.Response, error) {
	*m.calls++
	if m.addr != m.primary {
		return &wire.Response{ID: req.ID, Status: wire.StatusMoved, Msg: m.primary}, nil
	}
	return &wire.Response{ID: req.ID, Status: wire.StatusOK, Size: 7}, nil
}
func (m *movedClient) Close() error { return nil }

func TestRetryClientFollowsMoved(t *testing.T) {
	calls := 0
	rc := &RetryClient{
		C: &movedClient{addr: "old", primary: "new", calls: &calls},
		Redial: func(addr string) (Client, error) {
			return &movedClient{addr: addr, primary: "new", calls: &calls}, nil
		},
	}
	resp, err := rc.Do(&wire.Request{ID: 9, Op: wire.OpStat, Shard: -1, Path: "/x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || resp.Size != 7 {
		t.Fatalf("redirect not followed: %+v", resp)
	}
	if rc.Stats.Redirects != 1 {
		t.Fatalf("Redirects = %d, want 1", rc.Stats.Redirects)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (one moved, one ok)", calls)
	}
}

func TestRetryClientBoundsRedirectLoop(t *testing.T) {
	calls := 0
	// Every hop answers Moved: a routing loop. Do must fail with a
	// typed error after maxRedirects hops, not spin.
	rc := &RetryClient{
		C: &movedClient{addr: "a", primary: "never", calls: &calls},
		Redial: func(addr string) (Client, error) {
			return &movedClient{addr: "b", primary: "never", calls: &calls}, nil
		},
	}
	if _, err := rc.Do(&wire.Request{ID: 1, Op: wire.OpStat, Shard: -1, Path: "/x"}); err == nil {
		t.Fatal("unbounded redirect loop did not error")
	}
	if calls > maxRedirects+1 {
		t.Fatalf("%d attempts for a %d-hop bound", calls, maxRedirects)
	}
}

// Without a Redial hook, StatusMoved passes through untouched — a
// plain client treats it like any terminal status.
func TestRetryClientMovedPassthrough(t *testing.T) {
	calls := 0
	rc := &RetryClient{C: &movedClient{addr: "old", primary: "new", calls: &calls}}
	resp, err := rc.Do(&wire.Request{ID: 1, Op: wire.OpStat, Shard: -1, Path: "/x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusMoved || resp.Msg != "new" {
		t.Fatalf("got %+v, want moved passthrough", resp)
	}
}

// A shard whose goroutine never opens its gate simulates a wedged
// simulator: Close with a DrainTimeout must fail the queued requests
// with StatusTimeout and return, instead of hanging shutdown forever.
func TestCloseDrainTimeoutFailsQueued(t *testing.T) {
	gate := make(chan struct{})
	srv, err := New(Config{
		Shards: 2, QueueDepth: 8, DrainTimeout: 100 * time.Millisecond,
		testGate: func(shard int) {
			if shard == 0 {
				<-gate // never opened: shard 0 wedges before its first drain
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find paths that route to the wedged shard.
	var paths []string
	for i := 0; len(paths) < 3; i++ {
		p := fmt.Sprintf("/wedge/%d", i)
		if srv.ShardOf(p) == 0 {
			paths = append(paths, p)
		}
	}
	resps := make(chan *wire.Response, len(paths))
	for _, p := range paths {
		go func() {
			resps <- srv.Do(&wire.Request{ID: 1, Op: wire.OpOpen, Shard: -1, Path: p})
		}()
	}
	// Wait until all three tasks are actually queued on the wedged shard
	// so Close's timeout drain is what answers them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.shards[0].mu.Lock()
		n := len(srv.shards[0].ch)
		srv.shards[0].mu.Unlock()
		if n == len(paths) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never queued on the wedged shard")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung despite DrainTimeout")
	}
	for range paths {
		select {
		case r := <-resps:
			if r.Status != wire.StatusTimeout {
				t.Fatalf("queued request got %v (%s), want StatusTimeout", r.Status, r.Msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued request never answered")
		}
	}
	close(gate) // release the wedged goroutine so the test process exits clean
}

// A connection whose peer goes silent must not pin its serving
// goroutine forever: the idle deadline closes it from the server side.
func TestServeConnIdleTimeout(t *testing.T) {
	srv, err := New(Config{Shards: 1, IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	// A healthy request proves the connection works, then we stall.
	cl, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn := cl.conn
	if resp, err := cl.Do(&wire.Request{ID: 1, Op: wire.OpOpen, Shard: -1, Path: "/alive"}); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("healthy request: %v %+v", err, resp)
	}
	// Stall: send nothing. The server must hang up within the idle
	// timeout (plus slack); a blocked read on our side sees EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	start := time.Now()
	_, err = conn.Read(one[:])
	if err == nil {
		t.Fatal("server sent unsolicited bytes to a stalled client")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("server kept a stalled connection open %v (idle timeout 100ms)", waited)
	}
}
