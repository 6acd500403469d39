package main

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"rio/internal/server"
	"rio/internal/wire"
)

// bed is one system under test: an in-process server on real loopback
// TCP. The clients talk to it only through sockets.
type bed struct {
	srv    *server.Server
	ln     net.Listener
	served chan error
}

func newBed(shards int, seed uint64) (*bed, error) {
	srv, err := server.New(server.Config{Shards: shards, MemoryMB: shardMemoryMB, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, p := range []string{"/kv/d00/k00000", "/spool/d03/t-7", "/deep/s00/a/b/c/d/f"} {
		if got, want := shardOf(p, shards), srv.ShardOf(p); got != want {
			srv.Close()
			return nil, fmt.Errorf("bench: shardOf(%q)=%d but the server routes it to %d; update shardOf", p, got, want)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	b := &bed{srv: srv, ln: ln, served: make(chan error, 1)}
	go func() { b.served <- srv.Serve(ln) }()
	return b, nil
}

// close stops accepting, waits for the accept loop, then drains the
// server (Close waits for every connection goroutine, so clients must
// have hung up first).
func (b *bed) close() {
	b.ln.Close()
	<-b.served
	b.srv.Close()
}

// shardMemoryMB is each shard's simulated memory: 2048 pages, of which a
// third (682 frames) is the data cache and an eighth (256) the metadata
// buffer cache.
const shardMemoryMB = 16

// client is one connection, used from one goroutine.
type client struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	enc []byte
	ids uint64
}

func (b *bed) dial() (*client, error) {
	c, err := net.Dial("tcp", b.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	return &client{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}, nil
}

func (cl *client) send(req *wire.Request) error {
	cl.enc = wire.AppendRequest(cl.enc[:0], req)
	return wire.WriteFrame(cl.bw, cl.enc)
}

func (cl *client) recv() (*wire.Response, error) {
	payload, err := wire.ReadFrame(cl.br, wire.MaxFrame)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResponse(payload)
}

// Run phases, shared by every driver goroutine of a run.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// recorder is one driver goroutine's tally. Only completions that land
// in the measured phase count. Merged after the goroutine exits.
type recorder struct {
	phase *atomic.Int32
	t0    time.Time // start of the measured phase; set before phase flips

	attempted, failed uint64
	lost              uint64 // failed verification after a warm reboot
	all, read, write  hist
	late              hist     // paced streams: how far behind schedule a send went out
	tooLate           uint64   // ... and how many went out more than lateLimit behind
	windows           []uint32 // OK completions per second of the measured phase

	// recover-warm.
	crashAck   time.Time
	recoverUS  [2][]float64 // crash ack to first OK op, by D (small, large)
	cycles     int          // crash cycles completed, counted in pairs (one of each D)
	firstStart time.Time    // first pair begun in the measured phase
	lastEnd    time.Time    // last pair completed in it
}

func (r *recorder) measuring() bool { return r.phase.Load() == phaseMeasure }

// lateLimit: paced requests sent further behind schedule than this are
// counted (late_sends). They are not failed ops — they were answered, and
// being timed from their due time the delay is already in their latency —
// but a run with many did not offer the stated rate.
const lateLimit = 10 * time.Millisecond

// sentLate notes how far behind its due time a paced request went out.
func (r *recorder) sentLate(late time.Duration) {
	if !r.measuring() {
		return
	}
	r.late.add(late)
	if late > lateLimit {
		r.tooLate++
	}
}

// observe records one answered request. start is the send time, or for
// a paced stream the time the request was due.
func (r *recorder) observe(o *op, start, end time.Time, ok bool) {
	if o.class == classCrash {
		r.crashAck = end
	}
	if !r.measuring() {
		return
	}
	r.attempted++
	if !ok {
		r.failed++
		if o.tag > 0 && (o.class == classRead || o.class == classProbe) {
			r.lost++
		}
		return
	}
	d := end.Sub(start)
	r.all.add(d)
	switch o.class {
	case classRead:
		r.read.add(d)
	case classWrite:
		r.write.add(d)
	case classProbe:
		i := 0
		if o.tag == dirtyLarge {
			i = 1
		}
		r.recoverUS[i] = append(r.recoverUS[i], float64(end.Sub(r.crashAck))/1e3)
	}
	if w := int(end.Sub(r.t0) / time.Second); w >= 0 {
		for len(r.windows) <= w {
			r.windows = append(r.windows, 0)
		}
		r.windows[w]++
	}
	if o.end && !r.firstStart.IsZero() {
		r.cycles, r.lastEnd = r.cycles+2, end
	}
}

func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.lost += o.lost
	r.tooLate += o.tooLate
	r.all.merge(&o.all)
	r.read.merge(&o.read)
	r.write.merge(&o.write)
	r.late.merge(&o.late)
	for len(r.windows) < len(o.windows) {
		r.windows = append(r.windows, 0)
	}
	for i, c := range o.windows {
		r.windows[i] += c
	}
	for i := range o.recoverUS {
		r.recoverUS[i] = append(r.recoverUS[i], o.recoverUS[i]...)
	}
	if !o.firstStart.IsZero() { // only recover-warm's one controller stream
		r.cycles, r.firstStart, r.lastEnd = o.cycles, o.firstStart, o.lastEnd
	}
}

// pumpConfig shapes one closed-loop stream.
type pumpConfig struct {
	// window is the most consecutive requests of the stream in flight.
	window int
	// interval, when set, makes a window-1 stream a constant-rate one:
	// request n is due at start + n*interval, is sent then or as soon
	// after as the previous reply allows, and is timed from when it was
	// due, so a stall is charged to every request it delays.
	interval time.Duration
	// limit, when set, ends the stream after that many requests;
	// otherwise it runs until the phase is phaseStop.
	limit int
}

// maxAgain bounds how often one request is re-sent on StatusAgain (a
// shard that is down or full), 1 ms apart. Past it the op has failed.
const maxAgain = 5000

type flight struct {
	o     op
	start time.Time
	again int
	done  bool
}

// pump drives sc over cl from one goroutine: a sliding window of
// in-flight frames, the next request written when a reply is read. The
// window slides over the stream's sequence numbers, so the requests in
// flight are always consecutive ones.
func pump(cl *client, sc script, cfg pumpConfig, rec *recorder) error {
	ring := make([]flight, cfg.window)
	idBase := cl.ids
	var base, next uint64 // oldest unanswered, next to send
	var held op
	haveHeld, soloOut := false, false
	t0 := time.Now()
	for {
		for !soloOut && next-base < uint64(cfg.window) {
			if !haveHeld {
				if cfg.limit > 0 && next == uint64(cfg.limit) {
					break
				}
				held, haveHeld = sc.next(), true
			}
			if cfg.limit == 0 && held.bound && rec.phase.Load() == phaseStop {
				break
			}
			if held.solo && next > base {
				break
			}
			start := time.Now()
			if cfg.interval > 0 {
				// A paced request is timed from when it was due.
				due := t0.Add(time.Duration(next) * cfg.interval)
				time.Sleep(due.Sub(start))
				rec.sentLate(time.Since(due))
				start = due
			}
			if held.bound && held.tag > 0 && rec.measuring() && rec.firstStart.IsZero() {
				rec.firstStart = start
			}
			held.req.ID = idBase + next
			f := &ring[next%uint64(cfg.window)]
			*f = flight{o: held, start: start}
			if err := cl.send(&f.o.req); err != nil {
				return err
			}
			soloOut, haveHeld = held.solo, false
			next++
		}
		if err := cl.bw.Flush(); err != nil {
			return err
		}
		if next == base {
			cl.ids = idBase + next
			return nil
		}
		resp, err := cl.recv()
		if err != nil {
			return err
		}
		seq := resp.ID - idBase
		if seq < base || seq >= next {
			return fmt.Errorf("bench: reply for request %d, outside the window [%d,%d)", seq, base, next)
		}
		f := &ring[seq%uint64(cfg.window)]
		if f.done {
			return fmt.Errorf("bench: second reply for request %d", seq)
		}
		if resp.Status.Retryable() && f.again < maxAgain {
			f.again++
			time.Sleep(time.Millisecond)
			if err := cl.send(&f.o.req); err != nil {
				return err
			}
			continue
		}
		end := time.Now()
		rec.observe(&f.o, f.start, end, sc.done(&f.o, resp))
		f.done, soloOut = true, false
		for base < next && ring[base%uint64(cfg.window)].done {
			base++
		}
	}
}
