package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rio"
	"rio/internal/server"
	"rio/internal/txn"
	"rio/internal/wire"
)

// The traced run replays a workload's first requests serially up a
// four-rung ladder, each rung on a freshly set-up system:
//
//	R0 wire    encode and decode of each request's actual messages
//	R1 exec    server.Exec / ExecReadFrame on bare rio.Systems
//	R2 server  Server.Do / DoFrame through the shard queues, in process
//	R3 tcp     one loopback TCP connection at depth 1
//
// R1 sits inside R2 sits inside R3, and R3 also contains R0 (both ends'
// codec work), so the self times (each rung's typical time per request)
//
//	wire = R0, fs = R1, server = R2-R1, tcp = R3-R2-R0
//
// add up to the depth-1 end-to-end latency: a budget table that sums,
// taken from outside the program. Below R1 the layers cannot be told
// apart by subtraction; there the replay records exact counter deltas,
// and units.go times each layer's exported functions directly.

// span is one timed call made by the benchmark into a layer.
type span struct {
	name       uint8
	req        uint32 // the request's position in the replay
	parent     int32  // index of the enclosing span, -1 at top level
	start, end int64  // ns since the trace began
}

const (
	spWire uint8 = iota
	spReqEncode
	spReqDecode
	spRespEncode
	spRespDecode
	spExec
	spServerDo
	spTCP
	spTCPWrite
	spTCPRead
)

var spanNames = []string{"wire", "wire.req_encode", "wire.req_decode", "wire.resp_encode",
	"wire.resp_decode", "server.Exec", "server.Do", "tcp.roundtrip", "tcp.write", "tcp.read"}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name uint8, req uint32, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, req, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return int32(len(t.spans) - 1)
}

// write stores the spans as rows of [name, req, parent, start_ns, end_ns].
func (t *tracer) write(path string) error {
	rows := make([][5]int64, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [5]int64{int64(s.name), int64(s.req), int64(s.parent), s.start, s.end}
	}
	b, err := json.Marshal(struct {
		Names   []string   `json:"names"`
		Columns []string   `json:"columns"`
		Spans   [][5]int64 `json:"spans"`
	}{spanNames, []string{"name", "req", "parent", "start_ns", "end_ns"}, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// executor runs one request at one rung and returns its reply and how
// long the rung's call took.
type executor interface {
	exec(o *op, seq uint32) (*wire.Response, time.Duration, error)
	close()
}

// Counter indices for the R1 replay. All are exact: they come from the
// simulator's own accounting on a serial request stream.
const (
	cSimNS = iota
	cSyscalls
	cMetaUpdates
	cDcacheHits
	cDcacheMisses
	cMetaHits
	cMetaMisses
	cDataHits
	cDataMisses
	cEvictions
	cWriteBacks
	cShadowWrites
	cSteps
	cProtToggle
	cTLBHits
	cTLBMisses
	cTraps
	cDiskReads
	cDiskWrites
	cDiskBytes
	cDiskBusyNS
	numCounters
)

type counters [numCounters]int64

func readCounters(sys *rio.System) counters {
	m := sys.Machine()
	return counters{
		cSimNS:        int64(m.Elapsed()),
		cSyscalls:     int64(m.FS.Stats.Syscalls),
		cMetaUpdates:  int64(m.FS.Stats.MetaUpdates),
		cDcacheHits:   int64(m.FS.Stats.DcacheHits),
		cDcacheMisses: int64(m.FS.Stats.DcacheMisses),
		cMetaHits:     int64(m.Cache.Stats.MetaHits),
		cMetaMisses:   int64(m.Cache.Stats.MetaMisses),
		cDataHits:     int64(m.Cache.Stats.DataHits),
		cDataMisses:   int64(m.Cache.Stats.DataMisses),
		cEvictions:    int64(m.Cache.Stats.Evictions),
		cWriteBacks:   int64(m.Cache.Stats.WriteBacks),
		cShadowWrites: int64(m.Cache.Stats.ShadowWrites),
		cSteps:        int64(m.Kernel.Steps()),
		cProtToggle:   int64(m.MMU.Stats.ProtToggle),
		cTLBHits:      int64(m.MMU.Stats.TLBHits),
		cTLBMisses:    int64(m.MMU.Stats.TLBMisses),
		cTraps:        int64(m.MMU.Stats.Traps),
		cDiskReads:    int64(m.Disk.Stats.Reads),
		cDiskWrites:   int64(m.Disk.Stats.Writes),
		cDiskBytes:    int64(m.Disk.Stats.BytesWritten),
		cDiskBusyNS:   int64(m.Disk.Stats.BusyTime),
	}
}

// bareExec is rung R1: the op-to-filesystem translation with no server
// around it, one rio.System per shard. Transactions and the admin ops
// are the server's own (unexported) code, so they are reproduced here
// from the exported pieces: txn.Log's publish/apply/erase, and
// System.Crash / WarmReboot followed by the log's roll-forward.
type bareExec struct {
	sys    []*rio.System
	tr     *tracer
	frame  []byte
	txns   map[uint64][]txn.Op
	txnSeq uint64

	// A warm reboot rebuilds the machine's software state and with it
	// every counter, so deltas are banked before each reboot.
	base, total []counters
}

func newBareExec(shards int, seed uint64, tr *tracer) (*bareExec, error) {
	sys, err := rio.NewShards(shards, rio.Config{MemoryMB: shardMemoryMB, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &bareExec{sys: sys, tr: tr, txns: map[uint64][]txn.Op{},
		base: make([]counters, shards), total: make([]counters, shards)}, nil
}

func (b *bareExec) close() {}

// rebase starts counting from now (the end of the preload).
func (b *bareExec) rebase() {
	for i, s := range b.sys {
		b.base[i], b.total[i] = readCounters(s), counters{}
	}
}

func (b *bareExec) bank(i int) {
	now := readCounters(b.sys[i])
	for c := range now {
		b.total[i][c] += now[c] - b.base[i][c]
	}
	b.base[i] = now
}

// sum banks and returns the counters over all shards.
func (b *bareExec) sum() counters {
	var out counters
	for i := range b.sys {
		b.bank(i)
		for c := range out {
			out[c] += b.total[i][c]
		}
	}
	return out
}

func (b *bareExec) liveEntries() int {
	n := 0
	for _, s := range b.sys {
		n += s.Machine().Reg.LiveCount()
	}
	return n
}

func (b *bareExec) exec(o *op, seq uint32) (*wire.Response, time.Duration, error) {
	req := &o.req
	shard := shardOf(req.Path, len(b.sys))
	switch {
	case req.Op == wire.OpCrash || req.Op == wire.OpWarmboot:
		shard = int(req.Shard)
	case req.Op == wire.OpTxnCommit:
		shard = int(req.Txn >> 32)
	}
	sys := b.sys[shard]
	start := time.Now()
	var resp *wire.Response
	var err error
	switch {
	case req.Op == wire.OpCrash:
		sys.Crash("bench: administrative crash")
		resp = &wire.Response{ID: req.ID}
	case req.Op == wire.OpWarmboot:
		b.bank(shard)
		var rep *rio.RebootReport
		if rep, err = sys.WarmReboot(); err == nil {
			_, err = txn.NewLog(sys.Machine().FS).Recover()
			resp = &wire.Response{ID: req.ID, Size: int64(rep.MetaRestored + rep.DataRestored)}
		}
		b.base[shard] = readCounters(sys)
	case req.Op == wire.OpTxnBegin:
		b.txnSeq++
		h := uint64(shard)<<32 | b.txnSeq
		b.txns[h] = nil
		resp = &wire.Response{ID: req.ID, Size: int64(h)}
	case req.Op == wire.OpTxnCommit:
		rec := txn.Record{ID: req.Txn, Ops: b.txns[req.Txn]}
		delete(b.txns, req.Txn)
		log := txn.NewLog(sys.Machine().FS)
		if err = log.Publish([]txn.Record{rec}); err == nil {
			if err = log.Apply(&rec); err == nil {
				err = log.Erase()
			}
		}
		resp = &wire.Response{ID: req.ID, Size: int64(len(rec.Ops))}
	case req.Txn != 0:
		staged := txn.Op{Path: req.Path, Path2: req.Path2, Off: req.Offset, Data: req.Data}
		switch req.Op {
		case wire.OpWrite:
			staged.Kind = txn.OpWrite
		case wire.OpMv:
			staged.Kind = txn.OpRename
		default:
			err = fmt.Errorf("bench: %v staged in a transaction; the replay knows write and mv", req.Op)
		}
		b.txns[req.Txn] = append(b.txns[req.Txn], staged)
		resp = &wire.Response{ID: req.ID}
	case req.Op == wire.OpRead:
		var n int
		b.frame, resp, n = server.ExecReadFrame(sys, req, b.frame[:0])
		end := time.Now()
		b.tr.add(spExec, seq, -1, start, end)
		if n >= 0 {
			// The payload lives in the frame; decode it (outside the
			// timed call) so the reply can be verified like any other.
			if resp, err = wire.DecodeResponse(b.frame[4:]); err != nil {
				return nil, 0, err
			}
		}
		return resp, end.Sub(start), nil
	default:
		resp = server.Exec(sys, req)
	}
	end := time.Now()
	if err != nil {
		return nil, 0, fmt.Errorf("bench: replaying %v at R1: %w", req.Op, err)
	}
	b.tr.add(spExec, seq, -1, start, end)
	return resp, end.Sub(start), nil
}

// memExec is rung R2: the same requests through Server.Do / DoFrame —
// routing, the shard queue, the shard goroutine — with no sockets.
type memExec struct {
	srv *server.Server
	tr  *tracer
}

func newMemExec(shards int, seed uint64, tr *tracer) (*memExec, error) {
	srv, err := server.New(server.Config{Shards: shards, MemoryMB: shardMemoryMB, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &memExec{srv: srv, tr: tr}, nil
}

func (m *memExec) close() { m.srv.Close() }

func (m *memExec) exec(o *op, seq uint32) (*wire.Response, time.Duration, error) {
	if o.req.Op != wire.OpRead {
		start := time.Now()
		resp, err := server.MemClient{S: m.srv}.Do(&o.req)
		end := time.Now()
		m.tr.add(spServerDo, seq, -1, start, end)
		return resp, end.Sub(start), err
	}
	start := time.Now()
	frame, resp := m.srv.DoFrame(&o.req)
	end := time.Now()
	m.tr.add(spServerDo, seq, -1, start, end)
	var err error
	if frame != nil {
		resp, err = wire.DecodeResponse(frame[4:])
		m.srv.ReleaseFrame(frame)
	}
	return resp, end.Sub(start), err
}

// tcpExec is rung R3: one connection, one request in flight. Tracing is
// on for alternate blocks of traceBlock requests, so one pass measures
// the same server with and without it: the difference is the tracing
// overhead, and the untraced half is the depth-1 end-to-end latency. The
// blocks are short because depth-1 latency over loopback is bimodal in
// stretches of hundreds of requests (whether the reply's wake-up crosses
// CPUs); both halves must sample every stretch.
type tcpExec struct {
	b             *bed
	cl            *client
	tr            *tracer
	plain, traced []float64 // per-request ns
}

const traceBlock = 4

func newTCPExec(shards int, seed uint64, tr *tracer) (*tcpExec, error) {
	b, err := newBed(shards, seed)
	if err != nil {
		return nil, err
	}
	cl, err := b.dial()
	if err != nil {
		b.close()
		return nil, err
	}
	return &tcpExec{b: b, cl: cl, tr: tr}, nil
}

func (t *tcpExec) close() {
	t.cl.c.Close()
	t.b.close()
}

func (t *tcpExec) exec(o *op, seq uint32) (*wire.Response, time.Duration, error) {
	cl := t.cl
	tr := t.tr
	if (seq/traceBlock)%2 == 0 {
		tr = nil
	}
	for again := 0; ; again++ {
		t0 := time.Now()
		cl.enc = wire.AppendRequest(cl.enc[:0], &o.req)
		t1 := t0
		if tr != nil {
			t1 = time.Now()
		}
		err := wire.WriteFrame(cl.bw, cl.enc)
		if err == nil {
			err = cl.bw.Flush()
		}
		if err != nil {
			return nil, 0, err
		}
		t2 := t1
		if tr != nil {
			t2 = time.Now()
		}
		payload, err := wire.ReadFrame(cl.br, wire.MaxFrame)
		if err != nil {
			return nil, 0, err
		}
		t3 := t2
		if tr != nil {
			t3 = time.Now()
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			return nil, 0, err
		}
		t4 := time.Now()
		if resp.Status.Retryable() && again < maxAgain {
			time.Sleep(time.Millisecond)
			continue
		}
		if tr == nil {
			t.plain = append(t.plain, float64(t4.Sub(t0)))
		} else {
			t.traced = append(t.traced, float64(t4.Sub(t0)))
			p := tr.add(spTCP, seq, -1, t0, t4)
			tr.add(spReqEncode, seq, p, t0, t1)
			tr.add(spTCPWrite, seq, p, t1, t2)
			tr.add(spTCPRead, seq, p, t2, t3)
			tr.add(spRespDecode, seq, p, t3, t4)
		}
		return resp, t4.Sub(t0), nil
	}
}

// wireRung is R0: the codec work one request costs, both directions,
// both ends, on the messages the request actually produced.
type wireRung struct {
	tr       *tracer
	enc, buf []byte
	ns       [4][]float64 // req encode, req decode, resp encode, resp decode
	total    []float64
	overhead int64 // frame bytes that are not payload
}

func (w *wireRung) run(o *op, resp *wire.Response, seq uint32) error {
	t0 := time.Now()
	w.enc = wire.AppendRequest(w.enc[:0], &o.req)
	t1 := time.Now()
	if _, err := wire.DecodeRequest(w.enc); err != nil {
		return err
	}
	t2 := time.Now()
	w.buf = wire.AppendResponseFrame(w.buf[:0], resp)
	t3 := time.Now()
	if _, err := wire.DecodeResponse(w.buf[4:]); err != nil {
		return err
	}
	t4 := time.Now()
	p := w.tr.add(spWire, seq, -1, t0, t4)
	for i, ts := range [4][2]time.Time{{t0, t1}, {t1, t2}, {t2, t3}, {t3, t4}} {
		w.tr.add(spReqEncode+uint8(i), seq, p, ts[0], ts[1])
		w.ns[i] = append(w.ns[i], float64(ts[1].Sub(ts[0])))
	}
	w.total = append(w.total, float64(t4.Sub(t0)))
	w.overhead += int64(4 + len(w.enc) + len(w.buf) - len(o.req.Data) - len(resp.Data))
	return nil
}

// rung is one pass of the replay.
type rung struct {
	ns       []float64 // per-request time of the rung's call
	mallocs  float64   // heap allocations per request, whole process
	ops      int
	userData int64 // payload bytes written by the replayed requests
	failed   int
}

// replay sets the instance up through ex, then plays n requests of its
// measured streams round-robin, one at a time. each, if set, sees every
// request with its reply (the R0 pass rides on R1 this way).
func replay(in *instance, ex executor, n int, afterPreload func(), each func(*op, *wire.Response, uint32) error) (*rung, error) {
	for _, p := range in.preload {
		for i := 0; i < p.n; i++ {
			o := p.sc.next()
			resp, _, err := ex.exec(&o, 0)
			if err != nil {
				return nil, err
			}
			if !p.sc.done(&o, resp) {
				return nil, fmt.Errorf("bench: preload %v %s answered %v %s", o.req.Op, o.req.Path, resp.Status, resp.Msg)
			}
		}
	}
	if afterPreload != nil {
		afterPreload()
	}
	r := &rung{ns: make([]float64, 0, n), ops: n}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < n; i++ {
		sc := in.streams[i%len(in.streams)]
		o := sc.next()
		o.req.ID = uint64(i) + 1
		resp, took, err := ex.exec(&o, uint32(i))
		if err != nil {
			return nil, err
		}
		if !sc.done(&o, resp) {
			r.failed++
		}
		r.ns = append(r.ns, float64(took))
		if o.req.Op == wire.OpWrite {
			r.userData += int64(len(o.req.Data))
		}
		if each != nil {
			if err := each(&o, resp, uint32(i)); err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&ms)
	r.mallocs = float64(ms.Mallocs-mallocs) / float64(n)
	return r, nil
}

// typical is a rung's time per request: the mean of the sample without
// its slowest hundredth. A mean, because depth-1 latency is a mixture of
// a same-CPU and a cross-CPU mode whose shares drift, and a median jumps
// between the modes where a mean moves with the shares; trimmed, so that
// a collection pause or a retry sleep does not carry the figure. Means
// also make the budget exact: the self times sum to R3's.
func typical(ns []float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	c := append([]float64(nil), ns...)
	sort.Float64s(c)
	return mean(c[:len(c)-len(c)/100])
}

// ladder is the traced run's replay of one workload.
type ladder struct {
	vals   map[string]float64
	failed int
	// Broken invariants: counters that differ between two identical
	// replays, and (a matter of timing, so only meaningful on a quiet
	// host) a rung cheaper than the one it contains.
	problems, orderProblems []string
}

func runLadder(workload string, seed uint64, n int, tr *tracer) (*ladder, error) {
	pass := func(mk func(*instance) (executor, error), after func(executor), each func(*op, *wire.Response, uint32) error) (*rung, executor, error) {
		in, err := newInstance(workload, seed)
		if err != nil {
			return nil, nil, err
		}
		ex, err := mk(in)
		if err != nil {
			return nil, nil, err
		}
		defer ex.close()
		var hook func()
		if after != nil {
			hook = func() { after(ex) }
		}
		r, err := replay(in, ex, n, hook, each)
		runtime.GC() // the next rung's machines reuse this one's memory
		return r, ex, err
	}
	bare := func(t *tracer) func(*instance) (executor, error) {
		return func(in *instance) (executor, error) { return newBareExec(in.shards, seed, t) }
	}
	rebase := func(ex executor) { ex.(*bareExec).rebase() }

	// R1 with R0 riding on it, then R1 again untraced: the second pass
	// must reproduce the first one's counters bit for bit.
	w := &wireRung{tr: tr}
	r1, ex1, err := pass(bare(tr), rebase, w.run)
	if err != nil {
		return nil, err
	}
	b1 := ex1.(*bareExec)
	c1, live1 := b1.sum(), b1.liveEntries()
	r1b, ex1b, err := pass(bare(nil), rebase, nil)
	if err != nil {
		return nil, err
	}
	c2 := ex1b.(*bareExec).sum()

	r2, _, err := pass(func(in *instance) (executor, error) { return newMemExec(in.shards, seed, tr) }, nil, nil)
	if err != nil {
		return nil, err
	}
	r3, ex3, err := pass(func(in *instance) (executor, error) { return newTCPExec(in.shards, seed, tr) }, nil, nil)
	if err != nil {
		return nil, err
	}
	t3 := ex3.(*tcpExec)

	l := &ladder{vals: map[string]float64{}, failed: r1.failed + r1b.failed + r2.failed + r3.failed}
	ops := float64(n)
	m0, m1, m2, m3 := typical(w.total), typical(r1.ns), typical(r2.ns), typical(t3.plain)
	v := l.vals
	v["depth1_us"] = m3 / 1e3
	if len(t3.traced) > 0 && m3 > 0 {
		v["trace_overhead_frac"] = (typical(t3.traced) - m3) / m3
	}
	v["wire.self_us"] = m0 / 1e3
	v["fs.self_us"] = m1 / 1e3
	v["server.self_us"] = (m2 - m1) / 1e3
	v["server.tcp_self_us"] = (m3 - m2 - m0) / 1e3
	for i, name := range []string{"wire.req_encode_ns", "wire.req_decode_ns", "wire.resp_encode_ns", "wire.resp_decode_ns"} {
		v[name] = median(w.ns[i])
	}
	// The first R1 pass's allocation count includes the R0 work riding on
	// it (four messages a request); the second pass is R1 alone.
	v["wire.allocs_per_msg"] = (r1.mallocs - r1b.mallocs) / 4
	v["wire.overhead_bytes_per_op"] = float64(w.overhead) / ops
	v["server.allocs_per_op"] = r2.mallocs - r1b.mallocs
	if m1 > m2 {
		l.orderProblems = append(l.orderProblems, fmt.Sprintf("rung R1 (%.0f ns) above R2 (%.0f ns)", m1, m2))
	}
	if m2+m0 > m3 {
		l.orderProblems = append(l.orderProblems, fmt.Sprintf("rungs R2+R0 (%.0f ns) above R3 (%.0f ns)", m2+m0, m3))
	}
	if c1 != c2 {
		l.problems = append(l.problems, fmt.Sprintf("counters differ between two identical replays: %v vs %v", c1, c2))
	}

	c := func(i int) float64 { return float64(c1[i]) }
	ratio := func(hit, miss int) float64 {
		if c(hit)+c(miss) == 0 {
			return 0
		}
		return c(hit) / (c(hit) + c(miss))
	}
	v["sim_us_per_op"] = c(cSimNS) / 1e3 / ops
	v["fs.syscalls_per_op"] = c(cSyscalls) / ops
	v["fs.meta_updates_per_op"] = c(cMetaUpdates) / ops
	v["fs.dcache_hit_ratio"] = ratio(cDcacheHits, cDcacheMisses)
	v["cache.data_hit_ratio"] = ratio(cDataHits, cDataMisses)
	v["cache.meta_hit_ratio"] = ratio(cMetaHits, cMetaMisses)
	v["cache.evictions_per_kop"] = 1000 * c(cEvictions) / ops
	v["cache.writebacks_per_kop"] = 1000 * c(cWriteBacks) / ops
	v["cache.shadow_writes_per_kop"] = 1000 * c(cShadowWrites) / ops
	v["registry.live_entries"] = float64(live1)
	v["kernel.steps_per_op"] = c(cSteps) / ops
	v["mmu.prot_toggles_per_op"] = c(cProtToggle) / ops
	v["mmu.tlb_hit_ratio"] = ratio(cTLBHits, cTLBMisses)
	v["mmu.traps"] = c(cTraps)
	v["disk.reads_per_kop"] = 1000 * c(cDiskReads) / ops
	v["disk.writes_per_kop"] = 1000 * c(cDiskWrites) / ops
	v["disk.busy_sim_us_per_op"] = c(cDiskBusyNS) / 1e3 / ops
	if r1.userData > 0 {
		v["disk.bytes_written_per_user_byte"] = c(cDiskBytes) / float64(r1.userData)
	}
	return l, nil
}
