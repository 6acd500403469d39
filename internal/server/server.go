// Package server is riod's serving layer: a sharded concurrent front
// end over the single-threaded Rio simulation.
//
// The deterministic core (rio.System and everything below it) models
// one machine and must stay on one goroutine — that is what makes crash
// campaigns reproducible. This package gets concurrency the way a
// sharded storage service does: S independent rio.System instances,
// each owned by exactly one shard goroutine, with requests routed to a
// shard by path hash and queued on a bounded per-shard channel. The
// shard goroutine drains its queue in batches and runs each request
// against its System sequentially, so no simulation state is ever
// touched from two goroutines; all cross-goroutine traffic is requests
// and responses by value.
//
// Each shard plays the paper's role of one Rio machine: writes are
// durable the moment they are acknowledged, and an administratively
// crashed shard warm-reboots back to exactly the acknowledged state
// while its neighbours keep serving. While a shard is down, requests
// for it fail fast with wire.StatusAgain — the EAGAIN discipline —
// rather than queueing behind an outage.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"rio"
	"rio/internal/fs"
	"rio/internal/sim"
	"rio/internal/txn"
	"rio/internal/wire"
)

// Config sizes a server. The zero value of any field picks the default.
type Config struct {
	// Shards is the number of independent rio.System instances
	// (default 4). Requests route to a shard by FNV-1a hash of Path.
	Shards int
	// QueueDepth bounds each shard's request queue (default 128). A
	// full queue answers wire.StatusAgain instead of blocking — load
	// shedding, not buffering, is the overload response.
	QueueDepth int
	// Policy, Seed, MemoryMB, DiskMB configure each shard's machine.
	// Shard i boots with seed sim.Mix(Seed, i) via rio.NewShards.
	Policy   rio.Policy
	Seed     uint64
	MemoryMB int
	DiskMB   int

	// IdleTimeout drops a TCP connection whose peer sends nothing for
	// this long, or takes longer than this to finish a request frame it
	// has started (default 5m; negative disables). WriteTimeout bounds
	// each response frame write (default 30s; negative disables). Both
	// exist so a hung or partitioned peer cannot pin a serving
	// goroutine forever.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	// DrainTimeout bounds how long Close waits for the drain. Zero
	// means wait forever. When the bound expires — a shard goroutine
	// wedged mid-batch, or a connection that never hangs up — every
	// request still sitting in a shard queue is answered
	// wire.StatusTimeout and Close returns; a wedged goroutine itself
	// cannot be killed and is abandoned.
	DrainTimeout time.Duration

	// testGate, when set, is called by a shard goroutine before each
	// drain cycle. Tests use it to stall a shard and observe queueing
	// behaviour deterministically.
	testGate func(shard int)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = defaultIdleTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = defaultWriteTimeout
	}
	return c
}

// task carries one request through a shard queue, by value: the request
// rides in the task, so a served request costs no heap object of its own.
// The response channel always has room for this task's reply (Do's
// one-shot channel, or a connection's reply channel under its in-flight
// tokens), so the shard goroutine never blocks on a reply. wantFrame asks
// for the zero-copy read path: an OpRead answered as a serialized pooled
// wire frame. frame is the pooled request frame req.Data aliases, if any;
// serve releases it.
type task struct {
	req       wire.Request
	frame     []byte
	resp      chan reply
	enq       time.Time
	wantFrame bool
}

// shard owns one rio.System. Only the shard goroutine touches sys,
// down, and the transaction state; mu guards the metrics fields read by
// Metrics().
type shard struct {
	id  int
	sys *rio.System
	ch  chan task

	// txns holds the shard's open (staged, uncommitted) transactions,
	// keyed by the handle's low 32 bits; txnSeq mints handles. Staging
	// is volatile server state — a crash discards it, and only a
	// published commit record survives into recovery.
	txns   map[uint32]*openTxn
	txnSeq uint32

	// logDirty is true while the txn log holds a published record that
	// has not been fully applied and erased. Publishing over such a log
	// would discard the record and strand its partial application, so
	// serve rolls it forward first. Shard goroutine only.
	logDirty bool

	// pool is the server's shared frame-buffer pool; results is the
	// shard's reusable serve scratch (shard goroutine only).
	pool    *framePool
	results []done

	mu         sync.Mutex
	down       bool
	ops        uint64
	errors     uint64
	retried    uint64
	rejected   uint64
	bytes      uint64
	batches    uint64
	batchSum   uint64
	maxBatch   int
	depthSum   uint64
	yields     uint64
	crashes    uint64
	warmboots  uint64
	txnCommits uint64
	txnAborts  uint64
	lat        Histogram
}

// done pairs one task with its computed response through serve()'s
// phases. Package-level rather than local to serve so each shard can
// keep a reusable results scratch across batches instead of allocating
// one per drain cycle.
type done struct {
	t       task
	resp    wire.Response
	staged  bool   // resp was answered at stage time
	frame   []byte // pooled wire frame carrying resp's payload, or nil
	dataLen int    // payload bytes inside frame (frame != nil only)
	commit  int    // index into sealed, or -1
}

// openTxn is one in-flight transaction's staged ops. Shard goroutine
// only.
type openTxn struct {
	ops   []txn.Op
	bytes int
}

// Transaction staging limits. A transaction over these answers
// wire.StatusTxnLimit; maxTxnOps stays well under txn.MaxOps so a
// sealed record always encodes.
const (
	maxOpenTxns = 64
	maxTxnOps   = 256
	maxTxnBytes = 4 << 20
)

// Server routes requests to shards. Safe for concurrent use.
type Server struct {
	cfg    Config
	shards []*shard
	pool   framePool // recycled wire-frame buffers (zero-copy read path)

	mu     sync.RWMutex // guards closed and the enqueue-vs-close race
	closed bool
	wg     sync.WaitGroup

	// writev accounting, fed by the TCP writers: how many response
	// frames each flush coalesced into one vectored write.
	wvMu     sync.Mutex
	wvCalls  uint64
	wvFrames uint64
	wvDist   [6]uint64 // 1, 2, 3-4, 5-8, 9-16, 17+ frames per writev
}

// recordWritev notes one vectored write that flushed frames response
// frames.
func (s *Server) recordWritev(frames int) {
	bucket := 0
	switch {
	case frames <= 1:
	case frames == 2:
		bucket = 1
	case frames <= 4:
		bucket = 2
	case frames <= 8:
		bucket = 3
	case frames <= 16:
		bucket = 4
	default:
		bucket = 5
	}
	s.wvMu.Lock()
	s.wvCalls++
	s.wvFrames += uint64(frames)
	s.wvDist[bucket]++
	s.wvMu.Unlock()
}

// New boots cfg.Shards independent machines and starts their shard
// goroutines. Call Close to drain and stop.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	systems, err := rio.NewShards(cfg.Shards, rio.Config{
		Policy:   cfg.Policy,
		Seed:     cfg.Seed,
		MemoryMB: cfg.MemoryMB,
		DiskMB:   cfg.DiskMB,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg}
	s.shards = make([]*shard, cfg.Shards)
	for i, sys := range systems {
		sh := &shard{id: i, sys: sys, ch: make(chan task, cfg.QueueDepth), pool: &s.pool}
		s.shards[i] = sh
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sh.run(cfg)
		}()
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// ShardOf returns the shard a path routes to among shards: FNV-1a 64 of
// the path, reduced mod the shard count. The hash is stable across
// processes and versions — campaign seeds and golden transcripts depend
// on routing never drifting — and the fleet routes with this same
// function, so the two layers cannot disagree.
func ShardOf(path string, shards int) int {
	return int(sim.FNV1a64(path) % uint64(shards))
}

// ShardOf returns the shard of this server a path routes to.
func (s *Server) ShardOf(path string) int { return ShardOf(path, len(s.shards)) }

// Do submits one request and blocks until its response. It never
// returns nil. Overload and outages surface as typed statuses:
// wire.StatusAgain (retry with backoff) when the target shard's queue
// is full or the shard is down, wire.StatusClosed once the server is
// draining or stopped.
func (s *Server) Do(req *wire.Request) *wire.Response {
	r := s.do(req, false)
	return &r.resp
}

// Validate bounds req's variable-length fields and rewrites both paths to
// the one spelling the fs resolves them as, refusing anything under the
// caller's reserved metadata prefix. It returns the refusal's message
// (the status is always wire.StatusInvalid), "" for a request that may go
// on. Server.route and the fleet's serveClient both start here, so a
// bound one front door enforces cannot be missing from the other.
//
// Paths are canonicalized before anything keys on their spelling: the fs
// trims outer slashes, so "a", "//a", and "/a/" all reach "/a", and an
// alias would slip past routing, the reservation, or staging if they
// compared the raw spelling (a write to ".txn/log" must not forge the
// commit log). Length is checked first, on what the client actually sent.
func Validate(req *wire.Request, reserved string) string {
	if len(req.Path) > wire.MaxPath || len(req.Path2) > wire.MaxPath {
		return "path too long"
	}
	if len(req.Data) > wire.MaxData {
		return "data too large"
	}
	for _, p := range [...]*string{&req.Path, &req.Path2} {
		if *p == "" {
			continue
		}
		canon, ok := txn.CanonicalPath(*p)
		if !ok {
			return fmt.Sprintf("malformed path %q", *p)
		}
		if strings.HasPrefix(canon, reserved) && (len(canon) == len(reserved) || canon[len(reserved)] == '/') {
			return reserved + " is reserved"
		}
		*p = canon
	}
	if req.Op.TwoPaths() && (req.Path == "" || req.Path2 == "") {
		return fmt.Sprintf("%v needs two paths", req.Op)
	}
	return ""
}

// route validates the request and picks its shard. Client ops are
// refused under txn.Dir, which is what lets the group publish reorder
// freely against the rest of its batch: no client request can observe or
// disturb the log file.
func (s *Server) route(req *wire.Request) (*shard, *wire.Response) {
	failWith := func(st wire.Status, msg string) (*shard, *wire.Response) {
		return nil, &wire.Response{ID: req.ID, Status: st, Msg: msg}
	}
	fail := func(msg string) (*shard, *wire.Response) {
		return failWith(wire.StatusInvalid, msg)
	}
	op := req.Op
	if !op.Valid() {
		return fail(fmt.Sprintf("unknown op %d", uint8(op)))
	}
	if msg := Validate(req, txn.Dir); msg != "" {
		return fail(msg)
	}
	switch {
	case op.Admin():
		if req.Shard < 0 || int(req.Shard) >= len(s.shards) {
			return fail(fmt.Sprintf("admin op %v: shard %d out of range [0,%d)",
				op, req.Shard, len(s.shards)))
		}
		return s.shards[req.Shard], nil
	case op == wire.OpSync && req.Path == "" && req.Txn == 0:
		// Sync with a path routes like a data op. With an empty path it
		// targets Request.Shard (clients wanting every shard issue one
		// per shard), defaulting to shard 0.
		if req.Shard >= 0 && int(req.Shard) < len(s.shards) {
			return s.shards[req.Shard], nil
		}
		return s.shards[0], nil
	case op == wire.OpTxnBegin:
		if req.Txn != 0 {
			return fail("txn-begin inside a transaction")
		}
		if req.Path == "" {
			return fail("txn-begin needs a path (it pins the transaction's shard)")
		}
	case op.TxnControl(): // commit, abort
		if req.Txn == 0 {
			return fail(fmt.Sprintf("%v needs a transaction handle", op))
		}
	case req.Path == "":
		return fail(fmt.Sprintf("%v needs a path", op))
	case op.TwoPaths() && s.ShardOf(req.Path) != s.ShardOf(req.Path2):
		// Typed so clients and tests can tell "unsupported cross-shard
		// op" from a real failure — the seam a future two-phase
		// distributed mv plugs into, and the same status transactions
		// use for a staged op whose path lives off the txn's shard.
		return failWith(wire.StatusCrossShard, fmt.Sprintf(
			"%v across shards (%d -> %d) is not supported",
			op, s.ShardOf(req.Path), s.ShardOf(req.Path2)))
	}
	if req.Txn == 0 {
		return s.shards[s.ShardOf(req.Path)], nil
	}
	// A transaction lives on one shard: the handle's high 32 bits name
	// it, and every staged path must hash there too — the commit record
	// is published to that shard's log and must be appliable entirely
	// within it.
	owner := int(req.Txn >> 32)
	switch {
	case owner >= len(s.shards):
		return fail(fmt.Sprintf("txn handle names shard %d, out of range [0,%d)",
			owner, len(s.shards)))
	case op.TxnControl():
	case !op.Stageable():
		return fail(fmt.Sprintf("%v cannot run inside a transaction", op))
	case s.ShardOf(req.Path) != owner:
		return failWith(wire.StatusCrossShard, fmt.Sprintf(
			"path routes to shard %d but the transaction lives on shard %d",
			s.ShardOf(req.Path), owner))
	}
	return s.shards[owner], nil
}

// Close drains and stops the server: new requests are refused with
// wire.StatusClosed, every already-queued request is answered, and all
// shard goroutines exit before Close returns. Idempotent. With
// Config.DrainTimeout set, the wait is bounded: if a shard queue never
// empties (a goroutine wedged in the simulator, a test gate that never
// opens), the remaining queued requests are failed with
// wire.StatusTimeout instead of hanging shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.waitDrain()
		return
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.mu.Unlock()
	s.waitDrain()
}

// waitDrain waits for the shard goroutines (and any serving
// connections) to finish, bounded by DrainTimeout when set. On timeout
// it answers everything still queued with StatusTimeout — each task is
// received exactly once, either by its shard goroutine or here, so no
// request is ever double-answered.
func (s *Server) waitDrain() {
	if s.cfg.DrainTimeout <= 0 {
		s.wg.Wait()
		return
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		for _, sh := range s.shards {
			for {
				t, ok := <-sh.ch // closed by Close; never blocks once empty
				if !ok {
					break
				}
				t.resp <- reply{resp: wire.Response{ID: t.req.ID, Status: wire.StatusTimeout,
					Msg: fmt.Sprintf("shard %d drain timed out after %v; request unserved", sh.id, s.cfg.DrainTimeout)}}
				s.pool.putFrameBuf(t.frame)
			}
		}
	}
}

// Metrics snapshots per-shard and aggregate counters.
func (s *Server) Metrics() Metrics {
	var m Metrics
	var merged Histogram
	var batches, batchSum uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		row := ShardMetrics{
			Shard: sh.id, Ops: sh.ops, Errors: sh.errors, Retried: sh.retried,
			Rejected: sh.rejected, Bytes: sh.bytes, Batches: sh.batches,
			MaxBatch: sh.maxBatch, QueueLen: len(sh.ch), Yields: sh.yields, Down: sh.down,
			Crashes: sh.crashes, Warmboots: sh.warmboots,
			TxnCommits: sh.txnCommits, TxnAborts: sh.txnAborts,
			P50us: sh.lat.Quantile(0.50), P95us: sh.lat.Quantile(0.95),
			P99us: sh.lat.Quantile(0.99), LatOverflow: sh.lat.Overflow(),
		}
		if sh.batches > 0 {
			row.AvgBatch = float64(sh.batchSum) / float64(sh.batches)
			row.AvgQueue = float64(sh.depthSum) / float64(sh.batches)
		}
		batches += sh.batches
		batchSum += sh.batchSum
		merged.Merge(&sh.lat)
		sh.mu.Unlock()
		m.Shards = append(m.Shards, row)
		m.Ops += row.Ops
		m.Bytes += row.Bytes
	}
	if batches > 0 {
		m.AvgBatch = float64(batchSum) / float64(batches)
	}
	m.P50us = merged.Quantile(0.50)
	m.P95us = merged.Quantile(0.95)
	m.P99us = merged.Quantile(0.99)
	s.wvMu.Lock()
	if s.wvCalls > 0 {
		m.Writev = &WritevMetrics{Calls: s.wvCalls, Frames: s.wvFrames,
			AvgFrames: float64(s.wvFrames) / float64(s.wvCalls), Dist: s.wvDist}
	}
	s.wvMu.Unlock()
	return m
}

// batchLimit bounds how many queued requests one drain cycle hands the
// shard goroutine.
const batchLimit = 32

// run is the shard goroutine: drain a batch, serve it, repeat, until
// the channel closes — then serve what remains and exit. The batch
// size and the queue depth observed at each wakeup are recorded so the
// metrics show how much coalescing the queue actually achieves under
// load.
//
// The drain is adaptive on that depth. A wakeup that finds more work
// already queued is mid-burst: one scheduler pass before draining lets
// the producers racing this wakeup land too, so the burst is served as
// a single batch — one group commit, one metrics pass — instead of K
// park/unpark handoffs. A wakeup that finds the queue empty is a lone
// request from a caller who is (transitively) blocked on the answer;
// serving it immediately is strictly better than yielding on the off
// chance a second request materializes.
func (sh *shard) run(cfg Config) {
	batch := make([]task, 0, batchLimit)
	for {
		if cfg.testGate != nil {
			cfg.testGate(sh.id)
		}
		t, ok := <-sh.ch
		if !ok {
			return
		}
		depth := len(sh.ch)
		yielded := false
		if depth > 0 && depth < batchLimit {
			runtime.Gosched()
			yielded = true
		}
		sh.mu.Lock()
		sh.depthSum += uint64(depth)
		if yielded {
			sh.yields++
		}
		sh.mu.Unlock()
		batch = append(batch[:0], t)
	drain:
		for len(batch) < batchLimit {
			select {
			case t, ok := <-sh.ch:
				if !ok {
					// A receive only reports closed once the buffer is
					// empty, so this batch is the last of the work:
					// answer it and exit — Close promises a drain.
					sh.serve(batch)
					return
				}
				batch = append(batch, t)
			default:
				break drain
			}
		}
		sh.serve(batch)
	}
}

// serve answers one drained batch sequentially on the shard's System,
// with transactional group commit wrapped around it: every commit
// sealed in this batch is published to the shard's txn log in one
// write (Publish), each record is then applied in its task-order slot
// (Apply), the log is erased once every published record has fully
// applied (Erase), and only then are responses delivered (ackCommit).
// That order is the whole crash-safety argument — a commit acked
// before its record was durable would be a torn-commit window — and
// the commitorder analyzer (internal/lint) checks it in this body:
// applyCommit reaches Apply and no other verb, so its call is the apply;
// Recover and handle reach Apply and Erase — a roll-forward, checked
// in their own bodies — and count for nothing here.
func (sh *shard) serve(batch []task) {
	results := sh.results[:0]
	var sealed []txn.Record

	// Stage: transaction control ops mutate only shard-local staging
	// state; a commit seals its record for the group publish. The group
	// is budgeted against txn.MaxPublishBytes — the log is one fs file —
	// so a commit that would overflow it is deferred (StatusAgain, the
	// transaction stays open) rather than poisoning the whole publish.
	groupBytes := 0
	for _, t := range batch {
		d := done{t: t, commit: -1, dataLen: -1}
		if isTxnOp(&t.req) {
			var rec *txn.Record
			d.resp, rec = sh.stage(&t.req, groupBytes)
			if d.staged = rec == nil; !d.staged {
				groupBytes += rec.EncodedSize()
				d.commit = len(sealed)
				sealed = append(sealed, *rec)
			}
		}
		results = append(results, d)
	}

	// Publish: one group write makes every commit in the batch durable
	// — under Rio, the instant it lands in protected cache memory.
	// Publish replaces the log wholesale, so a record left behind by an
	// earlier batch whose apply failed short of a crash must be rolled
	// forward first; dropping it unapplied would strand a partial state.
	var pubErr error
	published := false
	if len(sealed) > 0 && sh.logDirty && !sh.isDown() {
		if _, err := sh.txnLog().Recover(); err != nil {
			pubErr = err
			sh.crashed()
		} else {
			sh.logDirty = false
		}
	}
	if len(sealed) > 0 && pubErr == nil {
		if pubErr = sh.txnLog().Publish(sealed); pubErr == nil {
			published = true
			sh.logDirty = true
		} else {
			sh.crashed()
		}
	}

	// Apply: walk the batch in task order; commits roll their records
	// forward, everything else takes the ordinary handle path. A record
	// is resolved if it applied, or if it failed terminally — the tree's
	// shape rejected it before anything mutated, so it must not survive
	// in the log to be replayed as a commit its client was told failed.
	resolved := 0
	for i := range results {
		d := &results[i]
		switch {
		case d.staged: // answered at stage time
		case d.commit >= 0:
			var outcome commitOutcome
			d.resp, outcome = sh.applyCommit(&d.t.req, &sealed[d.commit], published, pubErr)
			if outcome != commitPending {
				resolved++
			}
		default:
			d.frame, d.resp, d.dataLen = sh.handle(&d.t.req, d.t.wantFrame)
		}
	}

	// Erase: drop the log only when every published record has resolved
	// — fully applied, or terminally refused; anything short of that
	// leaves it in protected memory for warm reboot to roll forward.
	if published && resolved == len(sealed) && !sh.isDown() {
		if err := sh.txnLog().Erase(); err == nil {
			sh.logDirty = false
		} else {
			sh.crashed()
		}
	}

	now := time.Now()
	sh.mu.Lock()
	sh.batches++
	sh.batchSum += uint64(len(batch))
	if len(batch) > sh.maxBatch {
		sh.maxBatch = len(batch)
	}
	for i := range results {
		d := &results[i]
		sh.ops++
		// A read's payload is in resp.Data or in the frame, never both.
		sh.bytes += uint64(len(d.t.req.Data) + max(len(d.resp.Data), d.dataLen))
		switch {
		case d.resp.Status == wire.StatusOK:
			switch d.t.req.Op {
			case wire.OpTxnCommit:
				sh.txnCommits++
			case wire.OpTxnAbort:
				sh.txnAborts++
			}
		case d.resp.Status.Retryable():
			sh.retried++
		default:
			sh.errors++
		}
		sh.lat.Observe(now.Sub(d.t.enq))
	}
	sh.mu.Unlock()
	for i := range results {
		d := &results[i]
		if d.commit >= 0 {
			sh.ackCommit(&d.t, d.resp)
		} else {
			d.t.resp <- reply{resp: d.resp, frame: d.frame}
		}
	}
	// Every payload is in simulated memory (or its transaction) and
	// counted: the request frames go back to the pool. Clearing the
	// scratch drops the pointers to them and to the reply frames.
	for i := range results {
		sh.pool.putFrameBuf(results[i].t.frame)
		results[i] = done{}
	}
	sh.results = results
}

// ackCommit delivers a commit's response to its waiting client. It
// exists as a named seam for the commitorder analyzer: in any function
// body that touches commit records, every ackCommit must come after the
// first Publish and the first Apply (direct, or through a helper that
// reaches only that verb) — never ack-before-publish.
func (sh *shard) ackCommit(t *task, resp wire.Response) {
	t.resp <- reply{resp: resp}
}

// isTxnOp reports whether req is handled by the staging path rather
// than handle(): the three transaction control ops, plus any data op
// carrying a transaction handle.
func isTxnOp(req *wire.Request) bool { return req.Op.TxnControl() || req.Txn != 0 }

// txnLog returns the shard's commit log. Fetched per use rather than
// cached: a reboot can rebuild the machine's FS, and a cached handle
// would go stale.
func (sh *shard) txnLog() *txn.Log { return txn.NewLog(sh.sys.Machine().FS) }

// stage executes one transaction op's staging phase on the shard
// goroutine. It answers begin/abort/staged-op immediately (they touch
// only volatile server state) and returns a sealed record — with a zero
// response — for a non-empty commit, which serve() publishes and
// applies in its group-commit phases. groupBytes is the encoded size of
// records already sealed for this batch: a commit that would push the
// group past txn.MaxPublishBytes is deferred with wire.StatusAgain and
// its transaction stays open for a later, smaller batch.
func (sh *shard) stage(req *wire.Request, groupBytes int) (wire.Response, *txn.Record) {
	ok := func() wire.Response { return wire.Response{ID: req.ID, Status: wire.StatusOK} }
	fail := func(st wire.Status, msg string) (wire.Response, *txn.Record) {
		return wire.Response{ID: req.ID, Status: st, Msg: msg}, nil
	}
	if sh.isDown() {
		return sh.refuseDown(req), nil
	}
	if req.Op == wire.OpTxnBegin {
		if len(sh.txns) >= maxOpenTxns {
			return fail(wire.StatusTxnLimit,
				fmt.Sprintf("shard %d has %d transactions open", sh.id, len(sh.txns)))
		}
		if sh.txns == nil {
			sh.txns = make(map[uint32]*openTxn)
		}
		// Mint a handle, skipping zero (the "no transaction" value on
		// shard 0) and any sequence still open after wraparound.
		for {
			sh.txnSeq++
			if sh.txnSeq == 0 {
				sh.txnSeq = 1
			}
			if sh.txns[sh.txnSeq] == nil {
				break
			}
		}
		sh.txns[sh.txnSeq] = &openTxn{}
		r := ok()
		r.Size = int64(uint64(sh.id)<<32 | uint64(sh.txnSeq))
		return r, nil
	}

	// Everything else names an open transaction.
	tx, live := sh.txns[uint32(req.Txn)]
	if !live {
		return fail(wire.StatusNoTxn,
			fmt.Sprintf("no open transaction %d on shard %d", req.Txn, sh.id))
	}
	switch req.Op {
	case wire.OpTxnAbort:
		delete(sh.txns, uint32(req.Txn))
		return ok(), nil

	case wire.OpTxnCommit:
		if len(tx.ops) == 0 {
			delete(sh.txns, uint32(req.Txn))
			return ok(), nil // nothing staged: commit is a no-op
		}
		rec := &txn.Record{ID: req.Txn, Ops: tx.ops}
		if int64(groupBytes+rec.EncodedSize()) > txn.MaxPublishBytes {
			// The log is one fs file; this batch's group already fills
			// it. Defer: the transaction stays open and the client
			// retries the commit against a later batch.
			return fail(wire.StatusAgain, fmt.Sprintf(
				"shard %d txn log group full (%d bytes staged); retry commit", sh.id, groupBytes))
		}
		delete(sh.txns, uint32(req.Txn))
		return wire.Response{}, rec
	}

	// A staged data op: route let only a stageable op carry a handle, and
	// stagedKind names the txn.Op it becomes.
	op := txn.Op{Kind: stagedKind[req.Op], Path: req.Path}
	if req.Op.TwoPaths() {
		op.Path2 = req.Path2
	}
	if req.Op == wire.OpWrite {
		if req.Offset < 0 {
			return fail(wire.StatusInvalid,
				"append writes are not transactional (the final offset is unknowable at stage time)")
		}
		op.Off, op.Data = req.Offset, req.Data
	}
	if len(tx.ops) >= maxTxnOps || tx.bytes+len(op.Data) > maxTxnBytes {
		return fail(wire.StatusTxnLimit, fmt.Sprintf(
			"transaction %d over limits (%d ops, %d bytes staged)", req.Txn, len(tx.ops), tx.bytes))
	}
	// The one place a payload outlives serve: tx.ops holds it until
	// commit, and req.Data may alias a pooled frame released before then.
	op.Data = bytes.Clone(op.Data)
	tx.ops = append(tx.ops, op)
	tx.bytes += len(op.Data)
	return ok(), nil
}

// stagedKind maps each stageable wire op (wire.Op.Stageable) onto the
// txn.Op kind it is staged as.
var stagedKind = [...]txn.OpKind{
	wire.OpWrite: txn.OpWrite, wire.OpMkdir: txn.OpMkdir,
	wire.OpRm: txn.OpRemove, wire.OpMv: txn.OpRename,
}

// commitOutcome is applyCommit's verdict on one published record, which
// decides whether the group erase may run: a pending record must stay in
// the log for warm reboot to roll forward; an applied or terminal one is
// resolved and must not be replayed.
type commitOutcome uint8

const (
	commitPending  commitOutcome = iota // not applied; log keeps it for recovery
	commitApplied                       // fully applied
	commitTerminal                      // refused deterministically; client told, record dropped
)

// applyCommit rolls one published commit record forward on the shard's
// System. A record that was published but could not be applied because
// the shard went down — a crash earlier in the batch, or mid-apply —
// stays in the log (serve skips the erase), so warm reboot completes
// it: the client may see a retryable ambiguity, never a torn state. A
// record the tree's shape *deterministically* refuses (Apply's precheck
// fails, mutating nothing) is terminal: the client gets the typed error
// now, and the record must leave the log — retrying it forever would
// wedge the shard, and replaying it after the obstruction clears would
// apply a commit the client was told failed.
func (sh *shard) applyCommit(req *wire.Request, rec *txn.Record, published bool, pubErr error) (wire.Response, commitOutcome) {
	fail := func(st wire.Status, msg string) wire.Response {
		return wire.Response{ID: req.ID, Status: st, Msg: msg}
	}
	if !published {
		if pubErr == nil {
			return fail(wire.StatusAgain, fmt.Sprintf("shard %d down; commit not published", sh.id)), commitPending
		}
		return fail(wire.StatusIO, "txn publish failed: "+pubErr.Error()), commitPending
	}
	if sh.isDown() {
		// A crash landed between the publish and this record's slot (an
		// admin crash earlier in the batch). The record is durable in
		// protected memory: warm reboot rolls it forward.
		return fail(wire.StatusAgain, fmt.Sprintf(
			"shard %d down; commit %d rolls forward at warmboot", sh.id, rec.ID)), commitPending
	}
	err := sh.txnLog().Apply(rec)
	if crashed, why := sh.crashed(); crashed {
		return fail(wire.StatusAgain, fmt.Sprintf(
			"shard %d crashed applying commit: %s", sh.id, why)), commitPending
	}
	if err != nil {
		var ce *txn.CheckError
		if errors.As(err, &ce) {
			// Refused before anything mutated: atomic failure, typed
			// status, record resolved.
			st, msg := statusOf(err)
			return fail(st, msg), commitTerminal
		}
		if st, msg := statusOf(err); st != wire.StatusIO && st != wire.StatusNoSpace && st != wire.StatusReadOnly {
			// A shape-of-the-tree error precheck did not foresee. Still
			// terminal — it would recur on every replay — but something
			// may have mutated, so keep the record as evidence instead
			// of silently dropping it.
			if qerr := sh.txnLog().Quarantine(rec); qerr != nil {
				return fail(wire.StatusIO, "txn apply failed: "+msg+"; quarantine failed: "+qerr.Error()), commitPending
			}
			return fail(st, msg), commitTerminal
		}
		// Resource pressure or a degraded mount: the record stays in
		// the log and recovery will retry it, so the outcome is
		// ambiguous — answer retryable, never a definitive failure
		// that a later roll-forward could contradict.
		_, msg := statusOf(err)
		return fail(wire.StatusAgain, fmt.Sprintf(
			"shard %d commit %d deferred to recovery: %s", sh.id, rec.ID, msg)), commitPending
	}
	return wire.Response{ID: req.ID, Status: wire.StatusOK, Size: int64(len(rec.Ops))}, commitApplied
}

// setDown flips the shard's outage flag (shard goroutine only).
func (sh *shard) setDown(v bool) {
	sh.mu.Lock()
	sh.down = v
	sh.mu.Unlock()
}

func (sh *shard) isDown() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.down
}

// crashed reports whether the shard's kernel has panicked, and why. A
// crash takes the shard down — later requests get the retryable status
// instead of nonsense — and its volatile staged transactions with it.
func (sh *shard) crashed() (crashed bool, why string) {
	if crashed, why = sh.sys.Crashed(); crashed {
		sh.setDown(true)
		sh.txns = nil
	}
	return crashed, why
}

// refuseDown is the answer to anything asked of a shard that is down.
func (sh *shard) refuseDown(req *wire.Request) wire.Response {
	return wire.Response{ID: req.ID, Status: wire.StatusAgain,
		Msg: fmt.Sprintf("shard %d down (crashed; awaiting warmboot)", sh.id)}
}

// handle executes one request against the shard's System: the two admin
// ops here, everything else through exec. wantFrame selects where a read
// lands — a pooled wire frame (returned with its payload length) instead
// of resp.Data — and nothing else. Runs only on the shard goroutine.
func (sh *shard) handle(req *wire.Request, wantFrame bool) ([]byte, wire.Response, int) {
	fail := func(st wire.Status, msg string) ([]byte, wire.Response, int) {
		return nil, wire.Response{ID: req.ID, Status: st, Msg: msg}, -1
	}

	switch req.Op {
	case wire.OpCrash:
		if sh.isDown() {
			return fail(wire.StatusInvalid, fmt.Sprintf("shard %d already down", sh.id))
		}
		sh.sys.Crash("riod: administrative crash op")
		sh.crashed()
		sh.mu.Lock()
		sh.crashes++
		sh.mu.Unlock()
		return nil, wire.Response{ID: req.ID, Status: wire.StatusOK}, -1

	case wire.OpWarmboot:
		// Legal on a healthy shard too: Rio supports a clean
		// administrative warm reboot.
		rep, err := sh.sys.WarmReboot()
		if err != nil {
			// Volume lost; the shard stays down rather than serve a
			// filesystem it cannot certify.
			sh.setDown(true)
			return fail(wire.StatusIO, "warm reboot failed: "+err.Error())
		}
		// Roll published-but-unerased transactions forward before taking
		// traffic: committed records complete, records the tree's shape
		// deterministically refuses are quarantined (they were never
		// acked, and retrying them forever would wedge the shard), torn
		// tails are discarded — no partially applied transaction is ever
		// visible and no single record can poison warmboot.
		if _, err := sh.txnLog().Recover(); err != nil {
			sh.setDown(true)
			return fail(wire.StatusIO, "txn roll-forward failed: "+err.Error())
		}
		sh.logDirty = false
		sh.setDown(false)
		sh.mu.Lock()
		sh.warmboots++
		sh.mu.Unlock()
		return nil, wire.Response{ID: req.ID, Status: wire.StatusOK,
			Size: int64(rep.MetaRestored + rep.DataRestored)}, -1
	}

	if sh.isDown() {
		return nil, sh.refuseDown(req), -1
	}
	var dst []byte
	if wantFrame && req.Op == wire.OpRead {
		dst = sh.pool.get()
	}
	frame, resp, dataLen := exec(sh.sys, req, dst)
	// A shard that crashed organically mid-request (it cannot inject
	// its own faults, but belt and braces) answers retryable, whatever
	// exec made of the wreckage.
	if crashed, why := sh.crashed(); crashed {
		resp, dataLen = wire.Response{ID: req.ID, Status: wire.StatusAgain,
			Msg: fmt.Sprintf("shard %d crashed serving request: %s", sh.id, why)}, -1
	}
	if dataLen < 0 {
		sh.pool.putFrameBuf(frame)
		frame = nil
	}
	return frame, resp, dataLen
}

// Exec executes one data op against sys and returns its response. It is
// the single op-to-filesystem translation both serving layers share: a
// Server's shard goroutine runs it for client requests, and a fleet
// replica calls it both when a primary serves a request and when a
// backup applies a replicated batch — the same function on the same op
// sequence is what makes a backup byte-identical to its primary. The
// caller owns the single-goroutine discipline for sys.
func Exec(sys *rio.System, req *wire.Request) *wire.Response {
	_, resp, _ := exec(sys, req, nil)
	return &resp
}

// ExecReadFrame is Exec with a read's other destination: instead of
// allocating a Data slice for the transport to serialize into yet another
// buffer, the response's data region is reserved inside dst
// (wire.ReserveResponseFrame) and cache frames are read straight into it
// — one copy, frame to wire. On success buf holds the complete response
// frame and dataLen is the payload size (>= 0). On any failure, and for
// any op but a read, dataLen is -1, resp is the whole answer and buf holds
// no frame (the caller should re-pool it).
func ExecReadFrame(sys *rio.System, req *wire.Request, dst []byte) (buf []byte, resp *wire.Response, dataLen int) {
	if dst == nil {
		dst = []byte{} // exec reads nil as "no frame wanted"
	}
	buf, r, dataLen := exec(sys, req, dst)
	return buf, &r, dataLen
}

// exec is the one body behind Exec and ExecReadFrame. dst selects a
// read's destination and nothing else — nil: a fresh resp.Data; non-nil:
// a response frame built in dst, returned with its payload length.
// Whenever that length is -1, the buffer returned is dst emptied. The
// response is a value: a shard hands it to its reply channel as one, and
// only the exported wrappers put it on the heap.
func exec(sys *rio.System, req *wire.Request, dst []byte) ([]byte, wire.Response, int) {
	resp := wire.Response{ID: req.ID}
	fail := func(err error) ([]byte, wire.Response, int) {
		resp.Status, resp.Msg = statusOf(err)
		return dst[:0], resp, -1
	}

	switch req.Op {
	case wire.OpOpen:
		if _, err := sys.Stat(req.Path); err == nil {
			break
		} else if !rio.IsNotExist(err) {
			return fail(err)
		}
		f, err := execCreate(sys, req.Path)
		if err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}

	case wire.OpRead:
		// Lookup+ReadInoAt instead of Stat+Open+ReadAt+Close: one path
		// resolution instead of three, no handle allocation, and the
		// read copies cache frames directly into p (Cache.ReadDirect)
		// rather than bouncing through the kernel staging area.
		ino, size, isDir, err := sys.Lookup(req.Path)
		if err != nil {
			return fail(err)
		}
		if isDir {
			return fail(rio.ErrIsDir)
		}
		if req.Offset < 0 {
			resp.Status, resp.Msg = wire.StatusInvalid, "negative read offset"
			return dst[:0], resp, -1
		}
		resp.Size = size
		want := int64(req.Len)
		if want == 0 || want > wire.MaxData {
			want = wire.MaxData
		}
		if remain := size - req.Offset; remain < want {
			want = max(remain, 0)
		}
		var p []byte
		if dst != nil {
			var off int
			dst, off = wire.ReserveResponseFrame(dst[:0], &resp, int(want))
			p = dst[off : off+int(want)]
		} else if want > 0 {
			resp.Data = make([]byte, want)
			p = resp.Data
		}
		if want > 0 {
			n, err := sys.ReadInoAt(ino, p, req.Offset)
			if err == nil && int64(n) != want {
				// The caller is sys's only writer, so the size cannot have
				// moved between Lookup and the read; a short read here
				// means the simulation refused mid-loop.
				err = fmt.Errorf("short read: %d of %d bytes", n, want)
			}
			if err != nil {
				resp.Data = nil // the destination holds partial bytes: answer without it
				return fail(err)
			}
		}
		if dst != nil {
			return dst, resp, int(want)
		}

	case wire.OpWrite:
		ino, size, isDir, err := sys.Lookup(req.Path)
		off := req.Offset
		if off < 0 {
			off = size // append; zero for a file about to be created
		}
		switch {
		case err == nil:
			// Hot path: the file exists, so the write needs no handle —
			// Lookup resolved the inode and (for appends) the size in
			// one walk.
			if isDir {
				return fail(rio.ErrIsDir)
			}
			n, werr := sys.WriteInoAt(ino, req.Data, off)
			resp.Size = int64(n)
			if werr != nil {
				return fail(werr)
			}
		case rio.IsNotExist(err):
			f, err := execCreate(sys, req.Path)
			if err != nil {
				return fail(err)
			}
			n, werr := f.WriteAt(req.Data, off)
			cerr := f.Close()
			resp.Size = int64(n)
			if werr != nil {
				return fail(werr)
			}
			if cerr != nil {
				return fail(cerr)
			}
		default:
			return fail(err)
		}

	case wire.OpMkdir:
		if err := MkdirAll(sys, req.Path); err != nil {
			return fail(err)
		}

	case wire.OpRm:
		if err := sys.Remove(req.Path); err != nil {
			return fail(err)
		}

	case wire.OpMv:
		if err := sys.Rename(req.Path, req.Path2); err != nil {
			return fail(err)
		}

	case wire.OpStat:
		st, err := sys.Stat(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Size = st.Size
		if st.IsDir {
			resp.Flags |= wire.FlagDir
		}
		if st.IsSymlink {
			resp.Flags |= wire.FlagSymlink
		}

	case wire.OpSync:
		sys.Sync()

	default:
		resp.Status = wire.StatusInvalid
		resp.Msg = fmt.Sprintf("op %v not servable", req.Op)
	}
	return dst[:0], resp, -1
}

// execCreate makes path, materialising missing parent directories
// first. Each shard is its own filesystem, so a directory tree exists
// per-shard: creating /smoke/f01 on shard 3 creates shard 3's /smoke.
// Open and write therefore have mkdir-p semantics — a path-keyed store
// where a key's parents are namespace bookkeeping, not client state.
func execCreate(sys *rio.System, path string) (*rio.File, error) {
	f, err := sys.Create(path)
	if err != rio.ErrNotFound {
		return f, err
	}
	if err := MkdirAll(sys, fs.ParentDir(path)); err != nil {
		return nil, err
	}
	return sys.Create(path)
}

// MkdirAll creates path and any missing parents (mkdir -p).
func MkdirAll(sys *rio.System, path string) error { return sys.Machine().FS.MkdirAll(path) }

// statusOf maps the public rio error codes onto wire statuses. It
// unwraps, because txn apply errors arrive wrapped with their record
// and op context.
func statusOf(err error) (wire.Status, string) {
	switch {
	case err == nil:
		return wire.StatusOK, ""
	case errors.Is(err, rio.ErrNotFound):
		return wire.StatusNotFound, err.Error()
	case errors.Is(err, rio.ErrExists):
		return wire.StatusExists, err.Error()
	case errors.Is(err, rio.ErrIsDir):
		return wire.StatusIsDir, err.Error()
	case errors.Is(err, rio.ErrNotDir):
		return wire.StatusNotDir, err.Error()
	case errors.Is(err, rio.ErrNotEmpty):
		return wire.StatusNotEmpty, err.Error()
	case errors.Is(err, rio.ErrNoSpace), errors.Is(err, rio.ErrNoInodes):
		return wire.StatusNoSpace, err.Error()
	case errors.Is(err, rio.ErrReadOnly):
		return wire.StatusReadOnly, err.Error()
	default:
		return wire.StatusIO, err.Error()
	}
}
