package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"rio/internal/sim"
	"rio/internal/wire"
)

// A script is one deterministic request stream plus the checker for its
// replies. Every stream is a pure function of the benchmark seed (drawn
// through sim.Mix), never of timing: the live drivers and the traced
// run's serial replay see the same requests in the same order, and the
// server sees nothing but these requests — not the seed, not the
// workload's name.
type script interface {
	next() op
	// done checks resp against what o must produce and advances any
	// state later requests depend on. False means the op failed.
	done(o *op, resp *wire.Response) bool
}

type opClass uint8

const (
	classRead  opClass = iota // data read, compared byte for byte
	classWrite                // data write
	classMeta                 // namespace or transaction-control op
	classCrash                // admin crash
	classBoot                 // admin warm reboot
	classProbe                // first read after a warm reboot, retried until OK
)

// op is one generated request with what the drivers need to know about it.
type op struct {
	req    wire.Request
	class  opClass
	expect []byte // reads: the bytes the reply must carry
	// solo: nothing else of this stream may be in flight with it (admin
	// ops, and the steps either side of them).
	solo bool
	// bound marks a request the stream may stop in front of; end marks
	// the last request of a pair of crash cycles (one of each D).
	bound, end bool
	tag        int // recover-warm: the cycle's dirty-set size D, else 0
	slot       int // serve-meta: message slot
}

// hashOps is how much of each stream stream_hash covers and the traced
// run replays.
const hashOps = 20000

// streamDigest is FNV-1a over the request fields a generator chooses. The
// transaction handle is left out: the server mints it.
type streamDigest uint64

func (d *streamDigest) absorb(o *op) {
	h := uint64(*d)
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	var hdr [21]byte
	hdr[0] = byte(o.req.Op)
	binary.BigEndian.PutUint32(hdr[1:], uint32(o.req.Shard))
	binary.BigEndian.PutUint64(hdr[5:], uint64(o.req.Offset))
	binary.BigEndian.PutUint32(hdr[13:], o.req.Len)
	binary.BigEndian.PutUint32(hdr[17:], uint32(len(o.req.Data)))
	mix(hdr[:])
	mix([]byte(o.req.Path))
	mix([]byte{0})
	mix([]byte(o.req.Path2))
	if len(o.req.Data) >= stampLen {
		mix(o.req.Data[:stampLen])
	}
	*d = streamDigest(h)
}

// shardOf is the server's routing function (FNV-1a 64 of the path, mod
// the shard count). The generators need it to place keys; newBed checks
// it against Server.ShardOf so a routing change fails loudly instead of
// skewing the workloads.
func shardOf(path string, shards int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return int(h % uint64(shards))
}

// Seed-derivation tags: one independent stream per use.
const (
	tagBody = 1 + iota
	tagConn
	tagMeta
	tagBystander
	tagUnits
)

// stampLen is the (key, version) stamp at each end of a payload.
const stampLen = 8

// kvTable is a set of fixed-size files, each holding a per-key body with
// (key, version) stamped at head and tail. body[k] always holds the last
// version written, which — because no two requests on one key are ever
// in flight together — is exactly what a read of k must return.
type kvTable struct {
	paths []string
	body  [][]byte
	ver   []uint32
}

// newKVTable makes n keys of size bytes whose paths satisfy keep.
func newKVTable(seed uint64, n, size int, keep func(path string) bool) *kvTable {
	t := &kvTable{}
	for i := 0; len(t.paths) < n; i++ {
		p := fmt.Sprintf("/kv/d%02d/k%05d", i%16, i)
		if keep != nil && !keep(p) {
			continue
		}
		b := make([]byte, size)
		sim.NewRand(sim.Mix(seed, tagBody, uint64(i))).Bytes(b)
		t.paths = append(t.paths, p)
		t.body = append(t.body, b)
	}
	t.ver = make([]uint32, n)
	for k := range t.paths {
		t.stamp(k)
	}
	return t
}

// stamp advances key k to its next version.
func (t *kvTable) stamp(k int) {
	t.ver[k]++
	b := t.body[k]
	binary.BigEndian.PutUint32(b[0:], uint32(k))
	binary.BigEndian.PutUint32(b[4:], t.ver[k])
	copy(b[len(b)-stampLen:], b[:stampLen])
}

func (t *kvTable) write(k int) op {
	t.stamp(k)
	return op{class: classWrite,
		req: wire.Request{Op: wire.OpWrite, Shard: -1, Path: t.paths[k], Data: t.body[k]}}
}

func (t *kvTable) read(k int) op {
	return op{class: classRead, expect: t.body[k],
		req: wire.Request{Op: wire.OpRead, Shard: -1, Path: t.paths[k]}}
}

// checkData is done() for plain data ops.
func checkData(o *op, resp *wire.Response) bool {
	if resp.Status != wire.StatusOK {
		return false
	}
	switch o.class {
	case classRead, classProbe:
		return bytes.Equal(resp.Data, o.expect)
	case classWrite:
		return resp.Size == int64(len(o.req.Data))
	}
	return true
}

// seqScript walks keys once, in order: the preload (write every key).
type seqScript struct {
	kv *kvTable
	i  int
}

func (s *seqScript) next() op {
	o := s.kv.write(s.i % len(s.kv.paths))
	s.i++
	return o
}
func (s *seqScript) done(o *op, resp *wire.Response) bool { return checkData(o, resp) }

// listScript plays a fixed list of writes once: serve-meta's preload.
type listScript struct {
	ops []op
	i   int
}

func (s *listScript) next() op {
	o := s.ops[s.i%len(s.ops)]
	s.i++
	return o
}
func (s *listScript) done(o *op, resp *wire.Response) bool { return checkData(o, resp) }

// rwScript is one connection's uniform read/overwrite mix over the keys
// it owns. A key drawn within the last window-1 requests is redrawn, so
// with at most window consecutive requests in flight no key ever has two.
type rwScript struct {
	kv      *kvTable
	keys    []int
	rng     *sim.Rand
	readPct int
	recent  []int
	n       int
}

func newRWScript(kv *kvTable, keys []int, seed uint64, readPct, window int) *rwScript {
	s := &rwScript{kv: kv, keys: keys, rng: sim.NewRand(seed), readPct: readPct,
		recent: make([]int, window-1)}
	for i := range s.recent {
		s.recent[i] = -1
	}
	return s
}

func (s *rwScript) next() op {
	var k int
draw:
	for {
		k = s.keys[s.rng.Intn(len(s.keys))]
		for _, r := range s.recent {
			if r == k {
				continue draw
			}
		}
		break
	}
	if len(s.recent) > 0 {
		s.recent[s.n%len(s.recent)] = k
	}
	s.n++
	var o op
	if s.rng.Intn(100) < s.readPct {
		o = s.kv.read(k)
	} else {
		o = s.kv.write(k)
	}
	o.bound = true
	return o
}

func (s *rwScript) done(o *op, resp *wire.Response) bool { return checkData(o, resp) }

// recoverScript is recover-warm's controller stream: dirty D keys of the
// victim shard, crash it, warm-reboot it, probe until it serves again,
// then read back all D keys. D alternates between dirtySmall and
// dirtyLarge; a pair of cycles is the unit the stream may stop at.
type recoverScript struct {
	kv     *kvTable
	victim int32
	cycle  int
	phase  int
	i      int
}

const (
	dirtySmall = 32
	dirtyLarge = 512
)

func (s *recoverScript) next() op {
	d := dirtySmall
	if s.cycle%2 == 1 {
		d = dirtyLarge
	}
	var o op
	switch s.phase {
	case 0:
		o = s.kv.write(s.i)
		o.bound = s.i == 0 && s.cycle%2 == 0
		if s.i++; s.i == d {
			s.phase = 1
		}
	case 1:
		o = op{class: classCrash, solo: true, req: wire.Request{Op: wire.OpCrash, Shard: s.victim}}
		s.phase = 2
	case 2:
		o = op{class: classBoot, solo: true, req: wire.Request{Op: wire.OpWarmboot, Shard: s.victim}}
		s.phase = 3
	case 3:
		o = s.kv.read(0)
		o.class, o.solo = classProbe, true
		s.phase, s.i = 4, 0
	case 4:
		o = s.kv.read(s.i)
		if s.i++; s.i == d {
			o.end = s.cycle%2 == 1
			s.phase, s.i = 0, 0
			s.cycle++
		}
	}
	o.tag = d
	return o
}

func (s *recoverScript) done(o *op, resp *wire.Response) bool { return checkData(o, resp) }

// metaScript is serve-meta's mailspool churn. metaSlots messages are in
// progress at once and the stream deals their steps round-robin, so
// consecutive requests touch different files (and usually different
// shards). Every sixth request is a stat of a preloaded deep path.
//
// A message is write t-<id> (creating it), mv to m-<id>, stat, read, rm.
// One message in ten wraps the write and the mv in a transaction.
type metaScript struct {
	seed   uint64
	shards int
	// lane of lanes: one script per connection, each with its own
	// message ids, so no two connections ever touch one file.
	lane, lanes uint64
	deep        []string
	slots       [metaSlots]metaSlot
	n           int // requests generated
	turn        int // message steps generated
}

const (
	metaSlots   = 64
	metaMsgSize = 512
	metaDirs    = 16
	metaDeep    = 64
)

type metaSlot struct {
	msgs   uint64 // messages started in this slot
	step   int
	txn    bool
	t, m   string
	body   []byte
	handle uint64 // the open transaction's handle, from txn-begin's reply
}

func newMetaScript(seed uint64, shards, lane, lanes int) *metaScript {
	s := &metaScript{seed: seed, shards: shards, lane: uint64(lane), lanes: uint64(lanes)}
	for i := 0; i < metaDeep; i++ {
		s.deep = append(s.deep, fmt.Sprintf("/deep/s%02d/a/b/c/d/f", i))
	}
	for i := range s.slots {
		b := make([]byte, metaMsgSize)
		sim.NewRand(sim.Mix(seed, tagMeta, s.lane, uint64(i))).Bytes(b)
		s.slots[i].body = b
	}
	return s
}

// preload writes the deep files the stat requests look up.
func (s *metaScript) preload() []op {
	ops := make([]op, len(s.deep))
	for i, p := range s.deep {
		ops[i] = op{class: classWrite,
			req: wire.Request{Op: wire.OpWrite, Shard: -1, Path: p, Data: []byte(p)}}
	}
	return ops
}

// spoolNames returns message id's temporary and final names: one
// directory, and a salt on the final name chosen so that both route to
// one shard (the server refuses a cross-shard mv by design). The salt
// cannot be shared: FNV-1a's low bits after the differing letter never
// meet again over a common suffix.
func (s *metaScript) spoolNames(id uint64) (t, m string) {
	dir := fmt.Sprintf("/spool/d%02d", id%metaDirs)
	t = fmt.Sprintf("%s/t-%d", dir, id)
	for salt := 0; ; salt++ {
		m = fmt.Sprintf("%s/m-%d.%d", dir, id, salt)
		if shardOf(t, s.shards) == shardOf(m, s.shards) {
			return t, m
		}
	}
}

func (s *metaScript) next() op {
	var o op
	if s.n%6 == 5 {
		o = op{class: classMeta, slot: -1,
			req: wire.Request{Op: wire.OpStat, Shard: -1, Path: s.deep[(s.n/6)%len(s.deep)]}}
	} else {
		o = s.step(s.turn % metaSlots)
		s.turn++
	}
	o.bound = true
	s.n++
	return o
}

// step generates slot i's next request.
func (s *metaScript) step(i int) op {
	sl := &s.slots[i]
	if sl.step == 0 {
		id := (sl.msgs*metaSlots+uint64(i))*s.lanes + s.lane
		sl.msgs++
		sl.t, sl.m = s.spoolNames(id)
		sl.txn = sim.Mix(s.seed, tagMeta, id)%10 == 0
		binary.BigEndian.PutUint64(sl.body, id)
		copy(sl.body[metaMsgSize-stampLen:], sl.body[:stampLen])
	}
	steps := plainSteps
	if sl.txn {
		steps = txnSteps
	}
	o := op{class: classMeta, slot: i, req: wire.Request{Shard: -1}}
	var h uint64
	switch steps[sl.step] {
	case stepBegin:
		o.req.Op, o.req.Path = wire.OpTxnBegin, sl.t
	case stepWriteTxn:
		h = sl.handle
		fallthrough
	case stepWrite:
		o.class = classWrite
		o.req.Op, o.req.Path, o.req.Data, o.req.Txn = wire.OpWrite, sl.t, sl.body, h
	case stepMvTxn:
		h = sl.handle
		fallthrough
	case stepMv:
		o.req.Op, o.req.Path, o.req.Path2, o.req.Txn = wire.OpMv, sl.t, sl.m, h
	case stepCommit:
		o.req.Op, o.req.Txn = wire.OpTxnCommit, sl.handle
	case stepStat:
		o.req.Op, o.req.Path = wire.OpStat, sl.m
	case stepRead:
		o.class, o.expect = classRead, sl.body
		o.req.Op, o.req.Path = wire.OpRead, sl.m
	case stepRm:
		o.req.Op, o.req.Path = wire.OpRm, sl.m
	}
	if sl.step++; sl.step == len(steps) {
		sl.step = 0
	}
	return o
}

type metaStep uint8

const (
	stepWrite metaStep = iota
	stepMv
	stepStat
	stepRead
	stepRm
	stepBegin
	stepWriteTxn
	stepMvTxn
	stepCommit
)

var (
	plainSteps = []metaStep{stepWrite, stepMv, stepStat, stepRead, stepRm}
	txnSteps   = []metaStep{stepBegin, stepWriteTxn, stepMvTxn, stepCommit, stepStat, stepRead, stepRm}
)

func (s *metaScript) done(o *op, resp *wire.Response) bool {
	ok := resp.Status == wire.StatusOK
	switch {
	case !ok:
	case o.class == classRead:
		ok = bytes.Equal(resp.Data, o.expect)
	case o.req.Op == wire.OpStat && o.slot >= 0:
		ok = resp.Size == metaMsgSize
	case o.req.Op == wire.OpTxnBegin:
		s.slots[o.slot].handle = uint64(resp.Size)
	}
	return ok
}
