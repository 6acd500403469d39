package fleet

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"rio"
	"rio/internal/server"
	"rio/internal/sim"
	"rio/internal/wire"
)

// Fleet metadata lives inside each replica's protected cache, so it
// survives an OS crash exactly like user data: the (epoch, seq) file is
// what lets a warm-rebooted replica rejoin at the right position
// instead of demanding a full snapshot.
const (
	fleetDir = "/.fleet"
	seqPath  = "/.fleet/seq"
)

// Replication bounds. The tail ring is the in-flight window: a backup
// more than tailLen batches behind cannot be caught up by replay and
// needs a snapshot; a primary retries each frame replRetries times
// before reporting the backup suspect.
const (
	defaultTailLen     = 64
	defaultReplRetries = 3
)

// NodeConfig boots one fleet machine.
type NodeConfig struct {
	ID               string
	Shards           int // global shard count (fleet-wide constant)
	Seed             uint64
	Policy           rio.Policy
	MemoryMB, DiskMB int
	Transport        Transport
	TailLen          int
	ReplRetries      int
	// RetryDelay and Sleep are the bounded-retry backoff seam for
	// replication sends. The in-process transport fails instantly, so
	// the defaults (zero delay, no sleep) keep campaigns wall-clock
	// free; a TCP fleet sets both.
	RetryDelay time.Duration
	Sleep      func(time.Duration)
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.TailLen <= 0 {
		c.TailLen = defaultTailLen
	}
	if c.ReplRetries <= 0 {
		c.ReplRetries = defaultReplRetries
	}
	return c
}

// Node is one machine of the fleet: a replica (primary or backup) for
// each global shard placed on it, plus the node's view of the routing
// table. Replicas are independent — one lock and one rio.System each,
// the fleet's translation of the shard-per-goroutine discipline.
type Node struct {
	cfg NodeConfig

	mu   sync.Mutex
	reps map[int]*replica
	view *Table

	met NodeMetrics
}

// NodeMetrics counts one node's replication traffic.
type NodeMetrics struct {
	ReplSent      uint64 // frames acknowledged by a backup
	ReplRetries   uint64 // send attempts beyond the first
	ReplApplied   uint64 // frames this node applied as a backup
	ReplDups      uint64 // duplicate frames acknowledged without applying
	Replays       uint64 // tail frames re-sent to close a backup's gap
	Fenced        uint64 // stale-epoch frames refused with StatusMoved
	Redirects     uint64 // client requests answered StatusMoved
	Degraded      uint64 // writes applied locally but unacked (backup unreachable)
	ReadFences    uint64 // reads served after every active backup confirmed the epoch
	Crashes       uint64
	Warmboots     uint64
	SnapshotsSent uint64
}

// tailEnt is one retained replication frame.
type tailEnt struct {
	seq   uint64
	frame []byte
}

// replica is one shard's local copy. Its own lock serializes every
// touch of sys; the only cross-replica lock order is primary-then-
// backup for the same shard, so no cycle can form.
type replica struct {
	mu    sync.Mutex
	shard int
	sys   *rio.System

	role    Role
	epoch   uint64
	seq     uint64
	backups []string        // active peers (primary only; sorted)
	suspect map[string]bool // peers that failed replication (primary only)
	tail    []tailEnt
	down    bool // OS-crashed, awaiting warm reboot
}

// NewNode boots a node with no replicas; the coordinator installs them
// (fresh at fleet boot, by snapshot on rejoin).
func NewNode(cfg NodeConfig) *Node {
	return &Node{cfg: cfg.withDefaults(), reps: make(map[int]*replica)}
}

// ID returns the node's fleet-wide name (its client-visible address in
// a TCP fleet — StatusMoved redirects carry it verbatim).
func (n *Node) ID() string { return n.cfg.ID }

// shardIDs returns the node's replica shards in ascending order — the
// one iteration order every status report and bulk operation uses.
func (n *Node) shardIDs() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]int, 0, len(n.reps))
	for s := range n.reps {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	return ids
}

func (n *Node) replicaFor(shard int) *replica {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reps[shard]
}

// newSystem boots a fresh simulated machine for one shard replica.
func (n *Node) newSystem(shard int) (*rio.System, error) {
	return rio.New(rio.Config{
		Policy:   n.cfg.Policy,
		Seed:     sim.Mix(n.cfg.Seed, uint64(shard), sim.FNV1a64(n.cfg.ID)),
		MemoryMB: n.cfg.MemoryMB,
		DiskMB:   n.cfg.DiskMB,
	})
}

// AddReplica creates an empty replica for shard with the given role and
// epoch — fleet boot only; later joins go through InstallSnapshot.
func (n *Node) AddReplica(shard int, role Role, epoch uint64, backups []string) error {
	sys, err := n.newSystem(shard)
	if err != nil {
		return err
	}
	r := &replica{shard: shard, sys: sys, role: role, epoch: epoch,
		backups: append([]string(nil), backups...), suspect: make(map[string]bool)}
	if err := r.persistSeq(); err != nil {
		return err
	}
	n.mu.Lock()
	n.reps[shard] = r
	n.mu.Unlock()
	return nil
}

// Wipe drops every replica — the machine lost its memory. Only the
// coordinator calls it, after Kill and before a snapshot reinstall.
func (n *Node) Wipe() {
	n.mu.Lock()
	n.reps = make(map[int]*replica)
	n.mu.Unlock()
}

// persistSeq writes the replica's (epoch, seq) into the protected
// cache. Ordering matters on the backup path: the op is applied first,
// then the counter — a crash between the two leaves the counter one
// low, and the primary's tail replay re-applies an op that is
// idempotent by construction (absolute offsets only on the wire).
func (r *replica) persistSeq() error {
	if err := server.MkdirAll(r.sys, fleetDir); err != nil {
		return err
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], r.epoch)
	binary.BigEndian.PutUint64(buf[8:], r.seq)
	return r.sys.WriteFile(seqPath, buf[:])
}

// loadSeq restores (epoch, seq) after a warm reboot.
func (r *replica) loadSeq() error {
	buf, err := r.sys.ReadFile(seqPath)
	if err != nil {
		return err
	}
	if len(buf) != 16 {
		return fmt.Errorf("fleet: seq file is %d bytes, want 16", len(buf))
	}
	r.epoch = binary.BigEndian.Uint64(buf[:8])
	r.seq = binary.BigEndian.Uint64(buf[8:])
	return nil
}

// tailAppend retains frame in the replay window.
func (r *replica) tailAppend(seq uint64, frame []byte, limit int) {
	r.tail = append(r.tail, tailEnt{seq: seq, frame: frame})
	if len(r.tail) > limit {
		r.tail = r.tail[len(r.tail)-limit:]
	}
}

// Serve handles one request arriving over the transport — from a
// client, a primary replicating, or the coordinator heartbeating.
func (n *Node) Serve(from string, req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpHeartbeat:
		return n.serveHeartbeat(req)
	case wire.OpReplBatch:
		return n.serveReplBatch(req)
	case wire.OpReplPull:
		return n.serveReplPull(req)
	case wire.OpSnapshot:
		return n.serveSnapshot(req)
	case wire.OpCrash, wire.OpWarmboot:
		return n.serveAdmin(req)
	}
	return n.serveClient(req)
}

// serveHeartbeat adopts the coordinator's routing table and reports
// every local replica's position. This is how a deposed primary learns
// who to redirect to, and how the coordinator learns who is most
// advanced before a promotion.
func (n *Node) serveHeartbeat(req *wire.Request) *wire.Response {
	if len(req.Data) > 0 {
		t, err := DecodeTable(req.Data)
		if err != nil {
			return &wire.Response{ID: req.ID, Status: wire.StatusInvalid, Msg: err.Error()}
		}
		n.applyView(t)
	}
	return &wire.Response{ID: req.ID, Status: wire.StatusOK, Data: EncodeStatus(n.Status())}
}

// applyView reconciles local replicas against the coordinator's table.
// A newer epoch is authority: it can demote this node's primary (it
// was deposed while partitioned), change a primary's active backup
// set, or evict the replica entirely.
func (n *Node) applyView(t *Table) {
	n.mu.Lock()
	n.view = t
	n.mu.Unlock()
	for _, shard := range n.shardIDs() {
		r := n.replicaFor(shard)
		var route *Route
		for i := range t.Routes {
			if t.Routes[i].Shard == shard {
				route = &t.Routes[i]
				break
			}
		}
		if route == nil {
			continue
		}
		r.mu.Lock()
		if route.Epoch >= r.epoch {
			raised := route.Epoch > r.epoch
			r.epoch = route.Epoch
			switch {
			case route.Primary == n.cfg.ID:
				r.role = RolePrimary
				r.backups = append(r.backups[:0], route.Backups...)
				sort.Strings(r.backups)
				// Peers evicted from the route are no longer owed acks.
				//riolint:ordered each key is kept or deleted on its own membership in r.backups; the surviving set is the same in any order
				for s := range r.suspect {
					if !contains(r.backups, s) {
						delete(r.suspect, s)
					}
				}
			case contains(route.Backups, n.cfg.ID):
				r.role = RoleBackup
			default:
				r.role = RoleDeposed
			}
			if raised && !r.down {
				// Persist the adopted epoch now, not on the next write: a
				// just-promoted primary that warm-reboots before its first
				// write would otherwise reload the stale epoch, emit fenced
				// frames, and depose itself until the next heartbeat. Best
				// effort — on failure the next persistSeq covers it.
				_ = r.persistSeq()
			}
		}
		r.mu.Unlock()
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Status reports every replica's position, ascending by shard.
func (n *Node) Status() []ReplicaStatus {
	var out []ReplicaStatus
	for _, shard := range n.shardIDs() {
		r := n.replicaFor(shard)
		r.mu.Lock()
		st := ReplicaStatus{Shard: shard, Role: r.role, Epoch: r.epoch, Seq: r.seq}
		for s, v := range r.suspect {
			if v {
				st.Suspect = append(st.Suspect, s)
			}
		}
		sort.Strings(st.Suspect)
		r.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Metrics snapshots the node's counters.
func (n *Node) Metrics() NodeMetrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.met
}

func (n *Node) count(f func(*NodeMetrics)) {
	n.mu.Lock()
	f(&n.met)
	n.mu.Unlock()
}

// movedTo answers StatusMoved naming shard's primary per this node's
// latest routing view — the redirect RetryClient follows.
func (n *Node) movedTo(req *wire.Request, shard int) *wire.Response {
	n.mu.Lock()
	addr := ""
	if n.view != nil {
		for i := range n.view.Routes {
			if n.view.Routes[i].Shard == shard {
				addr = n.view.Routes[i].Primary
				break
			}
		}
	}
	n.mu.Unlock()
	n.count(func(m *NodeMetrics) { m.Redirects++ })
	return &wire.Response{ID: req.ID, Status: wire.StatusMoved, Msg: addr}
}

// mutating reports whether op changes filesystem state and must be
// replicated before the client may be acknowledged.
func mutating(op wire.Op) bool { return op.Mutates() }

// serveClient runs one client op against the local primary replica for
// its path's shard: execute locally, replicate the executed op to every
// active backup, and only then acknowledge — the ack is the fleet's
// durability promise, so it cannot precede the peers' copies.
func (n *Node) serveClient(req *wire.Request) *wire.Response {
	fail := func(st wire.Status, msg string) *wire.Response {
		return &wire.Response{ID: req.ID, Status: st, Msg: msg}
	}
	if req.Op.TxnControl() || req.Txn != 0 {
		return fail(wire.StatusInvalid, "fleet nodes do not serve transactions (single-node riod does)")
	}
	if msg := server.Validate(req, fleetDir); msg != "" {
		return fail(wire.StatusInvalid, msg)
	}
	if req.Path == "" {
		return fail(wire.StatusInvalid, fmt.Sprintf("%v needs a path", req.Op))
	}
	shard := server.ShardOf(req.Path, n.cfg.Shards)
	if req.Op.TwoPaths() && server.ShardOf(req.Path2, n.cfg.Shards) != shard {
		return fail(wire.StatusCrossShard, fmt.Sprintf("%v across shards is not supported", req.Op))
	}

	// Append offsets are the client's to resolve: an op whose effect
	// depends on current file size is not idempotent under retry — a
	// degraded write answered StatusAgain would be re-applied at a new
	// offset and duplicate its bytes. fleet.Client resolves the offset
	// once (Stat) and pins it; anything else is refused outright.
	if req.Op == wire.OpWrite && req.Offset < 0 {
		return fail(wire.StatusInvalid,
			"fleet requires absolute write offsets (client resolves appends; retries must be idempotent)")
	}

	r := n.replicaFor(shard)
	if r == nil {
		return n.movedTo(req, shard)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != RolePrimary {
		return n.movedTo(req, shard)
	}
	if r.down {
		return fail(wire.StatusAgain, fmt.Sprintf("node %s shard %d down (awaiting warmboot)", n.cfg.ID, shard))
	}

	if !mutating(req.Op) {
		if resp := n.readFence(r, req); resp != nil {
			return resp
		}
		return server.Exec(r.sys, req)
	}

	// The frame is built before anything mutates: an op legal on the wire
	// can still be too large to replicate (a MaxData write plus the batch
	// header), and executing one would leave the primary a seq ahead of a
	// tail entry that does not exist.
	frame, err := EncodeBatch(&Batch{Epoch: r.epoch, Seq: r.seq + 1, Ops: []*wire.Request{req}})
	if err != nil {
		return fail(wire.StatusInvalid, "cannot be replicated: "+err.Error())
	}
	resp := server.Exec(r.sys, req)
	if crashed, why := r.sys.Crashed(); crashed {
		r.down = true
		return fail(wire.StatusAgain, fmt.Sprintf("node %s shard %d crashed: %s", n.cfg.ID, shard, why))
	}
	if resp.Status != wire.StatusOK {
		return resp // refused deterministically; nothing to replicate
	}

	r.seq++
	if err := r.persistSeq(); err != nil {
		return fail(wire.StatusIO, "persist seq: "+err.Error())
	}
	r.tailAppend(r.seq, frame, n.cfg.TailLen)

	// Ack-after-replicate: every active, non-suspect backup must hold
	// the frame before the client hears OK. A peer that cannot be
	// reached within the bounded retries makes the write "applied but
	// unacked" — the client sees StatusAgain and retries (idempotent by
	// the absolute-offset rule), while the coordinator's next tick
	// evicts the dead peer and the retry acks against the new epoch.
	degraded, fenced := n.confirmPeers(r, req, frame, false)
	if fenced != nil {
		return fenced
	}
	if degraded != "" {
		n.count(func(m *NodeMetrics) { m.Degraded++ })
		return fail(wire.StatusAgain, fmt.Sprintf(
			"shard %d write applied but backup %s unreachable; awaiting reconfiguration", shard, degraded))
	}
	return resp
}

// confirmPeers delivers frame to every active, non-suspect backup of r.
// degraded names a peer that could not confirm (now marked suspect);
// fenced is the StatusMoved redirect when a backup refused us as a
// stale epoch — this node has been deposed.
func (n *Node) confirmPeers(r *replica, req *wire.Request, frame []byte, fence bool) (degraded string, fenced *wire.Response) {
	for _, b := range r.backups {
		if b == n.cfg.ID || r.suspect[b] {
			if r.suspect[b] {
				degraded = b
			}
			continue
		}
		if ok, moved := n.replicateTo(r, b, frame, fence); !ok {
			if moved {
				return "", n.movedTo(req, r.shard)
			}
			r.suspect[b] = true
			degraded = b
		}
	}
	return degraded, nil
}

// readFence re-proves this replica's primacy before a read is served.
// A deposed primary under a pairwise partition — cut off from its
// peers and the coordinator but still reachable by clients — would
// otherwise serve arbitrarily stale reads after a promotion it never
// heard about. The fence is a zero-op frame pushed through the same
// epoch check as replication: every active backup must confirm our
// epoch, exactly the set a write would have to ack through. nil means
// the read may be served; a coordinator-blessed solo replica (empty
// backup set at the current epoch) serves without peers, which is as
// fenced as the fleet can be.
func (n *Node) readFence(r *replica, req *wire.Request) *wire.Response {
	if len(r.backups) == 0 {
		return nil
	}
	frame, err := EncodeBatch(&Batch{Epoch: r.epoch, Seq: r.seq})
	if err != nil {
		return &wire.Response{ID: req.ID, Status: wire.StatusIO, Msg: err.Error()}
	}
	degraded, fenced := n.confirmPeers(r, req, frame, true)
	if fenced != nil {
		return fenced
	}
	if degraded != "" {
		return &wire.Response{ID: req.ID, Status: wire.StatusAgain, Msg: fmt.Sprintf(
			"shard %d read fence: backup %s unreachable; awaiting reconfiguration", r.shard, degraded)}
	}
	n.count(func(m *NodeMetrics) { m.ReadFences++ })
	return nil
}

// replicateTo delivers frame to backup b with bounded retries,
// replaying the tail to close a sequence gap. fenced reports that b
// refused us as a stale epoch — this node has been deposed. fence
// marks a zero-op probe, which confirms the epoch but is not a
// replicated data frame and stays out of the ReplSent count.
func (n *Node) replicateTo(r *replica, b string, frame []byte, fence bool) (ok, fenced bool) {
	req := &wire.Request{Op: wire.OpReplBatch, Shard: int32(r.shard), Data: frame}
	for attempt := 0; attempt <= n.cfg.ReplRetries; attempt++ {
		if attempt > 0 {
			n.count(func(m *NodeMetrics) { m.ReplRetries++ })
			if n.cfg.Sleep != nil && n.cfg.RetryDelay > 0 {
				n.cfg.Sleep(n.cfg.RetryDelay << (attempt - 1))
			}
		}
		resp, err := n.cfg.Transport.Send(n.cfg.ID, b, req)
		if err != nil {
			continue
		}
		switch resp.Status {
		case wire.StatusOK:
			if !fence {
				n.count(func(m *NodeMetrics) { m.ReplSent++ })
			}
			return true, false
		case wire.StatusMoved:
			r.role = RoleDeposed
			return false, true
		case wire.StatusAgain:
			// The backup is behind (resp.Size = its seq): replay the
			// retained tail to close the gap, then retry the frame. A gap
			// older than the tail window needs a snapshot — the
			// coordinator's job, so report the peer suspect.
			if !n.replayTail(r, b, uint64(resp.Size)) {
				return false, false
			}
		default:
			return false, false
		}
	}
	return false, false
}

// replayTail re-sends retained frames with seq > from to b, in order.
// False when the window no longer reaches back to from.
func (n *Node) replayTail(r *replica, b string, from uint64) bool {
	if len(r.tail) == 0 || r.tail[0].seq > from+1 {
		return false
	}
	for _, ent := range r.tail {
		if ent.seq <= from {
			continue
		}
		resp, err := n.cfg.Transport.Send(n.cfg.ID, b,
			&wire.Request{Op: wire.OpReplBatch, Shard: int32(r.shard), Data: ent.frame})
		if err != nil || resp.Status != wire.StatusOK {
			return false
		}
		n.count(func(m *NodeMetrics) { m.Replays++ })
	}
	return true
}

// serveReplBatch applies one replication frame as a backup. Epoch
// fencing first — a frame from a deposed primary is refused with
// StatusMoved so the sender learns its place — then duplicate and gap
// detection by sequence number, then the ops run through the same
// server.Exec the primary used.
func (n *Node) serveReplBatch(req *wire.Request) *wire.Response {
	fail := func(st wire.Status, msg string) *wire.Response {
		return &wire.Response{ID: req.ID, Status: st, Msg: msg}
	}
	r := n.replicaFor(int(req.Shard))
	if r == nil {
		return fail(wire.StatusNotFound, fmt.Sprintf("node %s holds no replica of shard %d", n.cfg.ID, req.Shard))
	}
	b, err := DecodeBatch(req.Data)
	if err != nil {
		return fail(wire.StatusInvalid, err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return fail(wire.StatusAgain, fmt.Sprintf("shard %d down (awaiting warmboot)", r.shard))
	}
	if b.Epoch < r.epoch || (r.role == RolePrimary && b.Epoch == r.epoch) {
		// A stale primary. Tell it where the shard lives now.
		n.count(func(m *NodeMetrics) { m.Fenced++ })
		return n.movedTo(req, r.shard)
	}
	if b.Epoch > r.epoch {
		// A newer configuration reached us through the data path before
		// the heartbeat did; adopt it. Whoever sends frames at the
		// newest epoch is the primary, so we are a backup. Persist the
		// adopted epoch immediately — fence frames and duplicates return
		// below without reaching the apply path's persist, and an epoch
		// held only in memory regresses across a warm reboot.
		r.epoch = b.Epoch
		r.role = RoleBackup
		if err := r.persistSeq(); err != nil {
			return fail(wire.StatusIO, "persist epoch: "+err.Error())
		}
	}
	if len(b.Ops) == 0 {
		// A read fence: the sender only needed the epoch check above.
		// Answer with our position and leave seq/tail untouched.
		return &wire.Response{ID: req.ID, Status: wire.StatusOK, Size: int64(r.seq)}
	}
	if b.Seq <= r.seq {
		n.count(func(m *NodeMetrics) { m.ReplDups++ })
		return &wire.Response{ID: req.ID, Status: wire.StatusOK, Size: int64(r.seq)}
	}
	if b.Seq != r.seq+1 {
		return &wire.Response{ID: req.ID, Status: wire.StatusAgain, Size: int64(r.seq),
			Msg: fmt.Sprintf("shard %d gap: have seq %d, got %d", r.shard, r.seq, b.Seq)}
	}
	for _, op := range b.Ops {
		opResp := server.Exec(r.sys, op)
		if crashed, why := r.sys.Crashed(); crashed {
			r.down = true
			return fail(wire.StatusAgain, fmt.Sprintf("shard %d crashed applying frame: %s", r.shard, why))
		}
		if opResp.Status != wire.StatusOK {
			// The primary executed this op successfully; a typed refusal
			// here means the replicas have diverged. Refuse the frame so
			// the primary reports us suspect and the coordinator repairs
			// us by snapshot, rather than paper over it.
			return fail(wire.StatusIO, fmt.Sprintf(
				"shard %d replica diverged applying %v %s: %s", r.shard, op.Op, op.Path, opResp.Msg))
		}
	}
	r.seq = b.Seq
	if err := r.persistSeq(); err != nil {
		return fail(wire.StatusIO, "persist seq: "+err.Error())
	}
	r.tailAppend(r.seq, req.Data, n.cfg.TailLen)
	n.count(func(m *NodeMetrics) { m.ReplApplied++ })
	return &wire.Response{ID: req.ID, Status: wire.StatusOK, Size: int64(r.seq)}
}

// serveReplPull returns retained tail frames with seq > req.Offset,
// concatenated as u32-length-prefixed frames. Size carries the
// replica's current seq; StatusNotFound means the window no longer
// reaches back that far and the puller needs a snapshot.
func (n *Node) serveReplPull(req *wire.Request) *wire.Response {
	r := n.replicaFor(int(req.Shard))
	if r == nil {
		return &wire.Response{ID: req.ID, Status: wire.StatusNotFound,
			Msg: fmt.Sprintf("node %s holds no replica of shard %d", n.cfg.ID, req.Shard)}
	}
	from := uint64(req.Offset)
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < r.seq && (len(r.tail) == 0 || r.tail[0].seq > from+1) {
		return &wire.Response{ID: req.ID, Status: wire.StatusNotFound, Size: int64(r.seq),
			Msg: fmt.Sprintf("shard %d tail starts past seq %d; snapshot required", r.shard, from)}
	}
	var data []byte
	for _, ent := range r.tail {
		if ent.seq <= from {
			continue
		}
		need := 4 + len(ent.frame)
		if len(data)+need > wire.MaxData {
			break // caller pulls again from the last seq it decoded
		}
		data = binary.BigEndian.AppendUint32(data, uint32(len(ent.frame)))
		data = append(data, ent.frame...)
	}
	return &wire.Response{ID: req.ID, Status: wire.StatusOK, Size: int64(r.seq), Data: data}
}

// serveAdmin crashes or warm-reboots one local replica — the OS-crash
// path. The protected cache survives (this is Rio), so a warm reboot
// restores the tree, reloads (epoch, seq) from it, and the replica
// resumes exactly where it acked.
func (n *Node) serveAdmin(req *wire.Request) *wire.Response {
	fail := func(st wire.Status, msg string) *wire.Response {
		return &wire.Response{ID: req.ID, Status: st, Msg: msg}
	}
	r := n.replicaFor(int(req.Shard))
	if r == nil {
		return fail(wire.StatusNotFound, fmt.Sprintf("node %s holds no replica of shard %d", n.cfg.ID, req.Shard))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch req.Op {
	case wire.OpCrash:
		if r.down {
			return fail(wire.StatusInvalid, fmt.Sprintf("shard %d already down", r.shard))
		}
		r.sys.Crash("fleet: administrative crash op")
		r.down = true
		n.count(func(m *NodeMetrics) { m.Crashes++ })
		return &wire.Response{ID: req.ID, Status: wire.StatusOK}
	default: // OpWarmboot
		rep, err := r.sys.WarmReboot()
		if err != nil {
			return fail(wire.StatusIO, "warm reboot failed: "+err.Error())
		}
		if err := r.loadSeq(); err != nil {
			return fail(wire.StatusIO, "fleet seq lost across reboot: "+err.Error())
		}
		r.down = false
		n.count(func(m *NodeMetrics) { m.Warmboots++ })
		return &wire.Response{ID: req.ID, Status: wire.StatusOK,
			Size: int64(rep.MetaRestored + rep.DataRestored)}
	}
}

// CrashNode OS-crashes every replica on the node (ascending shard
// order); WarmbootNode reboots them all. Together they are the "the OS
// went down, the machine did not" campaign case — no data is lost and
// no promotion is necessary, exactly the paper's warm-reboot story.
func (n *Node) CrashNode() {
	for _, shard := range n.shardIDs() {
		n.serveAdmin(&wire.Request{Op: wire.OpCrash, Shard: int32(shard)})
	}
}

// WarmbootNode reboots every replica; it returns the first error.
func (n *Node) WarmbootNode() error {
	for _, shard := range n.shardIDs() {
		resp := n.serveAdmin(&wire.Request{Op: wire.OpWarmboot, Shard: int32(shard)})
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("shard %d: %s", shard, resp.Msg)
		}
	}
	return nil
}
