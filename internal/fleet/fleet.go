package fleet

import (
	"fmt"
	"sort"
	"sync"

	"rio"
	"rio/internal/wire"
)

// Config sizes a fleet.
type Config struct {
	// Nodes is the machine count (default 3).
	Nodes int
	// Replicas is R: copies of each shard, primary included (default 2).
	// A write is acknowledged only when all R replicas hold it, so the
	// fleet survives R-1 simultaneous machine losses without losing an
	// acked write.
	Replicas int
	// Shards is the global shard count (default 4).
	Shards int
	// Seed drives placement and every machine's randomness.
	Seed uint64

	Policy   rio.Policy
	MemoryMB int
	DiskMB   int
}

// missThreshold is consecutive missed heartbeats before a node is
// declared dead.
const missThreshold = 3

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > c.Nodes {
		c.Replicas = c.Nodes
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Metrics counts the coordinator's control-plane actions.
type Metrics struct {
	Ticks            uint64
	Heartbeats       uint64
	MissedHeartbeats uint64
	DeclaredDead     uint64
	Promotions       uint64
	Reconfigs        uint64 // epoch bumps that were not promotions
	Repairs          uint64 // backups (re)installed by snapshot
}

// Fleet is the coordinator: it owns placement, detects machine loss by
// missed heartbeats, promotes the most-advanced backup when a primary
// dies, and repairs under-replicated shards by snapshot + tail replay.
// One coordinator per fleet; Tick is its entire event loop, called
// manually by deterministic harnesses and from a ticker goroutine by
// live servers.
type Fleet struct {
	cfg Config
	tr  *MemTransport

	mu      sync.Mutex
	nodeIDs []string // sorted; the fleet's one iteration order
	nodes   map[string]*Node
	routes  []Route // by shard index
	missed  map[string]int
	dead    map[string]bool
	status  map[string][]ReplicaStatus // last round's reports, by node that answered
	met     Metrics
}

// New boots a fleet: cfg.Nodes machines on an in-process transport,
// every shard placed on its rendezvous-best R nodes at epoch 1, and the
// initial routing table distributed.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:    cfg,
		tr:     NewMemTransport(),
		nodes:  make(map[string]*Node),
		missed: make(map[string]int),
		dead:   make(map[string]bool),
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := fmt.Sprintf("node%d", i)
		n := NewNode(NodeConfig{
			ID: id, Shards: cfg.Shards, Seed: cfg.Seed,
			Policy: cfg.Policy, MemoryMB: cfg.MemoryMB, DiskMB: cfg.DiskMB,
			Transport: f.tr,
		})
		f.nodes[id] = n
		f.nodeIDs = append(f.nodeIDs, id)
		f.tr.Attach(n)
	}
	sort.Strings(f.nodeIDs)
	for shard := 0; shard < cfg.Shards; shard++ {
		set := Place(cfg.Seed, f.nodeIDs, shard, cfg.Replicas)
		backups := append([]string(nil), set[1:]...)
		sort.Strings(backups)
		f.routes = append(f.routes, Route{Shard: shard, Epoch: 1, Primary: set[0], Backups: backups})
		for i, id := range set {
			role := RoleBackup
			if i == 0 {
				role = RolePrimary
			}
			if err := f.nodes[id].AddReplica(shard, role, 1, backups); err != nil {
				return nil, fmt.Errorf("fleet: boot shard %d on %s: %w", shard, id, err)
			}
		}
	}
	t := f.tableLocked()
	for _, id := range f.nodeIDs {
		f.nodes[id].applyView(t)
	}
	return f, nil
}

// tableLocked snapshots the routing table. Caller holds f.mu (or is
// New, before the fleet is shared).
func (f *Fleet) tableLocked() *Table {
	t := &Table{}
	for _, r := range f.routes {
		cp := r
		cp.Backups = append([]string(nil), r.Backups...)
		t.Routes = append(t.Routes, cp)
	}
	return t
}

// Table returns the current routing table (the client's bootstrap and
// refresh source).
func (f *Fleet) Table() *Table {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tableLocked()
}

// Node returns a node by id (tests and the load harness).
func (f *Fleet) Node(id string) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[id]
}

// NodeIDs returns the fleet's node names, sorted.
func (f *Fleet) NodeIDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.nodeIDs...)
}

// Transport exposes the fabric for fault injection beyond the Kill /
// Isolate helpers.
func (f *Fleet) Transport() *MemTransport { return f.tr }

// Metrics snapshots coordinator counters.
func (f *Fleet) Metrics() Metrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.met
}

// NodeMetrics sums every node's replication counters (sorted fold, so
// the totals are deterministic).
func (f *Fleet) NodeMetrics() NodeMetrics {
	f.mu.Lock()
	ids := append([]string(nil), f.nodeIDs...)
	f.mu.Unlock()
	var tot NodeMetrics
	for _, id := range ids {
		m := f.Node(id).Metrics()
		tot.ReplSent += m.ReplSent
		tot.ReplRetries += m.ReplRetries
		tot.ReplApplied += m.ReplApplied
		tot.ReplDups += m.ReplDups
		tot.Replays += m.Replays
		tot.Fenced += m.Fenced
		tot.Redirects += m.Redirects
		tot.Degraded += m.Degraded
		tot.ReadFences += m.ReadFences
		tot.Crashes += m.Crashes
		tot.Warmboots += m.Warmboots
		tot.SnapshotsSent += m.SnapshotsSent
	}
	return tot
}

// Kill simulates machine loss: the node drops off the network and its
// memory — replicas, protected caches, tail rings — is gone. The
// coordinator notices via missed heartbeats; nothing is told directly,
// because real machine death announces itself exactly this way.
func (f *Fleet) Kill(id string) {
	f.tr.Kill(id)
	f.mu.Lock()
	n := f.nodes[id]
	f.mu.Unlock()
	if n != nil {
		n.Wipe()
	}
}

// Revive brings a killed machine back, empty. The next Tick re-recruits
// it for under-replicated shards by snapshot.
func (f *Fleet) Revive(id string) {
	f.tr.Revive(id)
	f.mu.Lock()
	f.dead[id] = false
	f.missed[id] = 0
	f.mu.Unlock()
}

// Isolate partitions a node from everything (peers, coordinator,
// clients); Rejoin heals it. The node keeps its state — the difference
// between a partition and a kill is exactly that.
func (f *Fleet) Isolate(id string) { f.tr.Isolate(id) }

// Rejoin heals an Isolate.
func (f *Fleet) Rejoin(id string) {
	f.tr.Rejoin(id)
	f.mu.Lock()
	f.missed[id] = 0
	f.dead[id] = false
	f.mu.Unlock()
}

// Tick runs one coordinator round: heartbeat every node, declare the
// silent ones dead, promote and evict, repair under-replication by
// snapshot, and push the updated routing table. It is the only place a
// route's membership changes after boot, and it acts on two kinds of
// evidence only: its own heartbeat results, and each node's report about
// its own replicas — never one node's word about another. Deterministic
// given the fleet's state — the campaign calls it manually; riod runs it
// on a ticker.
func (f *Fleet) Tick() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.met.Ticks++

	// Heartbeat round. The request carries the routing table (so nodes
	// converge on the newest view); the response carries each replica's
	// own position. now holds the reports of the nodes that answered
	// THIS round — the only nodes repair may recruit, because a machine
	// that just died is unreachable ticks before it crosses the miss
	// threshold and gets declared dead.
	prev := f.status
	now := make(map[string][]ReplicaStatus)
	blob := EncodeTable(f.tableLocked())
	for _, id := range f.nodeIDs {
		if f.dead[id] {
			continue
		}
		sts, ok := f.heartbeatLocked(id, blob)
		if !ok {
			f.missed[id]++
			f.met.MissedHeartbeats++
			if f.missed[id] >= missThreshold {
				f.dead[id] = true
				f.met.DeclaredDead++
			}
			continue
		}
		f.missed[id] = 0
		f.met.Heartbeats++
		now[id] = sts
	}
	f.status = now

	// Reconfigure each shard, in shard order. A member that answered but
	// reported no replica of the shard no longer holds it (a machine
	// revived empty, a backup that dropped a diverged copy). A backup is
	// evicted when its seq trails the primary's by more than the tail can
	// replay — the primary's from last round, reported before the
	// backup's, so a healthy backup under load never looks behind.
	changed := false
	for i := range f.routes {
		r := &f.routes[i]
		empty := func(id string) bool {
			sts, answered := now[id]
			_, held := replicaOf(sts, r.Shard)
			return answered && !held
		}
		if f.dead[r.Primary] || empty(r.Primary) {
			if f.promoteLocked(r) {
				changed = true
			}
			continue
		}
		head, known := replicaOf(prev[r.Primary], r.Shard)
		var keep []string
		for _, b := range r.Backups {
			st, held := replicaOf(now[b], r.Shard)
			behind := known && held && head.Seq > st.Seq+defaultTailLen
			if !f.dead[b] && !empty(b) && !behind {
				keep = append(keep, b)
			}
		}
		if len(keep) != len(r.Backups) {
			r.Backups = keep
			r.Epoch++
			f.met.Reconfigs++
			changed = true
		}
	}

	// Repair under-replicated shards from live spares.
	for i := range f.routes {
		if f.repairLocked(&f.routes[i], now) {
			changed = true
		}
	}

	// Push the new view so primaries learn their backup sets before the
	// next client write, not a tick later.
	if changed {
		blob = EncodeTable(f.tableLocked())
		for _, id := range f.nodeIDs {
			if f.dead[id] {
				continue
			}
			f.tr.Send(CoordName, id, &wire.Request{Op: wire.OpHeartbeat, Data: blob})
		}
	}
}

// heartbeatLocked sends id one heartbeat (carrying table, if any) and
// returns its report about its own replicas; false if it did not answer.
func (f *Fleet) heartbeatLocked(id string, table []byte) ([]ReplicaStatus, bool) {
	resp, err := f.tr.Send(CoordName, id, &wire.Request{Op: wire.OpHeartbeat, Data: table})
	if err != nil || resp.Status != wire.StatusOK {
		return nil, false
	}
	sts, err := DecodeStatus(resp.Data)
	return sts, err == nil
}

// replicaOf picks shard's entry out of one node's report.
func replicaOf(sts []ReplicaStatus, shard int) (ReplicaStatus, bool) {
	for _, st := range sts {
		if st.Shard == shard {
			return st, true
		}
	}
	return ReplicaStatus{}, false
}

// promoteLocked replaces the primary with the most-advanced reachable
// backup that still holds the shard: highest (epoch, seq), lowest id on
// ties. False if there is none — the shard is unavailable until one is.
func (f *Fleet) promoteLocked(r *Route) bool {
	best := ""
	var bestEpoch, bestSeq uint64
	var rest []string
	for _, b := range r.Backups {
		if f.dead[b] {
			continue
		}
		sts, ok := f.heartbeatLocked(b, nil)
		st, held := replicaOf(sts, r.Shard)
		if !ok || !held {
			continue
		}
		if best == "" || st.Epoch > bestEpoch || (st.Epoch == bestEpoch && st.Seq > bestSeq) {
			if best != "" {
				rest = append(rest, best)
			}
			best, bestEpoch, bestSeq = b, st.Epoch, st.Seq
		} else {
			rest = append(rest, b)
		}
	}
	if best == "" {
		return false
	}
	sort.Strings(rest)
	r.Primary = best
	r.Backups = rest
	r.Epoch++
	f.met.Promotions++
	return true
}

// repairLocked recruits reachable spares for an under-replicated
// shard: snapshot from the primary, install on the spare, replay the
// tail the snapshot missed, then admit the spare to the replica set at
// a new epoch. Only nodes that answered this tick's heartbeat (keys of
// now) are candidates. False if nothing changed.
func (f *Fleet) repairLocked(r *Route, now map[string][]ReplicaStatus) bool {
	if f.dead[r.Primary] {
		return false // no source to copy from; promotion failed too
	}
	have := 1 + len(r.Backups)
	if have >= f.cfg.Replicas {
		return false
	}
	var live []string
	for _, id := range f.nodeIDs {
		if _, ok := now[id]; ok {
			live = append(live, id)
		}
	}
	added := false
	for _, cand := range Place(f.cfg.Seed, live, r.Shard, len(live)) {
		if have >= f.cfg.Replicas {
			break
		}
		if cand == r.Primary || contains(r.Backups, cand) {
			continue
		}
		if err := f.catchUpLocked(r, cand); err != nil {
			continue
		}
		r.Backups = append(r.Backups, cand)
		sort.Strings(r.Backups)
		have++
		added = true
		f.met.Repairs++
	}
	if added {
		r.Epoch++
	}
	return added
}

// snapPullRounds bounds how many times a chunked snapshot pull restarts
// when writes land mid-pull and break the checksum.
const snapPullRounds = 3

// catchUpLocked copies shard state from r.Primary onto cand: chunked
// snapshot pull over the wire, install, then tail replay until cand is
// at the primary's seq.
func (f *Fleet) catchUpLocked(r *Route, cand string) error {
	shard := int32(r.Shard)
	var blob []byte
	for round := 0; round < snapPullRounds; round++ {
		blob = blob[:0]
		for {
			resp, err := f.tr.Send(CoordName, r.Primary,
				&wire.Request{Op: wire.OpSnapshot, Shard: shard, Offset: int64(len(blob))})
			if err != nil {
				return err
			}
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("fleet: snapshot pull: %s", resp.Msg)
			}
			blob = append(blob, resp.Data...)
			if int64(len(blob)) >= resp.Size {
				break
			}
			if len(resp.Data) == 0 {
				return fmt.Errorf("fleet: snapshot pull stalled at %d/%d bytes", len(blob), resp.Size)
			}
		}
		if err := f.nodes[cand].InstallSnapshot(r.Shard, blob); err == nil {
			goto installed
		} else if round == snapPullRounds-1 {
			return err
		}
	}
installed:
	// Replay whatever landed after the snapshot was cut.
	_, at, err := snapHeader(blob)
	if err != nil {
		return err
	}
	for {
		pull, err := f.tr.Send(CoordName, r.Primary,
			&wire.Request{Op: wire.OpReplPull, Shard: shard, Offset: int64(at)})
		if err != nil {
			return err
		}
		if pull.Status != wire.StatusOK {
			return fmt.Errorf("fleet: tail pull: %s", pull.Msg)
		}
		if uint64(pull.Size) <= at || len(pull.Data) == 0 {
			return nil // caught up
		}
		err = eachTailFrame(pull.Data, func(frame []byte) error {
			resp, err := f.tr.Send(CoordName, cand,
				&wire.Request{Op: wire.OpReplBatch, Shard: shard, Data: frame})
			if err != nil {
				return err
			}
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("fleet: tail replay: %s", resp.Msg)
			}
			at = uint64(resp.Size)
			return nil
		})
		if err != nil {
			return err
		}
	}
}

// eachTailFrame splits a tail pull's Data — u32-length-prefixed
// replication frames, as serveReplPull packs them — and hands each frame,
// a view of data, to fn in order, stopping at fn's first error. A tail
// with no frames, or a length beyond wire.MaxData or the bytes left, is
// refused before fn sees that frame.
func eachTailFrame(data []byte, fn func(frame []byte) error) error {
	if len(data) == 0 {
		return fmt.Errorf("fleet: tail pull carries no frames")
	}
	c := wire.Cursor{Buf: data}
	for c.Off < len(c.Buf) {
		frame := c.Bytes32(wire.MaxData, true)
		if c.Err != nil {
			return fmt.Errorf("fleet: tail pull: %w", c.Err)
		}
		if err := fn(frame); err != nil {
			return err
		}
	}
	return nil
}
