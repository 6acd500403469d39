// Fixture: correctly ordered replication replorder must NOT flag —
// the canonical exec → advance → persist → replicate → ack path, the
// fenced read path, status-guarded refusals, epoch adoption persisted
// directly or through a helper, and epochs loaded from stable storage.
package fleet

type resp struct {
	Status int
}

type node struct {
	seq   uint64
	epoch uint64
}

func (n *node) persistSeq() error    { return nil }
func (n *node) confirmPeers(r *resp) {}
func (n *node) readFence() *resp     { return nil }
func (n *node) mutating(op int) bool { return op != 0 }

func Exec(op int) *resp { return &resp{} }

// serveClient is the canonical primary path: fence, serve reads, and
// for writes exec, advance, persist, replicate, then ack.
func (n *node) serveClient(op int) *resp {
	if f := n.readFence(); f != nil {
		return f
	}
	if !n.mutating(op) {
		return Exec(op)
	}
	r := Exec(op)
	if r.Status != 0 {
		return r // refusing a failed op is not an ack
	}
	n.seq++
	_ = n.persistSeq()
	n.confirmPeers(r)
	return r
}

// adoptDirect persists the adopted epoch immediately.
func (n *node) adoptDirect(e uint64) {
	if e >= n.epoch {
		n.epoch = e
		_ = n.persistSeq()
	}
}

// adoptViaHelper persists through a helper: the reach is seen through
// the call graph.
func (n *node) adoptViaHelper(e uint64) {
	n.epoch = e
	n.saveMeta()
}

func (n *node) saveMeta() {
	_ = n.persistSeq()
}

func load() uint64 { return 0 }

// restore assigns the epoch from stable storage: a load, not an
// adoption.
func (n *node) restore() {
	n.epoch = load()
}

// replBatch is the backup apply path: adopt-and-persist the frame's
// epoch, execute, then advance and persist.
func (n *node) replBatch(e uint64, ops []int) *resp {
	if e > n.epoch {
		n.epoch = e
		_ = n.persistSeq()
	}
	for _, op := range ops {
		r := Exec(op)
		if r.Status != 0 {
			return r
		}
	}
	n.seq++
	_ = n.persistSeq()
	return &resp{}
}

// serveBranched is fleet.Node.serveClient's real shape: the fence and the
// read's Exec inside the !mutating branch, the write path after it.
func (n *node) serveBranched(op int) *resp {
	if !n.mutating(op) {
		if f := n.readFence(); f != nil {
			return f
		}
		return Exec(op)
	}
	r := Exec(op)
	if r.Status != 0 {
		return r
	}
	n.seq++
	_ = n.persistSeq()
	n.confirmPeers(r)
	return r
}
