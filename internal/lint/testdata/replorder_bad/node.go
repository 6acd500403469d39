// Fixture: the replication-protocol orderings replorder must catch —
// acking before replication confirmed, persisting the sequence number
// before the op executed, serving reads without (or after, or ignoring)
// the fence, and adopting an epoch without persisting it (the PR-7
// review bug, reconstructed).
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

// ackEarly returns the executed op's response on a branch that skips
// replication: a machine loss after this return drops an acked write.
func (n *node) ackEarly(fast bool, op int) *resp {
	r := Exec(op)
	n.seq++
	_ = n.persistSeq()
	if fast {
		return r // want replorder "acked before every active backup confirmed"
	}
	n.confirmPeers(r)
	return r
}

// persistEarly advances and persists seq before executing: a crash
// between persist and exec makes tail replay skip the op.
func (n *node) persistEarly(op int) *resp {
	n.seq++
	_ = n.persistSeq() // want replorder "persisted before the op executed"
	r := Exec(op)
	n.confirmPeers(r)
	return r
}

// serveUnfenced branches on mutability but never fences: a deposed
// primary serves stale reads.
func (n *node) serveUnfenced(op int) *resp {
	if !n.mutating(op) { // want replorder "never calls readFence"
		return Exec(op)
	}
	return n.apply(op)
}

// apply is the properly ordered mutating path serveUnfenced defers to.
func (n *node) apply(op int) *resp {
	r := Exec(op)
	if r.Status != 0 {
		return r
	}
	n.seq++
	_ = n.persistSeq()
	n.confirmPeers(r)
	return r
}

// fenceLate fences only after the read already executed.
func (n *node) fenceLate(op int) *resp {
	if n.mutating(op) {
		return nil
	}
	r := Exec(op)
	if f := n.readFence(); f != nil { // want replorder "readFence runs after an op already executed"
		return f
	}
	return r
}

// fenceDropped calls the fence and ignores its verdict.
func (n *node) fenceDropped(op int) *resp {
	n.readFence() // want replorder "readFence result discarded"
	return Exec(op)
}

// promote adopts a higher epoch in volatile state only: a warm reboot
// reloads the old epoch and the replica re-serves a fenced role.
func (n *node) promote(e uint64) {
	if e >= n.epoch {
		n.epoch = e // want replorder "adopted epoch is never persisted"
	}
}

// serveEarlyAck is serveClient's real shape — the fence and the read's
// Exec live inside the !mutating branch, the write path follows it — with
// a fast path that acks before replication. The fence comes first in the
// source but belongs to the read branch: it excuses nothing here.
func (n *node) serveEarlyAck(fast bool, op int) *resp {
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
	if fast {
		return r // want replorder "acked before every active backup confirmed"
	}
	n.confirmPeers(r)
	return r
}

// serveEarlyPersist is the same shape with the sequence number advanced
// and persisted above the write path's Exec. The read branch's Exec comes
// first in the source and is not the op being sequenced.
func (n *node) serveEarlyPersist(op int) *resp {
	if !n.mutating(op) {
		if f := n.readFence(); f != nil {
			return f
		}
		return Exec(op)
	}
	n.seq++
	_ = n.persistSeq() // want replorder "persisted before the op executed"
	r := Exec(op)
	if r.Status != 0 {
		return r
	}
	n.confirmPeers(r)
	return r
}
