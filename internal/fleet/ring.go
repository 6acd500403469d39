package fleet

import (
	"sort"

	"rio/internal/sim"
)

// Placement is rendezvous (highest-random-weight) hashing: each
// (shard, node) pair gets a weight that is a pure function of the fleet
// seed, and a shard's replica set is the R highest-weighted live nodes.
// Rendezvous beats a token ring here because removing one node moves
// only the shards that node held — every other placement is untouched —
// and because it needs no virtual-node bookkeeping to balance. Ties
// break toward the lexically lowest node id so the placement is a total
// order, never an iteration-order accident.

// Place returns shard's replica set drawn from nodes: the r nodes with
// the highest rendezvous weight, best first (the first entry is the
// natural primary). nodes may arrive in any order; the result is a pure
// function of (seed, shard, set-of-nodes, r).
func Place(seed uint64, nodes []string, shard, r int) []string {
	if r > len(nodes) {
		r = len(nodes)
	}
	type cand struct {
		node   string
		weight uint64
	}
	cands := make([]cand, 0, len(nodes))
	for _, n := range nodes {
		cands = append(cands, cand{n, sim.Mix(seed, uint64(shard), sim.FNV1a64(n))})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].weight != cands[j].weight {
			return cands[i].weight > cands[j].weight
		}
		return cands[i].node < cands[j].node
	})
	out := make([]string, r)
	for i := 0; i < r; i++ {
		out[i] = cands[i].node
	}
	return out
}
