package scenario

import (
	"fmt"

	"rio/internal/fleet"
	"rio/internal/server"
	"rio/internal/sim"
	"rio/internal/wire"
)

// fleetPlanSalt namespaces the fleet plans' derived streams.
const fleetPlanSalt = 0xF1EE7CA3

// fleetFault is the fault a fleet plan injects. Plans cycle through the
// kinds by index, so any contiguous run of N >= len(fleetFaultNames)
// plans covers them all.
type fleetFault uint8

const (
	// killPrimary: the primary's machine dies — memory, protected cache
	// and all. Promotion must recover every acked write from a backup.
	killPrimary fleetFault = iota
	// partitionPrimary: the primary is unreachable but intact; it is
	// promoted over, then healed, and must end up fenced.
	partitionPrimary
	// killBackup: a backup dies. Writes must refuse to ack until the
	// coordinator evicts the dead peer and repairs onto a spare.
	killBackup
	// osCrash: the primary's OS crashes and warm-reboots — the paper's
	// own case. No promotion, no snapshot, nothing lost.
	osCrash
	// partitionPair: pairwise cuts sever the primary from its peers and
	// the coordinator while clients can still reach it. Promotion
	// happens behind its back; the deposed-but-ignorant primary must
	// refuse reads (the read fence) instead of serving stale bytes.
	partitionPair
)

// fleetFaultNames is the one table of fault kinds: the index is the
// kind, the entry is its name in a spec's topology.fleet_faults and,
// behind "fleet/", its report cell's label; cells come out in this order.
var fleetFaultNames = [...]string{
	killPrimary:      "kill-primary",
	partitionPrimary: "partition-primary",
	killBackup:       "kill-backup",
	osCrash:          "os-crash",
	partitionPair:    "partition-pair",
}

func (k fleetFault) String() string { return fleetFaultNames[k] }

// fleetFaultByName resolves a fleet fault-kind name.
func fleetFaultByName(name string) (fleetFault, error) {
	for k, n := range fleetFaultNames {
		if n == name {
			return fleetFault(k), nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown fleet fault kind %q", name)
}

// fleetPlan is one run's complete script — fault kind, write counts,
// seed — derived from (campaign seed, index) alone.
type fleetPlan struct {
	Seed     uint64
	Nodes    int
	Shards   int
	Replicas int
	Kind     fleetFault
	// PreWrites writes are acked before the fault; PostWrites after the
	// coordinator converges. Every acked write from both phases must
	// read back byte-equal at the end.
	PreWrites  int
	PostWrites int
}

// fleetPlanFor derives plan i of a campaign. Pure function: same seed
// and index, same plan, on any worker at any time.
func fleetPlanFor(campaignSeed uint64, i int) fleetPlan {
	s := sim.Mix(campaignSeed, fleetPlanSalt, uint64(i))
	return fleetPlan{
		Seed:       s,
		Nodes:      3,
		Shards:     2,
		Replicas:   2,
		Kind:       fleetFault(i % len(fleetFaultNames)),
		PreWrites:  4 + int(sim.Mix(s, 1)%5),
		PostWrites: 4 + int(sim.Mix(s, 2)%5),
	}
}

// fleetPayload derives write k's bytes.
func fleetPayload(seed uint64, k int) []byte {
	n := 16 + int(sim.Mix(seed, 0xDA7A, uint64(k))%48)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(sim.Mix(seed, uint64(k), uint64(i)))
	}
	return b
}

// fleetResult is one run's outcome.
type fleetResult struct {
	Plan fleetPlan

	Acked   int // writes acknowledged
	Unacked int // writes that never acked within the retry budget
	// Lost: acked writes that failed to read back byte-equal after the
	// fault — the number the whole layer exists to keep at zero.
	Lost int
	// Stale: reads a deposed primary served with bytes that contradict
	// acked state (the partition-pair probe). Must be zero: a read that
	// misses acked writes breaks the same promise as losing them.
	Stale int

	Promotions int
	Reconfigs  int
	Repairs    int
	Redirects  uint64
	Retries    uint64
	Err        string
}

// fleetRetryRounds bounds how many tick-and-retry rounds one write (or
// verify read) gets before it is scored unacked/lost. Each round is a
// full client attempt budget plus one coordinator tick, so the budget
// covers detection (MissThreshold ticks) and repair with slack.
const fleetRetryRounds = 8

// runFleetPlan executes one fleet crash plan. It answers the question
// the single-machine run in internal/crashtest cannot: does replication
// extend Rio's durability promise from OS crashes to machine loss? It
// boots a small replicated fleet, acknowledges a batch of writes, injects
// the plan's fault, lets the coordinator converge, keeps writing, and then
// demands every acknowledged write read back byte-equal: Lost and Stale
// must be zero for every fault kind. Traffic is serialized and
// coordinator ticks are explicit, so the run is a deterministic function
// of the plan.
func runFleetPlan(p fleetPlan) (res fleetResult) {
	res = fleetResult{Plan: p}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("fleet run panic (seed=%d kind=%v): %v", p.Seed, p.Kind, r)
		}
	}()

	f, err := fleet.New(fleet.Config{
		Nodes: p.Nodes, Shards: p.Shards, Replicas: p.Replicas, Seed: p.Seed,
	})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	cl := f.Client(nil)

	type ackedWrite struct {
		path string
		data []byte
		// prefix: only the first len(data) bytes are acked — the trailing
		// append never acked, so the file may or may not carry it.
		prefix bool
	}
	var acked []ackedWrite

	// do retries one request across coordinator ticks. The request is
	// built once and reused: fleet.Client pins a resolved append offset
	// into it, so every retry — including ours across rounds — rewrites
	// the same bytes at the same offset instead of appending again.
	do := func(req *wire.Request) bool {
		for round := 0; round < fleetRetryRounds; round++ {
			resp, err := cl.Do(req)
			if err == nil && resp.Status == wire.StatusOK {
				return true
			}
			// Unreachable primary, degraded replication, mid-promotion:
			// give the coordinator a tick and try again.
			f.Tick()
		}
		return false
	}

	// write lands key k in two acked steps: the head as an absolute
	// write at offset 0, the tail as an append (Offset < 0) — the op
	// shape whose retries must not duplicate bytes. A head that acked
	// without its tail is verified as a prefix.
	write := func(k int) {
		path := fmt.Sprintf("/w/k%03d", k)
		head := fleetPayload(p.Seed, k)
		tail := fleetPayload(sim.Mix(p.Seed, 0xA99E), k)
		if !do(&wire.Request{Op: wire.OpWrite, Shard: -1, Path: path, Data: head}) {
			res.Unacked++
			return
		}
		res.Acked++
		acked = append(acked, ackedWrite{path: path, data: head, prefix: true})
		idx := len(acked) - 1
		if !do(&wire.Request{Op: wire.OpWrite, Shard: -1, Offset: -1, Path: path, Data: tail}) {
			res.Unacked++
			return
		}
		res.Acked++
		full := append(append([]byte(nil), head...), tail...)
		acked[idx] = ackedWrite{path: path, data: full}
	}

	ticks := func(n int) {
		for i := 0; i < n; i++ {
			f.Tick()
		}
	}

	k := 0
	for ; k < p.PreWrites; k++ {
		write(k)
	}

	route0 := f.Table().Routes[0]
	healAfter := -1
	switch p.Kind {
	case killPrimary:
		f.Kill(route0.Primary)
		ticks(4)
	case partitionPrimary:
		f.Isolate(route0.Primary)
		ticks(4)
		// Heal mid-way through the post writes so the deposed primary's
		// fencing runs under live traffic.
		healAfter = p.PostWrites / 2
	case killBackup:
		if len(route0.Backups) > 0 {
			f.Kill(route0.Backups[0])
			ticks(2)
		}
	case osCrash:
		n := f.Node(route0.Primary)
		n.CrashNode()
		if err := n.WarmbootNode(); err != nil {
			res.Err = "warmboot: " + err.Error()
			return res
		}
		ticks(1)
	case partitionPair:
		// Pairwise cuts: the primary loses its peers and the coordinator
		// but keeps its client links — the stale-read window.
		tr := f.Transport()
		for _, id := range f.NodeIDs() {
			if id != route0.Primary {
				tr.Cut(route0.Primary, id)
			}
		}
		tr.Cut(route0.Primary, fleet.CoordName)
		ticks(4)
		healAfter = p.PostWrites / 2
	}

	if p.Kind == partitionPair {
		// The stale-read probe: rewrite an acked key on the partitioned
		// shard through the new primary (a fresh client routes straight
		// there), then read it from the old primary — still reachable by
		// clients, ignorant of its deposition. The read fence must refuse;
		// an OK carrying the old bytes is a stale read.
		probe := -1
		for i := range acked {
			if !acked[i].prefix && server.ShardOf(acked[i].path, p.Shards) == route0.Shard {
				probe = i
				break
			}
		}
		if probe >= 0 {
			rew := append([]byte(nil), acked[probe].data...)
			for i := range rew {
				rew[i] ^= 0x5A
			}
			fresh := f.Client(nil)
			rewACK := false
			for round := 0; round < fleetRetryRounds; round++ {
				resp, err := fresh.Do(&wire.Request{Op: wire.OpWrite, Shard: -1, Path: acked[probe].path, Data: rew})
				if err == nil && resp.Status == wire.StatusOK {
					rewACK = true
					break
				}
				f.Tick()
			}
			if rewACK {
				acked[probe].data = rew
				resp, err := f.Transport().Send(fleet.ClientName, route0.Primary,
					&wire.Request{Op: wire.OpRead, Shard: -1, Path: acked[probe].path})
				if err == nil && resp.Status == wire.StatusOK && string(resp.Data) != string(rew) {
					res.Stale++
				}
			}
		}
	}

	for j := 0; j < p.PostWrites; j++ {
		if j == healAfter {
			f.Rejoin(route0.Primary)
			ticks(2)
		}
		write(k)
		k++
	}

	// The durability gate: every acknowledged write reads back
	// byte-equal — exactly for fully acked keys, as a prefix for keys
	// whose trailing append never acked — across whatever the fault did
	// to the fleet.
	for _, aw := range acked {
		ok := false
		for round := 0; round < fleetRetryRounds; round++ {
			resp, err := cl.Do(&wire.Request{Op: wire.OpRead, Shard: -1, Path: aw.path})
			if err == nil && resp.Status == wire.StatusOK {
				if aw.prefix {
					ok = len(resp.Data) >= len(aw.data) && string(resp.Data[:len(aw.data)]) == string(aw.data)
				} else {
					ok = string(resp.Data) == string(aw.data)
				}
				if ok {
					break
				}
			}
			f.Tick()
		}
		if !ok {
			res.Lost++
		}
	}

	m := f.Metrics()
	res.Promotions = int(m.Promotions)
	res.Reconfigs = int(m.Reconfigs)
	res.Repairs = int(m.Repairs)
	res.Redirects = cl.Stats.Redirects
	res.Retries = cl.Stats.Retries
	return res
}
