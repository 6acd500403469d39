package scenario

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rio/internal/crashtest"
	"rio/internal/fault"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/server"
	"rio/internal/sim"
	"rio/internal/wire"
	"rio/internal/workload"
)

// Salts namespacing the scenario engine's derived seed streams. Every
// plan seed is sim.Mix(spec.Seed, salt, coordinates...) — no stream is
// ever shared between plans, so plans parallelise freely.
const (
	crashPlanSalt  = 0x5CECA5F7
	serverPlanSalt = 0x5CE5E44E
	serverKeySalt  = 0xC0FFEE42
	serverShard    = 0xC7A54D0
	serverDataSalt = 0xDA7AB10B
)

// crashAttempts bounds fault-injection retries per crash plan: a plan
// whose faults never take the system down within this many derived
// seeds is scored discarded, as in the paper (about half their runs).
const crashAttempts = 6

// Runner executes scenarios. The zero value runs at GOMAXPROCS with no
// clock: byte-identical reports, empty latency tables. cmd/rioscn
// passes Now=time.Now to populate timing.
type Runner struct {
	// Workers caps plan-level parallelism; 0 = GOMAXPROCS.
	Workers int
	// Now, when non-nil, is the wall clock for latency accounting.
	// Timing never enters the canonical JSON report. Determinism-
	// critical code must not read wall time; the clock is injected
	// here, at the edge, by non-deterministic callers only.
	Now func() time.Time
	// Progress, when set, receives one line per folded plan.
	Progress func(string)
}

// Run compiles and executes one validated spec.
func (r *Runner) Run(spec *Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindCrash:
		return r.runCrash(spec)
	case KindServer:
		return r.runServer(spec)
	case KindFleet:
		return r.runFleet(spec)
	}
	return nil, fmt.Errorf("scenario: unknown kind %q", spec.Kind)
}

// elapsed returns a closure measuring wall time since now; zero
// duration without a clock.
func (r *Runner) elapsed() func() int64 {
	if r.Now == nil {
		return func() int64 { return 0 }
	}
	start := r.Now()
	return func() int64 { return int64(r.Now().Sub(start)) }
}

// runPlans issues the spec's plans into the campaign scheduler as one
// cell whose fold never reports full: every plan is folded into out, in
// plan order, whatever the worker count. It then totals out; an error is
// the scheduler's abort (the heap tripwire).
func runPlans[R any](r *Runner, spec *Spec, out *Result, plan func(i int, st *machine.Storage) (R, error), fold func(crashtest.Outcome[R])) (*Result, error) {
	total := r.elapsed()
	s := crashtest.NewScheduler[R](r.Workers, r.Now)
	s.RunCell(crashtest.CellPlan[R]{
		Label:    "scenario " + spec.Name,
		Attempts: spec.Runs,
		Window:   s.Workers,
		Run:      plan,
		Fold: func(o crashtest.Outcome[R]) bool {
			fold(o)
			return false
		},
	})
	if _, err := s.Close(); err != nil {
		return nil, err
	}
	out.finish()
	out.ElapsedNs = total()
	return out, nil
}

// compileWorkload turns the workload spec into a per-run factory.
func compileWorkload(w WorkloadSpec) crashtest.WorkloadFactory {
	return func(seed uint64, writeThrough bool) workload.Workload {
		switch w.Name {
		case "txntest":
			return workload.NewTxnTest(seed, w.Accounts)
		case "metacache":
			mc := workload.NewMetaCache(seed, w.Files, w.Skew)
			mc.WriteThrough = writeThrough
			return mc
		case "mailspool":
			ms := workload.NewMailSpool(seed, w.Queue)
			ms.WriteThrough = writeThrough
			return ms
		case "hotkey":
			hk := workload.NewHotKey(seed, w.Keys, w.Skew, w.EpochLen)
			hk.WriteThrough = writeThrough
			return hk
		case "scan":
			sc := workload.NewScan(seed, w.Segments, w.BatchesPerSeg)
			sc.WriteThrough = writeThrough
			return sc
		default: // memtest (Validate guarantees the name set)
			mt := workload.NewMemTest(seed, w.Bytes)
			mt.WriteThrough = writeThrough
			return mt
		}
	}
}

// --- crash kind ---

func (r *Runner) runCrash(spec *Spec) (*Result, error) {
	systems := make([]crashtest.System, len(spec.Topology.Systems))
	for i, name := range spec.Topology.Systems {
		systems[i], _ = systemByName(name) // Validate already resolved
	}
	var fts []fault.Type
	if len(spec.Faults.Types) == 0 {
		fts = append(fts, fault.AllTypes...)
	} else {
		for _, name := range spec.Faults.Types {
			ft, _ := faultByName(name)
			fts = append(fts, ft)
		}
	}

	out := &Result{Name: spec.Name, Kind: spec.Kind, Workload: spec.Workload.Name,
		Seed: spec.Seed, Runs: spec.Runs}
	for _, sys := range systems {
		for _, ft := range fts {
			out.Cells = append(out.Cells, Cell{Label: sys.String() + "/" + ft.String()})
		}
	}
	mk := compileWorkload(spec.Workload)

	// Plan i lands on cell (i mod systems, i/systems mod faults).
	coords := func(i int) (sysIdx, ftIdx int) { return i % len(systems), (i / len(systems)) % len(fts) }
	plan := func(i int, st *machine.Storage) (res crashtest.WorkloadResult, err error) {
		sysIdx, ftIdx := coords(i)
		// Fault-injection attempts: first seed that actually crashes is
		// the scored run; a plan that never crashes is discarded.
		for a := 0; a < crashAttempts && !res.Crashed && err == nil; a++ {
			res, err = crashtest.RunWorkloadOne(st, systems[sysIdx], fts[ftIdx], crashtest.RunConfig{
				Seed:         sim.Mix(spec.Seed, crashPlanSalt, uint64(i), uint64(a)),
				WarmupOps:    spec.Schedule.WarmupOps,
				MaxOps:       spec.Schedule.MaxOps,
				FaultCount:   spec.Faults.Count,
				MemTestBytes: spec.Workload.Bytes,
				DiskFaults:   spec.Faults.DiskFaults,
			}, mk)
		}
		return res, err
	}
	return runPlans(r, spec, out, plan, func(o crashtest.Outcome[crashtest.WorkloadResult]) {
		sysIdx, ftIdx := coords(o.Attempt)
		c := &out.Cells[sysIdx*len(fts)+ftIdx]
		c.Runs++
		c.ElapsedNs += int64(o.Elapsed)
		switch {
		case o.Err != nil:
			c.Errors++
			c.LastError = o.Err.Error()
		case !o.Res.Crashed:
			c.Discarded++
		default:
			c.Crashed++
			foldWorkloadResult(c, &o.Res)
		}
		if r.Progress != nil {
			r.Progress(fmt.Sprintf("%s plan %03d %s: crashed=%v lost=%d torn=%d corruptions=%d",
				spec.Name, o.Attempt, c.Label, o.Res.Crashed,
				o.Res.Verdict.Lost, o.Res.Verdict.Torn, len(o.Res.Verdict.Corruptions)))
		}
	})
}

// foldWorkloadResult accumulates one scored crash run into its cell.
func foldWorkloadResult(c *Cell, res *crashtest.WorkloadResult) {
	c.Checked += res.Verdict.Checked
	c.Corruptions += len(res.Verdict.Corruptions)
	if res.Corrupted {
		c.Corrupted++
	}
	c.Lost += res.Verdict.Lost
	c.Torn += res.Verdict.Torn
	c.TornMasked += res.TornMasked
	c.LostMasked += res.LostMasked
	if res.ChecksumDetected {
		c.ChecksumDetected++
	}
	if res.ProtectionInvoked {
		c.ProtectionInvoked++
	}
	c.Quarantined += res.Quarantined
	c.Salvaged += res.Salvaged
	if res.VolumeLost {
		c.VolumeLost++
	}
	if res.RecoveryInterrupted {
		c.RecoveryInterrupted++
	}
	if res.TxnRecoveryInterrupted {
		c.TxnRecoveryInterrupted++
	}
	if res.RecoveryAborted {
		c.RecoveryAborted++
	}
}

// --- server kind ---

// serverPlanOutcome is one crash-under-load run's tally.
type serverPlanOutcome struct {
	acked   int
	unacked int
	lost    int
	corrupt int
	checked int
}

func (r *Runner) runServer(spec *Spec) (*Result, error) {
	out := &Result{Name: spec.Name, Kind: spec.Kind, Workload: spec.Workload.Name,
		Seed: spec.Seed, Runs: spec.Runs,
		Cells: []Cell{{Label: fmt.Sprintf("server/%d-shards/crash-under-load", spec.Topology.Shards)}}}

	c := &out.Cells[0]
	plan := func(i int, _ *machine.Storage) (serverPlanOutcome, error) {
		return runServerPlan(spec, sim.Mix(spec.Seed, serverPlanSalt, uint64(i)))
	}
	return runPlans(r, spec, out, plan, func(o crashtest.Outcome[serverPlanOutcome]) {
		c.Runs++
		c.Crashed++ // every server plan crashes a shard by schedule
		c.ElapsedNs += int64(o.Elapsed)
		if o.Err != nil {
			c.Errors++
			c.LastError = o.Err.Error()
			return
		}
		c.Acked += o.Res.acked
		c.Unacked += o.Res.unacked
		c.Lost += o.Res.lost
		c.Corruptions += o.Res.corrupt
		c.Checked += o.Res.checked
		if o.Res.corrupt > 0 {
			c.Corrupted++
		}
		if r.Progress != nil {
			r.Progress(fmt.Sprintf("%s plan %03d: acked=%d unacked=%d lost=%d",
				spec.Name, o.Attempt, o.Res.acked, o.Res.unacked, o.Res.lost))
		}
	})
}

// serverPayload derives the bytes of write op `op` to key `key`. The
// length is a function of the key alone: server writes land at offset
// 0 without truncation, so a shorter rewrite of a hot key would leave
// the old tail in place and the byte-equal read-back would wrongly
// convict it. Content still varies per op, so version confusion is
// caught.
func serverPayload(seed uint64, key, op int) []byte {
	n := 24 + int(sim.Mix(seed, serverDataSalt, uint64(key))%104)
	return kernel.FillBytes(n, sim.Mix(seed, serverDataSalt+1, uint64(op))|1)
}

// runServerPlan is one deterministic crash-under-load run: a
// single-threaded client drives a popularity-keyed write stream
// straight into the server (no retry sleeps — a refused write is
// scored unacked and the stream moves on), a schedule-fixed op crashes
// one shard, a later one warm-reboots it, and every acked write must
// read back byte-equal at the end.
func runServerPlan(spec *Spec, seed uint64) (o serverPlanOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("server plan panic (seed=%d): %v", seed, p)
		}
	}()
	s, err := server.New(server.Config{
		Shards:   spec.Topology.Shards,
		Seed:     seed,
		MemoryMB: 4,
		DiskMB:   8,
	})
	if err != nil {
		return o, err
	}
	defer s.Close()

	cdf := workload.NewKeyCDF(spec.Workload.Keys, spec.Workload.Skew)
	rng := sim.NewRand(sim.Mix(seed, serverKeySalt))
	crashShard := int32(sim.Mix(seed, serverShard) % uint64(spec.Topology.Shards))
	rebootAt := spec.Schedule.CrashAt + spec.Schedule.OutageOps

	// acked maps path -> op index of the last acknowledged write; the
	// verify pass walks it in sorted path order.
	acked := make(map[string]int)
	for op := 0; op < spec.Schedule.MaxOps; op++ {
		switch op {
		case spec.Schedule.CrashAt:
			if resp := s.Do(&wire.Request{Op: wire.OpCrash, Shard: crashShard}); resp.Status != wire.StatusOK {
				return o, fmt.Errorf("admin crash of shard %d: status %v", crashShard, resp.Status)
			}
		case rebootAt:
			if resp := s.Do(&wire.Request{Op: wire.OpWarmboot, Shard: crashShard}); resp.Status != wire.StatusOK {
				return o, fmt.Errorf("admin warmboot of shard %d: status %v", crashShard, resp.Status)
			}
		}
		key := cdf.Pick(rng)
		path := fmt.Sprintf("/k%04d", key)
		resp := s.Do(&wire.Request{Op: wire.OpWrite, Shard: -1, Path: path,
			Data: serverPayload(seed, key, op)})
		switch resp.Status {
		case wire.StatusOK:
			o.acked++
			acked[path] = op
		case wire.StatusAgain:
			// The down shard refuses; it does not half-apply. The
			// closed-loop client moves on — durability is owed only to
			// acknowledged writes.
			o.unacked++
		default:
			return o, fmt.Errorf("write %s at op %d: status %v", path, op, resp.Status)
		}
	}

	// The durability gate: every acked write reads back byte-equal
	// after the outage and warm reboot.
	paths := make([]string, 0, len(acked))
	for p := range acked {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		o.checked++
		var key int
		fmt.Sscanf(p, "/k%04d", &key)
		want := serverPayload(seed, key, acked[p])
		resp := s.Do(&wire.Request{Op: wire.OpRead, Shard: -1, Path: p})
		if resp.Status != wire.StatusOK {
			o.lost++
			continue
		}
		if string(resp.Data) != string(want) {
			o.corrupt++
		}
	}
	return o, nil
}

// --- fleet kind ---

func (r *Runner) runFleet(spec *Spec) (*Result, error) {
	// Plans cycle through the scenario's kind set in the order the spec
	// lists it; the report has one cell per kind in the set, in table
	// order.
	var kinds []fleetFault
	for _, name := range spec.Topology.FleetFaults {
		k, _ := fleetFaultByName(name) // Validate already resolved
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		for k := range fleetFaultNames {
			kinds = append(kinds, fleetFault(k))
		}
	}
	out := &Result{Name: spec.Name, Kind: spec.Kind, Seed: spec.Seed, Runs: spec.Runs}
	var cellOf [len(fleetFaultNames)]int
	for k, name := range fleetFaultNames {
		if slices.Contains(kinds, fleetFault(k)) {
			cellOf[k] = len(out.Cells)
			out.Cells = append(out.Cells, Cell{Label: "fleet/" + name})
		}
	}

	plan := func(i int, _ *machine.Storage) (fleetResult, error) {
		p := fleetPlanFor(spec.Seed, i)
		p.Kind = kinds[i%len(kinds)]
		p.Nodes, p.Shards, p.Replicas = spec.Topology.Nodes, spec.Topology.Shards, spec.Topology.Replicas
		return runFleetPlan(p), nil
	}
	return runPlans(r, spec, out, plan, func(o crashtest.Outcome[fleetResult]) {
		res := &o.Res
		c := &out.Cells[cellOf[res.Plan.Kind]]
		c.Runs++
		c.Crashed++ // every fleet plan injects its fault
		c.ElapsedNs += int64(o.Elapsed)
		if res.Err != "" {
			c.Errors++
			c.LastError = res.Err
		} else {
			c.Checked += res.Acked
			c.Acked += res.Acked
			c.Unacked += res.Unacked
			c.Lost += res.Lost
			c.Stale += res.Stale
			c.Promotions += res.Promotions
			c.Reconfigs += res.Reconfigs
			c.Repairs += res.Repairs
			c.Redirects += res.Redirects
			c.Retries += res.Retries
		}
		if r.Progress != nil {
			r.Progress(fmt.Sprintf("%s plan %03d %s: acked=%d lost=%d stale=%d promo=%d",
				spec.Name, o.Attempt, c.Label, res.Acked, res.Lost, res.Stale, res.Promotions))
		}
	})
}
