// Package crashtest implements the paper's reliability experiment (§3):
// crash a running system with injected faults, reboot, and measure how
// often file data is corrupted. It holds the one crash run
// (RunWorkloadOne), the one campaign engine every campaign and scenario
// issues its runs into (Scheduler), and the Table 1 campaign over the
// paper's three columns, any of whose runs Replay re-runs traced:
//
//	disk-based write-through — fsync after every write, cold reboot + fsck
//	Rio without protection   — no reliability writes, warm reboot
//	Rio with protection      — plus file-cache write protection
//
// Corruption is detected two ways, as in the paper: registry checksums
// catch direct corruption of any file-cache buffer, and the memTest oracle
// catches both direct and indirect corruption of its own files. Static
// duplicate files provide a final cross-check.
package crashtest

import (
	"bytes"
	"fmt"

	"rio/internal/disk"
	"rio/internal/fault"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/sim"
	"rio/internal/warmreboot"
	"rio/internal/workload"
)

// System selects a Table 1 column. Its value is a coordinate of every
// run seed (RunSeed), so the columns keep 0, 1 and 2.
type System int

const (
	DiskWT System = iota
	RioNoProt
	RioProt
)

// systemNames are the columns' crash spellings; systemConfigs the rows of
// fs.Configs they mount.
var (
	systemNames   = [...]string{"disk-based", "rio-noprot", "rio-prot"}
	systemConfigs = [...]fs.ConfigID{fs.UFSWTWrite, fs.RioNoProt, fs.RioProt}
)

// SystemByName resolves a column from its crash spelling.
func SystemByName(name string) (System, bool) {
	for _, sys := range Systems {
		if systemNames[sys] == name {
			return sys, true
		}
	}
	return 0, false
}

func (s System) String() string {
	if s >= 0 && int(s) < len(systemNames) {
		return systemNames[s]
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// Config is the row of fs.Configs the column mounts.
func (s System) Config() fs.Config { return fs.Configs[systemConfigs[s]] }

// MarshalText makes a System its name in JSON.
func (s System) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Systems lists the three columns in Table 1 order.
var Systems = []System{DiskWT, RioNoProt, RioProt}

// RunConfig parameterises one crash run.
type RunConfig struct {
	Seed         uint64
	WarmupOps    int // ops before injection
	MaxOps       int // ops after injection before the run is discarded
	MemTestBytes int // memTest file-set budget (RunOne's workload)

	// DiskFaults turns the run into a double-fault experiment: recovery
	// executes against a disk injecting transient, latent, and
	// misdirected storage faults (a deterministic per-run plan), and —
	// on the Rio systems — a second crash halts the warm reboot at a
	// seed-derived boundary of the machine's crash point, after which
	// recovery restarts from the same memory dump; a workload with a
	// recovery protocol of its own (the txn roll-forward) has that halted
	// and restarted too. The plan is detached before verification, so
	// only damage recovery failed to contain counts as corruption.
	DiskFaults bool
}

// Salts for the per-run derived randomness. Every stream derives purely
// from the run seed via sim.Mix — no shared PRNG is consumed — so the
// campaign report stays byte-identical at any worker count.
const (
	diskFaultSalt     = 0xD15CFA17
	recoveryCrashSalt = 0x2ECC4A57
	regNoiseSalt      = 0x4E6015E5
	coldBootSalt      = 0xC01DB007
	txnRecoverySalt   = 0x7872EC04
	// recoveryCrashWindow bounds the crash point armed in the warm
	// reboot. Points past the protocol's end leave the recovery
	// uninterrupted, so the campaign samples both interrupted and clean
	// recoveries.
	recoveryCrashWindow = 48
	// txnRecoveryWindow is the same bound for the workload's own
	// recovery, where a draw of 0 arms nothing. Rolling one small txn
	// record forward passes only a handful of points, so a small window
	// samples both interrupted and clean roll-forwards.
	txnRecoveryWindow = 8
	// vmBudget is the instruction budget of one interpreted kernel entry
	// in a crash run: a faulted kernel that retires this many is hung.
	vmBudget = 400_000
	// A replay's tracer ring and the execution tail its post-mortem prints.
	traceRing, traceTail = 4096, 40
)

// DefaultRunConfig returns the standard parameters, scaled from the paper
// to simulator volumes.
func DefaultRunConfig(seed uint64) RunConfig {
	return RunConfig{
		Seed:         seed,
		WarmupOps:    30,
		MaxOps:       250,
		MemTestBytes: 1 << 21, // 2 MB file set
	}
}

// WorkloadFactory builds a fresh workload instance for one crash run.
// The seed is the run's workload stream; writeThrough is true on the
// disk-based write-through column, where the workload must fsync its
// completed writes to be entitled to durability convictions.
type WorkloadFactory func(seed uint64, writeThrough bool) workload.Workload

// recoverer is a workload that layers a recovery protocol of its own on
// the file system's (TxnTest: the txn log roll-forward). The crash run
// calls Recover once the machine is back up and before Check, still
// under the double-fault disk plan. A Recover the machine's crash point
// halts (kernel.ErrCrashPoint) is the second crash: CrashPoint.Restart
// calls it again, and it must converge. quarantined counts records it
// refused as damaged.
type recoverer interface {
	Recover(fsys *fs.FS) (quarantined int, err error)
}

// WorkloadResult is the outcome of one crash run.
type WorkloadResult struct {
	System System
	Fault  fault.Type
	Seed   uint64

	// Crashed is false when the faults never took the system down within
	// MaxOps; such runs are discarded, as in the paper (about half their
	// runs).
	Crashed     bool
	CrashKind   kernel.CrashKind
	CrashReason string
	OpsToCrash  int

	// Verdict is the workload's own classification of the recovered
	// tree. Torn/Lost convictions are downgraded to detected corruption
	// when recovery did not certify the storage clean: damage the system
	// itself flagged is a detected storage failure, not a silent
	// consistency breach.
	Verdict workload.Verdict
	// Corrupted is true when any durable file data was wrong after
	// recovery.
	Corrupted bool
	// TornMasked / LostMasked count convictions downgraded by that
	// rule, so the report still shows the raw signal.
	TornMasked int
	LostMasked int

	// StaticCorrupted: the untouched duplicate files differed.
	StaticCorrupted bool
	// ChecksumDetected: the registry checksum mechanism flagged direct
	// corruption at warm reboot (Rio systems only).
	ChecksumDetected bool
	// ProtectionInvoked: the crash was Rio's protection trap halting an
	// illegal file-cache store.
	ProtectionInvoked bool

	// Recovery-path observability (meaningful when DiskFaults is on).
	// RecoveryInterrupted / TxnRecoveryInterrupted: a second crash hit
	// the warm reboot / the workload's own roll-forward, which was then
	// restarted (the warm reboot from the same dump) and completed.
	RecoveryInterrupted    bool
	TxnRecoveryInterrupted bool
	// RecoveryAborted: recovery returned an error instead of a report —
	// the volume was left half-restored. The double-fault acceptance
	// criterion is that this never happens: every run must end
	// restored-or-quarantined.
	RecoveryAborted bool
	// Quarantined: dirty pages recovery could not restore (retries
	// exhausted); the loss is bounded and reported, not fatal.
	Quarantined int
	// Salvaged: orphaned dirty pages preserved under /lost+found.
	Salvaged int
	// TxnQuarantined counts records the workload's roll-forward refused
	// as deterministically unappliable. The txn workload only stages
	// writes, so any refusal means storage damage recovery has already
	// accounted for — but it still disqualifies the run from convicting
	// the txn layer of a torn commit.
	TxnQuarantined int
	// VolumeLost: after the metadata restore, fsck could not certify
	// the volume or it would not mount; the machine never booted, so
	// the whole volume counts as corrupted but the recovery itself
	// completed its protocol.
	VolumeLost bool
}

const nStatic = 3

func staticPath(i int, copyB bool) string {
	c := "a"
	if copyB {
		c = "b"
	}
	return fmt.Sprintf("/static/%s%d", c, i)
}

func staticContent(i int) []byte {
	return kernel.FillBytes(3000+700*i, (0x57a71c+uint64(i))|1)
}

// buildMachine assembles the system under test on st.
func buildMachine(st *machine.Storage, sys System, cfg RunConfig) (*machine.Machine, error) {
	if sys < 0 || int(sys) >= len(systemConfigs) {
		return nil, fmt.Errorf("crashtest: no system %v", sys)
	}
	opt := machine.DefaultOptions(sys.Config().Policy)
	opt.FastPath = false // faults act on interpreted kernel code
	opt.Checksums = true
	opt.Seed = cfg.Seed
	// Crash runs use a larger physical memory than the cache occupies, as
	// on the paper's machines, so a wild physical address usually misses
	// the file cache.
	opt.MemPages = 2048
	m, err := machine.NewOn(st, opt, nil)
	if err != nil {
		return nil, err
	}
	m.Kernel.VM.Budget = vmBudget
	// Register noise: between kernel entries the register file has been
	// churned by unrelated kernel code, so stale registers rarely still
	// hold live file-cache pointers.
	noise := sim.NewRand(sim.Mix(cfg.Seed, regNoiseSalt))
	m.Kernel.VM.RegNoise = func() (uint64, bool) {
		if noise.Float64() < 0.85 {
			return noise.Uint64(), true
		}
		return 0, false
	}
	return m, nil
}

// setupStatic writes the untouched duplicate files.
func setupStatic(m *machine.Machine) error {
	if err := m.FS.Mkdir("/static"); err != nil {
		return err
	}
	for i := 0; i < nStatic; i++ {
		for _, b := range []bool{false, true} {
			op := workload.Op{Kind: workload.OpCreate, Path: staticPath(i, b), Data: staticContent(i)}
			if _, err := workload.Apply(m.FS, op); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkStatic(m *machine.Machine) bool {
	for i := 0; i < nStatic; i++ {
		want := staticContent(i)
		a, _ := m.FS.ReadFile(staticPath(i, false))
		b, _ := m.FS.ReadFile(staticPath(i, true))
		if !bytes.Equal(a, want) || !bytes.Equal(b, want) {
			return true // corrupted, unreadable, or a smashed size
		}
	}
	return false
}

// memTest is Table 1's workload factory: memTest over a file set of
// the given size.
func memTest(bytes int) WorkloadFactory {
	return func(seed uint64, writeThrough bool) workload.Workload {
		mt := workload.NewMemTest(seed, bytes)
		mt.WriteThrough = writeThrough
		return mt
	}
}

// RunOne is the Table 1 crash run: RunWorkloadOne driving memTest.
func RunOne(st *machine.Storage, sys System, ft fault.Type, cfg RunConfig) (WorkloadResult, error) {
	return RunWorkloadOne(st, sys, ft, cfg, memTest(cfg.MemTestBytes))
}

// RunWorkloadOne executes a single crash run: boot the chosen system,
// warm the workload up, inject the fault, run to the crash, recover, and
// let the workload classify what survived. Every stream derives from
// cfg.Seed — one root stream forked in a fixed order, the recovery-path
// salts mixed in — so a run is replayable from (sys, fault, cfg) alone.
// The machine is built on st (nil: new storage), which a campaign hands
// from run to run; the result does not depend on what st held before.
func RunWorkloadOne(st *machine.Storage, sys System, ft fault.Type, cfg RunConfig, mk WorkloadFactory) (WorkloadResult, error) {
	return runWorkload(st, sys, ft, cfg, mk, nil)
}

// runWorkload is RunWorkloadOne; a non-nil pm traces the run and gets
// the post-mortem taken at the crash, before recovery.
func runWorkload(st *machine.Storage, sys System, ft fault.Type, cfg RunConfig, mk WorkloadFactory, pm **machine.Postmortem) (res WorkloadResult, err error) {
	// Fault injection drives the simulator into states no normal workload
	// reaches; a simulator-level panic must surface as a harness error on
	// this one run, not kill a 2000-run campaign.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("crashtest: simulator panic (sys=%v fault=%v seed=%d): %v",
				sys, ft, cfg.Seed, r)
		}
	}()
	res = WorkloadResult{System: sys, Fault: ft, Seed: cfg.Seed}
	root := sim.NewRand(cfg.Seed)
	faultRng := root.Fork()
	wlSeed := root.Uint64()

	w := mk(wlSeed, sys == DiskWT)
	if _, ok := w.(recoverer); ok && sys == DiskWT {
		return res, fmt.Errorf("crashtest: %s recovers on top of a warm reboot (transactions commit into the protected cache); %v has none", w.Name(), sys)
	}
	m, err := buildMachine(st, sys, cfg)
	if err != nil {
		return res, err
	}
	if pm != nil {
		m.EnableTrace(traceRing)
	}
	if err := setupStatic(m); err != nil {
		return res, fmt.Errorf("crashtest: static setup: %w", err)
	}
	if err := w.Setup(m.FS); err != nil {
		return res, fmt.Errorf("crashtest: workload setup: %w", err)
	}
	for i := 0; i < cfg.WarmupOps; i++ {
		if err := w.Step(m.FS); err != nil {
			return res, fmt.Errorf("crashtest: warmup step %d: %w", i, err)
		}
	}

	if err := fault.Inject(m, ft, faultRng); err != nil {
		return res, err
	}

	for i := 0; i < cfg.MaxOps; i++ {
		// An error without a kernel crash is ignored: the op failed but
		// the system limps on, as real faulted kernels sometimes do, and
		// the workload's state machine treats the op as un-acked.
		_ = w.Step(m.FS)
		if c := m.Crashed(); c != nil {
			res.Crashed = true
			res.CrashKind = c.Kind
			res.CrashReason = c.Reason
			res.OpsToCrash = i + 1
			res.ProtectionInvoked = c.Kind == kernel.CrashProtection
			break
		}
	}
	if !res.Crashed {
		return res, nil // discarded by the campaign
	}
	if pm != nil {
		*pm, _ = m.BuildPostmortem(traceTail) // crashed and traced: cannot fail
	}
	m.CrashFinish()

	// Double-fault mode: recovery runs against a faulty disk. The plan is
	// detached again before verification — latent damage recovery failed
	// to contain persists and is scored, but the oracle's own reads are
	// not re-faulted.
	if cfg.DiskFaults {
		plan := disk.DefaultFaultPlan(sim.Mix(cfg.Seed, diskFaultSalt))
		m.Disk.SetFaultPlan(&plan)
	}
	unverifiable := recoverMachine(m, sys, cfg, w, &res)
	m.Disk.SetFaultPlan(nil)
	if unverifiable != "" {
		res.Corrupted = true
		res.Verdict.Corruptions = []workload.Corruption{{Path: "/", Detail: unverifiable}}
		return res, nil
	}

	res.Verdict = w.Check(m.FS)
	res.StaticCorrupted = checkStatic(m)
	if res.TxnQuarantined > 0 {
		res.Verdict.Corruptions = append(res.Verdict.Corruptions, workload.Corruption{
			Path: "/", Detail: fmt.Sprintf("%d %s records quarantined (storage damage)", res.TxnQuarantined, w.Name())})
	}

	// The recovery-clean rule: only a run whose recovery certified the
	// storage intact can convict the stack of a silent Torn/Lost breach.
	// When recovery itself reported damage (checksum hits, quarantined or
	// salvaged pages, refused txn records), mixed ids or a rolled-back
	// ack are detected storage corruption, not a torn commit.
	recoveryClean := !res.ChecksumDetected && res.Quarantined == 0 && res.Salvaged == 0 &&
		res.TxnQuarantined == 0
	if !recoveryClean {
		res.TornMasked, res.LostMasked = res.Verdict.Torn, res.Verdict.Lost
		res.Verdict.Torn, res.Verdict.Lost = 0, 0
		if res.TornMasked > 0 || res.LostMasked > 0 {
			res.Verdict.Corruptions = append(res.Verdict.Corruptions, workload.Corruption{
				Path: "/", Detail: fmt.Sprintf(
					"recovery reported damage: %d torn / %d lost downgraded to detected corruption",
					res.TornMasked, res.LostMasked)})
		}
	}
	res.Corrupted = len(res.Verdict.Corruptions) > 0 || res.StaticCorrupted
	return res, nil
}

// recoverMachine brings the crashed machine back: cold boot plus fsck on
// the disk-based column; on the Rio systems a warm reboot from the
// memory dump, then the workload's own recovery protocol if it has one.
// In double-fault mode a second crash halts each of those two at a
// seed-derived crash point and the halted phase restarts. A non-empty
// return means recovery left no tree to verify: the whole volume is the
// corruption — the worst outcome, not a harness error.
func recoverMachine(m *machine.Machine, sys System, cfg RunConfig, w workload.Workload, res *WorkloadResult) (unverifiable string) {
	if sys == DiskWT {
		if _, err := warmreboot.Cold(m, sim.Mix(cfg.Seed, coldBootSalt)); err != nil {
			return "volume unrecoverable: " + err.Error() // e.g. a torn superblock
		}
		return ""
	}

	// The image lives in the storage's dump area; nothing rewrites it before
	// the run ends, so an interrupted recovery restarts from it as it is.
	image := warmreboot.Capture(m)
	warmAt, txnAt := -1, -1
	if cfg.DiskFaults {
		warmAt = int(sim.Mix(cfg.Seed, recoveryCrashSalt) % recoveryCrashWindow)
		txnAt = int(sim.Mix(cfg.Seed, txnRecoverySalt)%txnRecoveryWindow) - 1
	}
	cp := m.Kernel.CrashPoint
	var rep *warmreboot.Report
	var err error
	res.RecoveryInterrupted, err = cp.Restart(warmAt, func() (err error) {
		rep, err = warmreboot.Restore(m, image)
		return err
	})
	if err != nil {
		res.RecoveryAborted = true
		return "warm reboot failed: " + err.Error()
	}
	res.ChecksumDetected = rep.ChecksumMismatches > 0
	res.Quarantined = rep.MetaFailed + rep.DataFailed
	res.Salvaged = rep.Salvaged
	if rep.VolumeLost {
		// The recovery protocol completed, but the volume failed fsck or
		// would not mount and the machine never booted.
		res.VolumeLost = true
		return "volume lost: " + rep.Fsck.String()
	}

	rw, ok := w.(recoverer)
	if !ok {
		return ""
	}
	res.TxnRecoveryInterrupted, err = cp.Restart(txnAt, func() (err error) {
		res.TxnQuarantined, err = rw.Recover(m.FS)
		return err
	})
	if err != nil {
		res.RecoveryAborted = true
		return w.Name() + " roll-forward failed: " + err.Error()
	}
	return ""
}
