// Package crashtest implements the paper's reliability experiment (§3):
// crash a running system with injected faults, reboot, and measure how
// often file data is corrupted. It holds the one crash run
// (RunWorkloadOne), the one campaign engine every campaign and scenario
// issues its runs into (Scheduler), and the Table 1 campaign over the
// paper's three columns:
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

// System selects a Table 1 column.
type System int

const (
	DiskWT System = iota
	RioNoProt
	RioProt
)

var systemNames = [...]string{"disk-based", "rio-noprot", "rio-prot"}

func (s System) String() string {
	if s >= 0 && int(s) < len(systemNames) {
		return systemNames[s]
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// MarshalText makes a System its name in JSON.
func (s System) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Systems lists the three columns in Table 1 order.
var Systems = []System{DiskWT, RioNoProt, RioProt}

// RunConfig parameterises one crash run.
type RunConfig struct {
	Seed         uint64
	WarmupOps    int // ops before injection
	MaxOps       int // ops after injection before the run is discarded
	FaultCount   int // faults injected per run (paper: 20)
	MemTestBytes int // memTest file-set budget (RunOne's workload)

	// DiskFaults turns the run into a double-fault experiment: recovery
	// executes against a disk injecting transient, latent, and
	// misdirected storage faults (a deterministic per-run plan), and —
	// on the Rio systems — a second crash interrupts the warm reboot at
	// a seed-derived step, after which recovery restarts from the same
	// memory dump; a workload with a recovery protocol of its own (the
	// txn roll-forward) has that interrupted and restarted too. The plan
	// is detached before verification, so only damage recovery failed to
	// contain counts as corruption.
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
	// recoveryCrashWindow bounds the injected second-crash step. Steps
	// past the protocol's end leave the recovery uninterrupted, so the
	// campaign samples both interrupted and clean recoveries.
	recoveryCrashWindow = 48
	// txnRecoveryWindow is the same bound for the workload's own
	// recovery. Rolling one small txn record forward takes only a
	// handful of steps, so a small window samples both interrupted and
	// clean roll-forwards.
	txnRecoveryWindow = 8
	// vmBudget is the instruction budget of one interpreted kernel entry
	// in a crash run: a faulted kernel that retires this many is hung.
	vmBudget = 400_000
)

// DefaultRunConfig returns the standard parameters, scaled from the paper
// to simulator volumes.
func DefaultRunConfig(seed uint64) RunConfig {
	return RunConfig{
		Seed:         seed,
		WarmupOps:    30,
		MaxOps:       250,
		FaultCount:   fault.DefaultCount,
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
// under the double-fault disk plan. crashAtStep > 0 is the second crash:
// the protocol is interrupted at that step, restarted, and must
// converge. quarantined counts records it refused as damaged.
type recoverer interface {
	Recover(fsys *fs.FS, crashAtStep int) (interrupted bool, quarantined int, err error)
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
	var pol fs.Policy
	switch sys {
	case DiskWT:
		pol = fs.DefaultPolicy(fs.PolicyUFSWTWrite)
	case RioNoProt:
		pol = fs.DefaultPolicy(fs.PolicyRio)
		pol.Protect = false
	case RioProt:
		pol = fs.DefaultPolicy(fs.PolicyRio)
		pol.Protect = true
	}
	opt := machine.DefaultOptions(pol)
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
			f, err := m.FS.Create(staticPath(i, b))
			if err != nil {
				return err
			}
			if _, err := f.Write(staticContent(i)); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkStatic(m *machine.Machine) bool {
	read := func(p string) []byte {
		f, err := m.FS.Open(p)
		if err != nil {
			return nil
		}
		defer f.Close()
		st, err := m.FS.Stat(p)
		if err != nil || st.Size > 1<<20 {
			return nil // a corrupt inode size is corruption too
		}
		buf := make([]byte, st.Size)
		if _, err := f.ReadAt(buf, 0); err != nil {
			return nil
		}
		return buf
	}
	for i := 0; i < nStatic; i++ {
		want := staticContent(i)
		a := read(staticPath(i, false))
		b := read(staticPath(i, true))
		if !bytes.Equal(a, want) || !bytes.Equal(b, want) {
			return true // corrupted
		}
	}
	return false
}

// RunOne is the Table 1 crash run: RunWorkloadOne driving memTest.
func RunOne(st *machine.Storage, sys System, ft fault.Type, cfg RunConfig) (WorkloadResult, error) {
	return RunWorkloadOne(st, sys, ft, cfg, func(seed uint64, writeThrough bool) workload.Workload {
		mt := workload.NewMemTest(seed, cfg.MemTestBytes)
		mt.WriteThrough = writeThrough
		return mt
	})
}

// RunWorkloadOne executes a single crash run: boot the chosen system,
// warm the workload up, inject the fault, run to the crash, recover, and
// let the workload classify what survived. Every stream derives from
// cfg.Seed — one root stream forked in a fixed order, the recovery-path
// salts mixed in — so a run is replayable from (sys, fault, cfg) alone.
// The machine is built on st (nil: new storage), which a campaign hands
// from run to run; the result does not depend on what st held before.
func RunWorkloadOne(st *machine.Storage, sys System, ft fault.Type, cfg RunConfig, mk WorkloadFactory) (res WorkloadResult, err error) {
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

	if err := fault.Inject(m, ft, cfg.FaultCount, faultRng); err != nil {
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
// In double-fault mode a second crash interrupts each of those two at a
// seed-derived step and the interrupted phase restarts. A non-empty
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
	opts := warmreboot.DefaultOptions()
	if cfg.DiskFaults {
		opts.CrashAtStep = int(sim.Mix(cfg.Seed, recoveryCrashSalt) % recoveryCrashWindow)
	}
	rep, err := warmreboot.Restore(m, image, opts)
	if err == warmreboot.ErrInterrupted {
		// Restart from the same immutable image.
		res.RecoveryInterrupted = true
		rep, err = warmreboot.Restore(m, image, warmreboot.DefaultOptions())
	}
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
	crashAtStep := 0
	if cfg.DiskFaults {
		crashAtStep = int(sim.Mix(cfg.Seed, txnRecoverySalt) % txnRecoveryWindow)
	}
	res.TxnRecoveryInterrupted, res.TxnQuarantined, err = rw.Recover(m.FS, crashAtStep)
	if err != nil {
		res.RecoveryAborted = true
		return w.Name() + " roll-forward failed: " + err.Error()
	}
	return ""
}
