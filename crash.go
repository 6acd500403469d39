package rio

import (
	"fmt"
	"time"

	"rio/internal/crashtest"
	"rio/internal/disk"
	"rio/internal/fault"
	"rio/internal/warmreboot"
)

// FaultType names one of the paper's thirteen fault models (§3.1).
type FaultType string

// The fault models, in the paper's Table 1 order.
const (
	FaultKernelText   FaultType = "kernel-text"
	FaultKernelHeap   FaultType = "kernel-heap"
	FaultKernelStack  FaultType = "kernel-stack"
	FaultDestReg      FaultType = "destination-reg"
	FaultSrcReg       FaultType = "source-reg"
	FaultDeleteBranch FaultType = "delete-branch"
	FaultDeleteRandom FaultType = "delete-random-inst"
	FaultInit         FaultType = "initialization"
	FaultPointer      FaultType = "pointer"
	FaultAlloc        FaultType = "allocation"
	FaultCopyOverrun  FaultType = "copy-overrun"
	FaultOffByOne     FaultType = "off-by-one"
	FaultSync         FaultType = "synchronization"
)

// FaultTypes lists all thirteen models.
func FaultTypes() []FaultType {
	return []FaultType{
		FaultKernelText, FaultKernelHeap, FaultKernelStack,
		FaultDestReg, FaultSrcReg, FaultDeleteBranch, FaultDeleteRandom,
		FaultInit, FaultPointer, FaultAlloc, FaultCopyOverrun,
		FaultOffByOne, FaultSync,
	}
}

var faultMap = map[FaultType]fault.Type{
	FaultKernelText: fault.TextFlip, FaultKernelHeap: fault.HeapFlip,
	FaultKernelStack: fault.StackFlip, FaultDestReg: fault.DestReg,
	FaultSrcReg: fault.SrcReg, FaultDeleteBranch: fault.DeleteBranch,
	FaultDeleteRandom: fault.DeleteRandom, FaultInit: fault.Init,
	FaultPointer: fault.Pointer, FaultAlloc: fault.Alloc,
	FaultCopyOverrun: fault.CopyOverrun, FaultOffByOne: fault.OffByOne,
	FaultSync: fault.Sync,
}

// InjectFault applies the paper's standard dose (20 faults) of the given
// model to the running system. The system must have been built with
// Config.Interpreted so the faults act on live kernel code.
func (s *System) InjectFault(t FaultType) error {
	ft, ok := faultMap[t]
	if !ok {
		return fmt.Errorf("rio: unknown fault type %q", t)
	}
	if !s.cfg.Interpreted {
		return fmt.Errorf("rio: fault injection requires Config.Interpreted")
	}
	return fault.Inject(s.m, ft, fault.DefaultCount, s.m.Rng.Fork())
}

// Crash halts the machine immediately (as a kernel panic with the given
// reason), completing crash-time I/O semantics: queued disk writes are
// lost, an in-flight sector is torn, and — on non-Rio systems — the dying
// kernel flushes dirty buffers as stock panic() does.
func (s *System) Crash(reason string) {
	if s.m.Crashed() == nil {
		s.m.Kernel.Panic(reason)
	}
	s.m.CrashFinish()
}

// RebootReport summarises a warm reboot.
type RebootReport struct {
	// RegistryEntries found in the memory dump; BadEntries failed CRC.
	RegistryEntries int
	BadEntries      int
	// MetaRestored / DataRestored are dirty buffers written back to the
	// file system.
	MetaRestored int
	DataRestored int
	// ChecksumMismatches is detected direct corruption.
	ChecksumMismatches int
	// Changing buffers were mid-write at crash time.
	Changing int
	// FsckClean reports whether the volume needed no repairs.
	FsckClean bool
	// FsckSummary is the consistency-check report.
	FsckSummary string
}

// WarmReboot performs Rio's two-step warm reboot: dump memory, restore
// dirty metadata to disk, fsck, boot, then restore the UBC through normal
// system calls. The System is usable again afterwards.
func (s *System) WarmReboot() (*RebootReport, error) {
	if s.m.Crashed() == nil {
		// A clean warm reboot is legal (machine maintenance).
		s.m.Kernel.Panic("administrative reboot")
		s.m.CrashFinish()
	}
	return rebootReport(warmreboot.Warm(s.m))
}

// rebootReport turns a finished restore into the public report; a lost
// volume is an error, since the System is not usable afterwards.
func rebootReport(rep *warmreboot.Report, err error) (*RebootReport, error) {
	if err != nil {
		return nil, err
	}
	if rep.VolumeLost {
		return nil, fmt.Errorf("rio: volume lost during recovery: %s", rep.Fsck.String())
	}
	return &RebootReport{
		RegistryEntries:    rep.Entries,
		BadEntries:         rep.BadEntries,
		MetaRestored:       rep.MetaRestored,
		DataRestored:       rep.DataRestored,
		ChecksumMismatches: rep.ChecksumMismatches,
		Changing:           rep.Changing,
		FsckClean:          rep.Fsck.Clean(),
		FsckSummary:        rep.Fsck.String(),
	}, nil
}

// ColdReboot loses memory (as a machine without Rio would), checks the
// disk, and boots fresh: only data that reached the disk survives.
func (s *System) ColdReboot() error {
	_, err := warmreboot.Cold(s.m, s.m.Rng.Uint64())
	return err
}

// AttachUPS adds an uninterruptible power supply with a swap disk sized to
// hold a full memory dump — the paper's one-line answer to power outages.
func (s *System) AttachUPS() error {
	return s.m.AttachSwap(disk.DefaultParams())
}

// PowerFail simulates a power outage. With a UPS attached the machine
// dumps memory to the swap disk before going dark (the returned duration
// is what the battery had to cover); without one, memory is simply lost.
// Recover with RecoverFromUPS (or ColdReboot if there was no UPS).
func (s *System) PowerFail() (batteryTime time.Duration, err error) {
	d, err := s.m.PowerFail(s.m.Rng.Uint64())
	return time.Duration(d), err
}

// RecoverFromUPS boots the machine and restores the file cache from the
// swap-disk dump the UPS saved, exactly as a warm reboot would from RAM.
func (s *System) RecoverFromUPS() (*RebootReport, error) {
	dump, err := s.m.ReadSwapDump()
	if err != nil {
		return nil, err
	}
	return rebootReport(warmreboot.FromDump(s.m, dump))
}

// --- Table 1 campaign ---

// System column indices for CampaignResult accessors, in Table 1 order.
// Use these instead of literal 0/1/2 so call sites cannot silently point
// at the wrong column if system order ever changes.
const (
	SystemDiskWT    = int(crashtest.DiskWT)    // disk-based write-through
	SystemRioNoProt = int(crashtest.RioNoProt) // Rio without protection
	SystemRioProt   = int(crashtest.RioProt)   // Rio with protection
)

// CampaignOptions configures a crash-test campaign.
type CampaignOptions struct {
	// RunsPerCell is the number of crashing runs per (system, fault)
	// cell; the paper used 50. Default 50.
	RunsPerCell int
	// Seed reproduces a campaign exactly. Default 1.
	Seed uint64
	// Workers is the number of goroutines running crash tests
	// concurrently; 0 uses all available cores (GOMAXPROCS). Each run's
	// seed is derived purely from (Seed, system, fault, attempt), so the
	// result is the same at any worker count.
	Workers int
	// Progress, if non-nil, receives one line per completed cell plus
	// throttled campaign-level updates; calls are serialised.
	Progress func(string)
	// DiskFaults turns the campaign into a double-fault experiment:
	// recovery runs against a disk injecting transient, latent, and
	// misdirected storage faults, and a second crash interrupts the warm
	// reboot at a seed-derived step (the recovery then restarts from the
	// same memory dump). See CampaignResult.RecoveryTable for the extra
	// columns this populates.
	DiskFaults bool
}

// CampaignResult is a completed Table 1 reproduction.
type CampaignResult struct {
	rep *crashtest.Report
}

// Table renders the result in the paper's Table 1 layout.
func (r *CampaignResult) Table() string { return r.rep.Table() }

// RecoveryTable renders the double-fault recovery columns: per system,
// how many recoveries were interrupted by a second crash, aborted,
// quarantined pages, salvaged pages, and volumes lost. All zeros unless
// the campaign ran with CampaignOptions.DiskFaults.
func (r *CampaignResult) RecoveryTable() string { return r.rep.RecoveryTable() }

// SystemNames returns the three column labels.
func (r *CampaignResult) SystemNames() []string {
	names := make([]string, len(crashtest.Systems))
	for i, sys := range crashtest.Systems {
		names[i] = sys.String()
	}
	return names
}

// Totals returns (crashes, corruptions) for a column (0=disk write-through,
// 1=Rio without protection, 2=Rio with protection).
func (r *CampaignResult) Totals(system int) (crashes, corrupted int) {
	return r.rep.Totals(crashtest.System(system))
}

// ProtectionInvocations counts crashes where Rio's protection trapped an
// illegal file-cache store (the paper observed 8).
func (r *CampaignResult) ProtectionInvocations() int {
	return r.rep.ProtectionInvocations(crashtest.RioProt)
}

// CrashKindBreakdown summarises how a system's crashes manifested.
func (r *CampaignResult) CrashKindBreakdown(system int) string {
	return r.rep.CrashKindBreakdown(crashtest.System(system))
}

// CampaignSummary is campaign-level observability: totals, rates, and
// throughput. Counting fields are deterministic for a given seed and
// config; WallTime, RunsPerSec, and SpeculativeRuns depend on the host
// and worker count. The double-fault recovery totals (Interrupted,
// Aborted, Quarantined, Salvaged, VolumeLost) are zero unless
// CampaignOptions.DiskFaults was on.
type CampaignSummary = crashtest.Summary

// Summary returns the campaign's aggregate statistics.
func (r *CampaignResult) Summary() CampaignSummary { return r.rep.Summary }

// JSON renders the full report — summary, every cell (in Table 1 order,
// with per-cell attempt counts and CPU time), and the rendered table —
// as indented JSON for downstream tooling.
func (r *CampaignResult) JSON() ([]byte, error) { return r.rep.JSON() }

// MTTFYears converts a column's corruption rate into the paper's §3.3
// mean-time-to-failure illustration (one crash every two months). A
// negative result means no corruption was observed at this sample size.
func (r *CampaignResult) MTTFYears(system int) float64 {
	crashes, corrupted := r.Totals(system)
	return crashtest.MTTFYears(corrupted, crashes)
}

// RunCrashCampaign reproduces Table 1: for each of the thirteen fault
// types and each of the three systems, crash the machine repeatedly and
// measure how often permanent file data is corrupted. Runs execute on a
// worker pool (see CampaignOptions.Workers); results are identical at
// any worker count.
func RunCrashCampaign(opts CampaignOptions) (*CampaignResult, error) {
	cfg := crashtest.DefaultCampaignConfig(1)
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.RunsPerCell > 0 {
		cfg.RunsPerCell = opts.RunsPerCell
	}
	cfg.Workers = opts.Workers
	cfg.Progress = opts.Progress
	cfg.Run.DiskFaults = opts.DiskFaults
	rep, err := crashtest.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return &CampaignResult{rep: rep}, nil
}

// CrashOnce runs a single crash test — inject a fault into a fresh
// machine, run until it crashes, recover, verify — and reports what
// happened. system is 0 (disk write-through), 1 (Rio without protection),
// or 2 (Rio with protection).
func CrashOnce(system int, t FaultType, seed uint64) (CrashRunResult, error) {
	ft, ok := faultMap[t]
	if !ok {
		return CrashRunResult{}, fmt.Errorf("rio: unknown fault type %q", t)
	}
	res, err := crashtest.RunOne(nil, crashtest.System(system), ft,
		crashtest.DefaultRunConfig(seed))
	if err != nil {
		return CrashRunResult{}, err
	}
	out := CrashRunResult{
		Crashed:           res.Crashed,
		CrashKind:         res.CrashKind.String(),
		Corrupted:         res.Corrupted,
		ChecksumDetected:  res.ChecksumDetected,
		ProtectionInvoked: res.ProtectionInvoked,
	}
	for _, c := range res.Verdict.Corruptions {
		out.Details = append(out.Details, c.String())
	}
	if !res.Crashed {
		out.CrashKind = ""
	}
	return out, nil
}

// CrashRunResult is the outcome of CrashOnce.
type CrashRunResult struct {
	Crashed           bool
	CrashKind         string
	Corrupted         bool
	ChecksumDetected  bool
	ProtectionInvoked bool
	Details           []string
}
