package rio

import (
	"fmt"
	"strings"
	"time"

	"rio/internal/crashtest"
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

// FaultTypes lists all thirteen models: each is its fault.AllTypes name
// with spaces turned into hyphens.
func FaultTypes() []FaultType {
	fts := make([]FaultType, len(fault.AllTypes))
	for i, ft := range fault.AllTypes {
		fts[i] = FaultType(strings.ReplaceAll(ft.String(), " ", "-"))
	}
	return fts
}

// InjectFault applies the paper's standard dose (20 faults) of the given
// model to the running system. The system must have been built with
// Config.Interpreted so the faults act on live kernel code.
func (s *System) InjectFault(t FaultType) error {
	ft, ok := fault.ByName(string(t))
	if !ok {
		return fmt.Errorf("rio: unknown fault type %q", t)
	}
	if !s.cfg.Interpreted {
		return fmt.Errorf("rio: fault injection requires Config.Interpreted")
	}
	return fault.Inject(s.m, ft, s.m.Rng.Fork())
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
	return s.m.AttachSwap()
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
}

// CampaignResult is a completed Table 1 reproduction.
type CampaignResult struct {
	rep *crashtest.Report
}

// Table renders the result in the paper's Table 1 layout.
func (r *CampaignResult) Table() string { return r.rep.Table() }

// CampaignSummary is campaign-level observability: one crashtest.Tally,
// every cell's summed once in Table 1 order, with Runs (its Attempts) =
// Crashes + Discarded + Errors, plus rates and throughput. Counting
// fields are deterministic for a given seed and config; WallTime,
// RunsPerSec, and SpeculativeRuns depend on the host and worker count.
// The double-fault counters (Interrupted, Aborted, Quarantined, Salvaged,
// VolumeLost) stay zero here: double-fault campaigns run as scenario specs.
type CampaignSummary = crashtest.Summary

// Summary returns the campaign's aggregate statistics.
func (r *CampaignResult) Summary() CampaignSummary { return r.rep.Summary }

// JSON renders the full report — summary, every cell (in Table 1 order,
// with per-cell attempt counts and CPU time), and the rendered table —
// as indented JSON for downstream tooling.
func (r *CampaignResult) JSON() ([]byte, error) { return r.rep.JSON() }

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
	ft, ok := fault.ByName(string(t))
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
