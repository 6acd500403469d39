// Package rio is a from-scratch reproduction of the Rio file cache
// ("The Rio File Cache: Surviving Operating System Crashes", Chen et al.,
// ASPLOS 1996) as a simulated full system in pure Go.
//
// Rio makes ordinary main memory safe for permanent file data: file-cache
// pages are write-protected against wild kernel stores, a registry
// describes every cached buffer, and after a crash a warm reboot restores
// the file cache into the file system — so every write is as permanent as
// disk the moment it completes, with no reliability-induced disk I/O.
//
// Because Rio's mechanisms live below the operating system, this package
// ships the whole stack as a simulation: physical memory and an MMU with a
// KSEG physical window, a disk with a 1996-era latency model, a small
// kernel whose data-movement procedures run in an interpreted instruction
// set (so the paper's thirteen fault models can corrupt real kernel code),
// two file caches (buffer cache + UBC), a Unix-like file system with all
// eight write policies of the paper's Table 2, fault injection, crash
// testing, and a warm-reboot implementation.
//
// Quick start:
//
//	sys, _ := rio.New(rio.Config{Policy: rio.PolicyRio})
//	sys.WriteFile("/notes", []byte("safe the instant the write returns"))
//	sys.Crash("power button")        // no sync ever ran
//	rep, _ := sys.WarmReboot()
//	data, _ := sys.ReadFile("/notes") // intact
//
// RunCrashCampaign reproduces Table 1 (corruption rates across 13 fault
// types on three systems). Table 2 (workload times across eight
// file-system configurations) runs as a scenario spec:
// `go run ./cmd/rioscn scenarios/table2.json`.
package rio

import (
	"fmt"
	"time"

	"rio/internal/fs"
	"rio/internal/machine"
	"rio/internal/sim"
)

// Policy names a file-system write policy (a Table 2 row).
type Policy string

// The eight configurations of the paper.
const (
	// PolicyRio is Rio with memory protection — the paper's recommended
	// configuration.
	PolicyRio Policy = "rio"
	// PolicyRioNoProtect is Rio relying on warm reboot alone.
	PolicyRioNoProtect Policy = "rio-noprotect"
	// PolicyMFS is the memory file system (never writes to disk).
	PolicyMFS Policy = "mfs"
	// PolicyUFSDelayed delays all data and metadata to the update daemon.
	PolicyUFSDelayed Policy = "ufs-delayed"
	// PolicyAdvFS journals metadata sequentially.
	PolicyAdvFS Policy = "advfs"
	// PolicyUFS is default UFS: async data, synchronous metadata.
	PolicyUFS Policy = "ufs"
	// PolicyUFSWTClose adds fsync on every close.
	PolicyUFSWTClose Policy = "ufs-wt-close"
	// PolicyUFSWTWrite is the fully synchronous mount.
	PolicyUFSWTWrite Policy = "ufs-wt-write"
)

func (p Policy) internal() (fs.Policy, error) {
	if p == "" {
		p = PolicyRio
	}
	c, ok := fs.ConfigNamed(string(p))
	if !ok {
		return fs.Policy{}, fmt.Errorf("rio: unknown policy %q", p)
	}
	return c.Policy, nil
}

// Policies lists every supported policy name, in Table 2's order.
func Policies() []Policy {
	ps := make([]Policy, len(fs.Configs))
	for i, c := range fs.Configs {
		ps[i] = Policy(c.Name)
	}
	return ps
}

// Config configures a simulated machine. The zero value is a Rio machine
// with protection and default sizes.
type Config struct {
	// Policy selects the file-system configuration (default PolicyRio).
	Policy Policy
	// MemoryMB is physical memory size (default 16).
	MemoryMB int
	// DiskMB is disk capacity (default 32).
	DiskMB int
	// Seed drives all machine randomness; a seed reproduces a machine
	// exactly (default 1).
	Seed uint64
	// Interpreted runs kernel bulk operations instruction-by-instruction
	// in the kernel VM instead of the accelerated path. Fault injection
	// requires it; it is slower in real time. (Simulated times agree
	// between modes.)
	Interpreted bool
}

func (c Config) options() (machine.Options, error) {
	pol, err := c.Policy.internal()
	if err != nil {
		return machine.Options{}, err
	}
	opt := machine.DefaultOptions(pol)
	opt.FastPath = !c.Interpreted
	opt.Checksums = true
	if c.Seed != 0 {
		opt.Seed = c.Seed
	}
	if c.MemoryMB > 0 {
		opt.MemPages = c.MemoryMB << 20 / 8192
	} else {
		opt.MemPages = 2048
	}
	if c.DiskMB > 0 {
		opt.DiskBlocks = int64(c.DiskMB) << 20 / 8192
	} else {
		opt.DiskBlocks = 4096
	}
	// Size the caches to the memory.
	opt.DataCap = opt.MemPages / 3
	opt.MetaCap = opt.MemPages / 8
	return opt, nil
}

// Exported error codes. File-system operations return exactly these
// values for their respective conditions, so callers — and wire-level
// services like riod that must map failures to typed status codes —
// can branch with == instead of matching message strings.
var (
	ErrNotFound = fs.ErrNotFound
	ErrExists   = fs.ErrExists
	ErrNotDir   = fs.ErrNotDir
	ErrIsDir    = fs.ErrIsDir
	ErrNotEmpty = fs.ErrNotEmpty
	ErrNoSpace  = fs.ErrNoSpace
	ErrNoInodes = fs.ErrNoInodes
	ErrReadOnly = fs.ErrReadOnly
)

// System is a booted simulated machine with a mounted file system.
//
// A System is single-threaded: it models one machine, and its methods
// must not be called concurrently. Services that want parallelism run
// several Systems side by side (see NewShards) with each instance owned
// by exactly one goroutine.
type System struct {
	m   *machine.Machine
	cfg Config
}

// New formats a disk and boots a machine on it.
func New(cfg Config) (*System, error) {
	opt, err := cfg.options()
	if err != nil {
		return nil, err
	}
	m, err := machine.New(opt, nil)
	if err != nil {
		return nil, err
	}
	return &System{m: m, cfg: cfg}, nil
}

// NewShards boots n independent Systems from one Config for a sharded
// service. Each shard's seed is derived with sim.Mix(cfg.Seed, shard),
// so shard i's machine is identical no matter how many shards exist
// beside it, and no two shards share a random stream. The Systems are
// fully independent (separate memory, disk, file system); the caller
// provides any cross-shard routing and must keep each System on a
// single goroutine.
func NewShards(n int, cfg Config) ([]*System, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rio: NewShards needs n > 0, got %d", n)
	}
	base := cfg.Seed
	if base == 0 {
		base = 1
	}
	systems := make([]*System, n)
	for i := range systems {
		c := cfg
		c.Seed = sim.Mix(base, uint64(i))
		if c.Seed == 0 {
			c.Seed = 1 // Config treats 0 as "default"; keep shards explicit
		}
		sys, err := New(c)
		if err != nil {
			return nil, fmt.Errorf("rio: shard %d: %w", i, err)
		}
		systems[i] = sys
	}
	return systems, nil
}

// Machine exposes the underlying simulated machine for advanced use (the
// types live in internal packages; most callers never need this).
func (s *System) Machine() *machine.Machine { return s.m }

// Elapsed returns the simulated time since boot.
func (s *System) Elapsed() time.Duration {
	return time.Duration(s.m.Elapsed())
}

// Crashed reports whether the kernel has crashed, and how.
func (s *System) Crashed() (bool, string) {
	if c := s.m.Crashed(); c != nil {
		return true, c.Error()
	}
	return false, ""
}

// Stats is a snapshot of system activity counters.
type Stats struct {
	SimulatedSeconds float64
	Syscalls         uint64
	DiskReads        uint64
	DiskWrites       uint64
	DiskBytesWritten uint64
	CacheHits        uint64
	CacheMisses      uint64
	DirtyBuffers     int
	ProtectionFaults uint64
	KernelSteps      uint64
}

// Stats returns current counters.
func (s *System) Stats() Stats {
	cs := s.m.Cache.Stats
	dirty := len(s.m.Cache.DirtyBufs(0)) + len(s.m.Cache.DirtyBufs(1))
	return Stats{
		SimulatedSeconds: sim.Duration(s.m.Elapsed()).Seconds(),
		Syscalls:         s.m.FS.Stats.Syscalls,
		DiskReads:        s.m.Disk.Stats.Reads,
		DiskWrites:       s.m.Disk.Stats.Writes,
		DiskBytesWritten: s.m.Disk.Stats.BytesWritten,
		CacheHits:        cs.MetaHits + cs.DataHits,
		CacheMisses:      cs.MetaMisses + cs.DataMisses,
		DirtyBuffers:     dirty,
		ProtectionFaults: s.m.MMU.Stats.Traps,
		KernelSteps:      s.m.Kernel.Steps(),
	}
}
