package fs

import "rio/internal/sim"

// PolicyKind selects a write-back behaviour. The eight configurations of
// Table 2 (Configs) use seven: Rio's two rows differ only in protection.
type PolicyKind int

const (
	// PolicyMFS is the Memory File System: completely memory-resident, no
	// disk I/O ever. The paper's "optimal performance" row.
	PolicyMFS PolicyKind = iota
	// PolicyUFSDelayed delays all data AND metadata until the update
	// daemon runs — the optimal "no-order" system of [Ganger94]. Risks
	// losing 30 seconds of everything.
	PolicyUFSDelayed
	// PolicyAdvFS models the journaling file system: metadata updates are
	// appended sequentially to a log; data is delayed.
	PolicyAdvFS
	// PolicyUFS is the default Digital Unix behaviour: data written
	// asynchronously once 64 KB accumulates (or on non-sequential
	// writes, or when update runs); metadata written synchronously.
	PolicyUFS
	// PolicyUFSWTClose adds write-through on close: fsync on every close.
	PolicyUFSWTClose
	// PolicyUFSWTWrite is the fully synchronous mount: every write goes
	// through to disk before returning (plus fsync on close). The only
	// non-Rio configuration with Rio's reliability guarantee.
	PolicyUFSWTWrite
	// PolicyRio never writes for reliability: sync/fsync return
	// immediately, panic does not flush, dirty blocks stay in memory
	// indefinitely (until the cache overflows). Memory is made safe by
	// protection + warm reboot instead.
	PolicyRio
)

// Policy configures write-back behaviour.
type Policy struct {
	Kind PolicyKind

	// Protect enables Rio's memory protection (meaningful for PolicyRio;
	// the "Rio with protection" row).
	Protect bool

	// UpdatePeriod is the update daemon interval (0 disables; the classic
	// value is 30 s).
	UpdatePeriod sim.Duration
}

// asyncDataThreshold is PolicyUFS's accumulation threshold before
// asynchronously writing a file's dirty data (64 KB in Digital Unix).
const asyncDataThreshold = 64 << 10

// DefaultPolicy returns the standard configuration for a kind.
func DefaultPolicy(kind PolicyKind) Policy {
	p := Policy{Kind: kind}
	switch kind {
	case PolicyMFS, PolicyRio:
		// no daemon: nothing to flush for reliability
	default:
		p.UpdatePeriod = 30 * sim.Second
	}
	if kind == PolicyRio {
		p.Protect = true
	}
	return p
}

// Config is one of the eight file-system configurations of Table 2: the
// policy it mounts and the names it goes by.
type Config struct {
	Policy    Policy
	Name      string // its rio.Policy spelling (the -policy flags)
	Label     string // Table 2's Configuration column
	Permanent string // Table 2's Data Permanent column
}

// ConfigID names a row of Configs.
type ConfigID int

// The rows of Configs, in Table 2's order.
const (
	MFS ConfigID = iota
	UFSDelayed
	AdvFS
	UFS
	UFSWTClose
	UFSWTWrite
	RioNoProt
	RioProt
)

// Configs is the one table of the eight configurations: Table 2 times
// every row, Table 1 crashes UFSWTWrite, RioNoProt and RioProt, and rio
// mounts a row by its Name.
var Configs = [...]Config{
	MFS:        {mount(PolicyMFS, false), "mfs", "Memory File System", "never"},
	UFSDelayed: {mount(PolicyUFSDelayed, false), "ufs-delayed", "UFS, delayed data+metadata", "0-30s, async"},
	AdvFS:      {mount(PolicyAdvFS, false), "advfs", "AdvFS (log metadata)", "0-30s, async"},
	UFS:        {mount(PolicyUFS, false), "ufs", "UFS", "data 64KB async, meta sync"},
	UFSWTClose: {mount(PolicyUFSWTClose, false), "ufs-wt-close", "UFS write-through on close", "after close"},
	UFSWTWrite: {mount(PolicyUFSWTWrite, false), "ufs-wt-write", "UFS write-through on write", "after write"},
	RioNoProt:  {mount(PolicyRio, false), "rio-noprotect", "Rio without protection", "after write"},
	RioProt:    {mount(PolicyRio, true), "rio", "Rio with protection", "after write"},
}

func mount(kind PolicyKind, protect bool) Policy {
	p := DefaultPolicy(kind)
	p.Protect = protect
	return p
}

// ConfigNamed returns the row of Configs whose Name is name.
func ConfigNamed(name string) (Config, bool) {
	for _, c := range Configs {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// metaSync reports whether metadata mutations must reach disk
// synchronously before the operation returns.
func (p Policy) metaSync() bool {
	switch p.Kind {
	case PolicyUFS, PolicyUFSWTClose, PolicyUFSWTWrite:
		return true
	}
	return false
}

// metaJournal reports whether metadata mutations are logged sequentially.
func (p Policy) metaJournal() bool { return p.Kind == PolicyAdvFS }

// metaShadow reports whether in-memory metadata updates must be atomic
// (Rio: the buffer cache is now permanent storage, §2.3).
func (p Policy) metaShadow() bool { return p.Kind == PolicyRio }

// dataWriteThrough reports whether each file write is synchronous.
func (p Policy) dataWriteThrough() bool { return p.Kind == PolicyUFSWTWrite }

// fsyncOnClose reports whether close implies fsync.
func (p Policy) fsyncOnClose() bool {
	return p.Kind == PolicyUFSWTClose || p.Kind == PolicyUFSWTWrite
}

// syncIsNoop reports whether sync/fsync return immediately (Rio: memory is
// already permanent; MFS: nothing is ever permanent).
func (p Policy) syncIsNoop() bool {
	return p.Kind == PolicyRio || p.Kind == PolicyMFS
}

// neverWrite reports whether the volume does no disk I/O at all.
func (p Policy) neverWrite() bool { return p.Kind == PolicyMFS }

// asyncDataOnThreshold reports whether UFS-style accumulation write-back
// applies.
func (p Policy) asyncDataOnThreshold() bool { return p.Kind == PolicyUFS }

// panicFlushes reports whether the stock panic path writes dirty data back
// to disk as the system goes down. Rio explicitly disables this (a dying,
// possibly corrupt kernel must not touch permanent data); MFS has no disk.
func (p Policy) panicFlushes() bool {
	return p.Kind != PolicyRio && p.Kind != PolicyMFS
}

// The CPU side of the performance model, the paper's DEC 3000/600 (175 MHz
// Alpha 21064); the disk side is disk.ServiceTime.
const (
	// stepNs is nanoseconds per retired kernel instruction
	// (instruction-equivalents in fast mode).
	stepNs = 6
	// syscallCost is the fixed per-system-call overhead.
	syscallCost = 20 * sim.Microsecond
	// protToggleCost is the cost of one protection open/close (a PTE
	// update plus TLB shootdown, in-kernel — no syscall, which is why
	// Rio's protection is so much cheaper than user-level mprotect
	// schemes).
	protToggleCost = 500 * sim.Nanosecond
	// patchCheckCost is the per-store cost of the code-patching ablation
	// (~3 inserted instructions per store).
	patchCheckCost = 16 * sim.Nanosecond
)

// JournalBlocks is the size of the AdvFS policy's journal region.
const JournalBlocks = 64
