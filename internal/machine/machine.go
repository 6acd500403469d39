// Package machine assembles a complete simulated system: physical memory,
// MMU, disk, kernel, Rio registry, the two file caches, and a mounted file
// system. Everything above this package (crash campaigns, the performance
// harness, the public API) manipulates whole machines.
package machine

import (
	"fmt"

	"rio/internal/cache"
	"rio/internal/disk"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/kvm"
	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/registry"
	"rio/internal/sim"
)

// Options configures a machine. The zero value is unusable; start from
// DefaultOptions.
type Options struct {
	// MemPages is physical memory size in 8 KB pages.
	MemPages int
	// DiskBlocks is disk capacity in 8 KB file-system blocks.
	DiskBlocks int64
	// NInodes is the inode-table capacity.
	NInodes int64
	// JournalBlocks reserves a journal region (used by the AdvFS policy).
	JournalBlocks int64
	// RegistryFrames is the size of the Rio registry area.
	RegistryFrames int
	// MetaCap / DataCap bound the buffer cache and UBC, in pages.
	MetaCap, DataCap int

	Policy     fs.Policy
	Costs      fs.Costs
	DiskParams disk.Params

	// FastPath runs bulk kernel operations as Go copies (perf runs);
	// crash campaigns leave it false so faults act on interpreted code.
	FastPath bool
	// Checksums maintains registry content checksums (crash campaigns).
	Checksums bool
	// CodePatching selects the software-check protection ablation instead
	// of mapping KSEG through the TLB.
	CodePatching bool

	// Seed drives all machine-local randomness.
	Seed uint64
}

// DefaultOptions returns a mid-sized machine suitable for tests and crash
// campaigns.
func DefaultOptions(pol fs.Policy) Options {
	return Options{
		MemPages:       768,
		DiskBlocks:     2048,
		NInodes:        1024,
		JournalBlocks:  0,
		RegistryFrames: 5, // 640 entries >= MetaCap+DataCap
		MetaCap:        160,
		DataCap:        384,
		Policy:         pol,
		Costs:          fs.DefaultCosts(),
		DiskParams:     disk.DefaultParams(),
		Checksums:      true,
		Seed:           1,
	}
}

// Machine is a fully assembled simulated system.
type Machine struct {
	Opt    Options
	Mem    *mem.Memory
	MMU    *mmu.MMU
	Disk   *disk.Disk
	Swap   *disk.Disk // optional UPS dump target (AttachSwap)
	Kernel *kernel.Kernel
	Reg    *registry.Registry
	Cache  *cache.Cache
	FS     *fs.FS
	Engine *sim.Engine
	Rng    *sim.Rand
	Text   *kvm.Text

	dumpScratch []byte // ScratchDump's image; allocated on first use
}

// New formats a fresh disk and boots a machine on it. text may be nil to
// use the pristine kernel text.
func New(opt Options, text *kvm.Text) (*Machine, error) {
	if opt.Policy.Kind == fs.PolicyAdvFS && opt.JournalBlocks == 0 {
		opt.JournalBlocks = 64
	}
	d := disk.New(int(opt.DiskBlocks)*fs.BlockSize, opt.DiskParams)
	if _, err := fs.Mkfs(d, opt.NInodes, opt.JournalBlocks); err != nil {
		return nil, err
	}
	m := &Machine{
		Opt:  opt,
		Mem:  mem.New(opt.MemPages * mem.PageSize),
		Disk: d,
		Rng:  sim.NewRand(opt.Seed),
	}
	if err := m.Boot(text); err != nil {
		return nil, err
	}
	return m, nil
}

// protectionOn reports whether this configuration enforces Rio protection.
func (o Options) protectionOn() bool {
	return o.Policy.Kind == fs.PolicyRio && o.Policy.Protect
}

// Boot (re)builds the kernel and all software state over the machine's
// existing memory and disk. Pool frame contents are preserved, which is
// what makes a warm reboot possible; callers that want a cold boot call
// Mem.Scramble first.
func (m *Machine) Boot(text *kvm.Text) error {
	if text == nil {
		text = kernel.BuildText()
	}
	m.Text = text
	m.Mem.ClearFlags()

	u := mmu.New(m.Mem)
	if m.Opt.protectionOn() {
		u.EnforceProtection = true
		if m.Opt.CodePatching {
			u.CodePatching = true
		} else {
			u.MapAllThroughTLB = true
		}
	}
	m.MMU = u
	m.Kernel = kernel.New(m.Mem, u, text)
	m.Kernel.FastPath = m.Opt.FastPath

	reg, err := registry.New(m.Kernel, m.Opt.RegistryFrames, m.Opt.protectionOn())
	if err != nil {
		return err
	}
	m.Reg = reg

	c := cache.New(m.Kernel, reg, m.Opt.MetaCap, m.Opt.DataCap)
	c.Protect = m.Opt.protectionOn()
	c.Checksums = m.Opt.Checksums
	m.Cache = c

	m.Engine = sim.NewEngine(nil)
	fsys, err := fs.Mount(m.Kernel, c, m.Disk, m.Engine, m.Opt.Policy, m.Opt.Costs)
	if err != nil {
		return err
	}
	m.FS = fsys
	return nil
}

// ScratchDump copies all of physical memory into the machine's reusable
// dump image and returns it: the in-place warm reboot's "dump RAM to swap"
// step without a fresh memory-sized allocation per reboot. The image is
// storage of its own — booting and restoring never write to it — but it is
// valid only until the next ScratchDump; a caller that holds a dump across
// reboots (a campaign restarting an interrupted recovery, the UPS path)
// takes its own copy with Mem.Dump.
func (m *Machine) ScratchDump() []byte {
	if m.dumpScratch == nil {
		m.dumpScratch = make([]byte, m.Mem.Size())
	}
	m.Mem.ReadAt(0, m.dumpScratch)
	return m.dumpScratch
}

// Crashed returns the kernel's crash record, if any.
func (m *Machine) Crashed() *kernel.Crash { return m.Kernel.Crashed() }

// CrashFinish completes a crash: the stock panic path may flush dirty
// buffers (never under Rio), and the disk queue is resolved (in-flight
// sector torn, queued writes lost).
func (m *Machine) CrashFinish() {
	c := m.Kernel.Crashed()
	if c == nil {
		panic("machine: CrashFinish without a crash")
	}
	// A hung kernel does not run its panic routine; every other crash
	// kind reaches panic(), which on stock kernels syncs dirty buffers.
	if c.Kind != kernel.CrashHang {
		m.FS.OnPanic()
	}
	m.FS.CrashIO(m.Rng)
}

// Elapsed returns the simulated time since boot.
func (m *Machine) Elapsed() sim.Duration {
	return sim.Duration(m.Engine.Clock.Now())
}

// String describes the configuration.
func (m *Machine) String() string {
	prot := ""
	if m.Opt.protectionOn() {
		prot = "+protection"
	}
	return fmt.Sprintf("machine(%s%s, %d pages, %d blocks)",
		m.Opt.Policy.Kind, prot, m.Opt.MemPages, m.Opt.DiskBlocks)
}
