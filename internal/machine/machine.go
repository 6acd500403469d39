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

	store *Storage
}

// Storage holds a machine's three big buffers — physical memory, the disk
// and the memory image a warm reboot restores from — so that whoever builds
// machine after machine (a crash campaign: thousands of 16 MB machines)
// can build each on the last one's instead of paging in fresh ones. The
// zero value is ready to use. A machine built on a Storage is the same, bit
// for bit, as one built on a new Storage: memory and disk are recycled
// (mem.Memory.Recycle, disk.Disk.Recycle), never carried over. A Storage
// serves one machine at a time: building the next machine on it ends the
// life of the previous one.
type Storage struct {
	mem  *mem.Memory
	disk *disk.Disk
	dump []byte // DumpArea; allocated on first use
}

// New formats a fresh disk and boots a machine on it. text may be nil to
// use the pristine kernel text.
func New(opt Options, text *kvm.Text) (*Machine, error) {
	return NewOn(nil, opt, text)
}

// NewOn is New on st's buffers, recycled where their sizes fit opt. A nil
// st is a new Storage.
func NewOn(st *Storage, opt Options, text *kvm.Text) (*Machine, error) {
	if st == nil {
		st = new(Storage)
	}
	if opt.Policy.Kind == fs.PolicyAdvFS && opt.JournalBlocks == 0 {
		opt.JournalBlocks = 64
	}
	memBytes, diskBytes := opt.MemPages*mem.PageSize, int(opt.DiskBlocks)*fs.BlockSize
	if st.disk != nil && st.disk.NumSectors()*disk.SectorSize == diskBytes {
		st.disk = st.disk.Recycle(opt.DiskParams)
	} else {
		st.disk = disk.New(diskBytes, opt.DiskParams)
	}
	if _, err := fs.Mkfs(st.disk, opt.NInodes, opt.JournalBlocks); err != nil {
		return nil, err
	}
	if st.mem != nil && st.mem.Size() == memBytes {
		st.mem = st.mem.Recycle()
	} else {
		st.mem = mem.New(memBytes)
	}
	m := &Machine{
		Opt:   opt,
		Mem:   st.mem,
		Disk:  st.disk,
		Rng:   sim.NewRand(opt.Seed),
		store: st,
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

// DumpArea returns the memory-sized area of the machine's Storage that a
// warm reboot dumps memory into — the paper's swap partition, kept apart
// from simulated memory so that booting and restoring never write to it and
// a recovery interrupted by a second crash can restart from it. It is
// allocated on first use and never cleared: what it holds is what
// warmreboot.Capture, its one writer, last put there.
func (m *Machine) DumpArea() []byte {
	if m.store == nil {
		m.store = new(Storage) // a machine assembled by hand, not by New
	}
	st := m.store
	if len(st.dump) != m.Mem.Size() {
		st.dump = make([]byte, m.Mem.Size())
	}
	return st.dump
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
