// Package kernel implements the simulated operating-system kernel runtime:
// the virtual-memory layout, the kernel heap, locks, the intrinsic
// interface to the kvm, and the Go-side wrappers through which the file
// system invokes interpreted kernel procedures.
//
// The kernel has two execution modes. In the default (slow) mode every
// bulk data operation — block copies, checksums, fills — executes
// instruction by instruction in the kvm, which is what makes fault
// injection meaningful. In FastPath mode the same operations run as Go
// copies through the MMU (so protection semantics are identical) and
// charge an equivalent instruction count; performance runs use this mode
// since they inject no faults.
package kernel

import (
	"errors"
	"fmt"
	"sort"

	"rio/internal/kvm"
	"rio/internal/mem"
	"rio/internal/mmu"
)

// CrashKind classifies how the kernel died.
type CrashKind int

const (
	// CrashTrap: unhandled MMU trap on an illegal address.
	CrashTrap CrashKind = iota
	// CrashProtection: Rio's protection mechanism trapped an illegal
	// store to the file cache and halted the system.
	CrashProtection
	// CrashPanic: a kernel consistency check failed.
	CrashPanic
	// CrashHang: the watchdog expired (runaway loop or deadlock).
	CrashHang
	// CrashIllegalInstr: the CPU fetched an undecodable instruction.
	CrashIllegalInstr
)

func (k CrashKind) String() string {
	switch k {
	case CrashTrap:
		return "trap (illegal address)"
	case CrashProtection:
		return "protection trap (Rio halt)"
	case CrashPanic:
		return "kernel panic (consistency check)"
	case CrashHang:
		return "hang (watchdog)"
	case CrashIllegalInstr:
		return "illegal instruction"
	default:
		return fmt.Sprintf("CrashKind(%d)", int(k))
	}
}

// MarshalText makes a CrashKind its name in JSON, map keys included.
func (k CrashKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Crash records the kernel's death.
type Crash struct {
	Kind   CrashKind
	Reason string
	PC     int
}

func (c *Crash) Error() string {
	return fmt.Sprintf("kernel crashed: %s: %s (pc=%d)", c.Kind, c.Reason, c.PC)
}

// ErrCrashed is returned by kernel operations attempted after a crash.
var ErrCrashed = errors.New("kernel: machine has crashed")

// Kernel is the simulated kernel runtime.
type Kernel struct {
	Mem   *mem.Memory
	MMU   *mmu.MMU
	VM    *kvm.VM
	Heap  *Allocator
	Locks *LockTable
	Text  *kvm.Text

	// FastPath makes bulk operations run as Go copies (with equivalent
	// instruction accounting) instead of interpreted kvm loops. Only
	// fault-free runs may enable it.
	FastPath bool

	// SyntheticSteps accumulates the instruction-equivalents charged by
	// fast-path operations, so CPU-time accounting is mode-independent.
	SyntheticSteps uint64

	crash      *Crash
	freeFrames []int
	frameClass []FrameClass
	nextDynVP  uint64
	nextLock   LockID
	scratch    uint64 // background scratch block (ballast procedures)
	tickSeq    uint64

	// Reusable bulk-op scratch space. The kernel models a single CPU, so
	// every bulk operation completes its copy before the next one starts
	// and one buffer serves them all — the steady-state read/write path
	// stops allocating per block. The zero buffer backs BZero and must
	// never be written.
	bulkBuf []byte
	zeroBuf []byte
}

// scratchBytes returns a reusable n-byte scratch slice (contents
// undefined). Valid until the next bulk operation.
func (k *Kernel) scratchBytes(n int) []byte {
	if cap(k.bulkBuf) < n {
		k.bulkBuf = make([]byte, n)
	}
	return k.bulkBuf[:n]
}

// zeroBytes returns n zero bytes. Callers must treat the slice as
// read-only; it is shared across all BZero calls.
func (k *Kernel) zeroBytes(n int) []byte {
	if cap(k.zeroBuf) < n {
		k.zeroBuf = make([]byte, n)
	}
	return k.zeroBuf[:n]
}

// MinMemory is the smallest memory a kernel can boot in: the fixed layout
// plus a few pool frames.
const MinMemory = (reservedFrames + 8) * mem.PageSize

// New boots a kernel over m. The text is usually BuildText() or a
// fault-injected clone of it. Pool frame contents are left untouched, so a
// warm reboot can still find pre-crash file data in them (callers dump
// memory before booting anyway).
func New(m *mem.Memory, u *mmu.MMU, text *kvm.Text) *Kernel {
	if m.Size() < MinMemory {
		panic(fmt.Sprintf("kernel: memory %d below minimum %d", m.Size(), MinMemory))
	}
	k := &Kernel{
		Mem:   m,
		MMU:   u,
		Text:  text,
		Locks: NewLockTable(),

		nextDynVP: dynFirstVPage,
		nextLock:  LockDynBase,
	}

	// Map the fixed regions: sparse virtual pages onto compact low
	// frames.
	k.frameClass = make([]FrameClass, m.NumFrames())
	mapRange := func(vfirst uint64, ffirst, pages int, class FrameClass) {
		for i := 0; i < pages; i++ {
			u.Map(vfirst+uint64(i), ffirst+i, true)
			k.frameClass[ffirst+i] = class
		}
	}
	mapRange(stackFirstVPage, stackFirstFrame, StackPages, FrameStack)
	mapRange(heapFirstVPage, heapFirstFrame, HeapPages, FrameHeap)
	mapRange(stagingFirstVPage, stagingFirstFrame, StagingPages, FrameStaging)

	// Remaining frames form the page pool.
	for f := reservedFrames; f < m.NumFrames(); f++ {
		k.freeFrames = append(k.freeFrames, f)
	}

	k.Heap = NewAllocator(u, HeapBase, HeapSize)
	k.VM = kvm.New(text, u)
	k.VM.SetStack(StackTop, StackLimit)
	k.VM.Intr = k
	k.initScratch()
	return k
}

// Crashed returns the crash record, or nil while the kernel is alive.
func (k *Kernel) Crashed() *Crash { return k.crash }

// Panic crashes the kernel with a consistency failure. It is idempotent:
// the first crash wins.
func (k *Kernel) Panic(reason string) *Crash {
	if k.crash == nil {
		k.crash = &Crash{Kind: CrashPanic, Reason: reason, PC: k.VM.PC()}
	}
	return k.crash
}

// crashFromException records the crash corresponding to a kvm exception.
func (k *Kernel) crashFromException(exc *kvm.Exception) *Crash {
	if k.crash != nil {
		return k.crash
	}
	c := &Crash{Reason: exc.Error(), PC: exc.PC}
	switch exc.Kind {
	case kvm.ExcTrap:
		if exc.Trap != nil && exc.Trap.Kind == mmu.TrapProtection {
			c.Kind = CrashProtection
		} else {
			c.Kind = CrashTrap
		}
	case kvm.ExcIllegalInstr:
		c.Kind = CrashIllegalInstr
	case kvm.ExcAssert, kvm.ExcStackOverflow:
		c.Kind = CrashPanic
	case kvm.ExcBudget:
		c.Kind = CrashHang
	case kvm.ExcIntrinsic:
		if exc.Reason == reasonDeadlock {
			c.Kind = CrashHang
		} else {
			c.Kind = CrashPanic
		}
	}
	k.crash = c
	return c
}

// Exec runs a kernel procedure, converting exceptions into a crash.
func (k *Kernel) Exec(proc string, args ...uint64) error {
	if k.crash != nil {
		return ErrCrashed
	}
	if exc := k.VM.Exec(proc, args...); exc != nil {
		return k.crashFromException(exc)
	}
	return nil
}

const reasonDeadlock = "deadlock"

// Intrinsic implements kvm.Intrinsics.
func (k *Kernel) Intrinsic(v *kvm.VM, num int32) *kvm.Exception {
	switch num {
	case IntrMalloc:
		addr, err := k.Heap.Malloc(int(v.Reg[1]))
		if err != nil {
			return &kvm.Exception{Kind: kvm.ExcIntrinsic, PC: v.PC(), Reason: err.Error()}
		}
		v.Reg[0] = addr
	case IntrFree:
		if err := k.Heap.Free(v.Reg[1]); err != nil {
			return &kvm.Exception{Kind: kvm.ExcIntrinsic, PC: v.PC(), Reason: err.Error()}
		}
	case IntrLock:
		if err := k.Locks.Acquire(LockID(v.Reg[1])); err != nil {
			reason := err.Error()
			if _, ok := err.(*ErrDeadlock); ok {
				reason = reasonDeadlock
			}
			return &kvm.Exception{Kind: kvm.ExcIntrinsic, PC: v.PC(), Reason: reason}
		}
	case IntrUnlock:
		if err := k.Locks.Release(LockID(v.Reg[1])); err != nil {
			return &kvm.Exception{Kind: kvm.ExcIntrinsic, PC: v.PC(), Reason: err.Error()}
		}
	default:
		return &kvm.Exception{Kind: kvm.ExcIllegalInstr, PC: v.PC(),
			Reason: fmt.Sprintf("unknown intrinsic %d", num)}
	}
	return nil
}

// --- frame pool ---

// AllocFrame takes a frame from the pool for the given use. It returns -1
// if the pool is empty.
func (k *Kernel) AllocFrame(class FrameClass) int {
	if len(k.freeFrames) == 0 {
		return -1
	}
	f := k.freeFrames[len(k.freeFrames)-1]
	k.freeFrames = k.freeFrames[:len(k.freeFrames)-1]
	k.frameClass[f] = class
	return f
}

// FreeFrame returns a frame to the pool, clearing its cache flags and any
// write protection left on it.
func (k *Kernel) FreeFrame(f int) {
	k.frameClass[f] = FrameFree
	k.Mem.Frame(f).FileCache = false
	k.Mem.Frame(f).Registry = false
	if k.Mem.Frame(f).WriteProtected {
		// The frame is leaving the cache: its write window closes by
		// ceasing to be cache memory, not by re-protection.
		//riolint:protpair freed frame returns to the pool unprotected by design
		k.MMU.SetFrameProtection(f, false)
	}
	k.freeFrames = append(k.freeFrames, f)
}

// FreeFrameCount returns the number of pool frames available.
func (k *Kernel) FreeFrameCount() int { return len(k.freeFrames) }

// FramesOf returns the frames currently assigned to class, in frame
// order (fault targeting and tests — callers index into this with a
// seeded PRNG, so the order must not leak map iteration randomness).
func (k *Kernel) FramesOf(class FrameClass) []int {
	var out []int
	for f, c := range k.frameClass {
		if c == class {
			out = append(out, f)
		}
	}
	sort.Ints(out)
	return out
}

// MapDyn maps frame at the next dynamic virtual page and returns the
// virtual address (metadata buffers).
func (k *Kernel) MapDyn(frame int, writable bool) uint64 {
	vp := k.nextDynVP
	k.nextDynVP++
	k.MMU.Map(vp, frame, writable)
	return vp * mem.PageSize
}

// NewLockID hands out a fresh per-buffer lock id.
func (k *Kernel) NewLockID() LockID {
	id := k.nextLock
	k.nextLock++
	return id
}

// Steps returns total retired instructions, including fast-path
// equivalents.
func (k *Kernel) Steps() uint64 { return k.VM.Steps + k.SyntheticSteps }

// stepsForCopy is the instruction-equivalent of copying n bytes with the
// interpreted bcopy (word loop + tail), used by fast-path accounting.
func stepsForCopy(n int) uint64 {
	return 14 + 7*uint64(n/8) + 7*uint64(n%8)
}

// chargePatchChecks mirrors the per-store software-check count the
// interpreted path would incur under code patching, so fast-path perf runs
// price the ablation identically.
func (k *Kernel) chargePatchChecks(n int) {
	if k.MMU.CodePatching {
		k.MMU.Stats.ProtChecks += uint64(n/8) + uint64(n%8)
	}
}

// --- staging area ---

// StagingAddr returns the staging region's base virtual address; offset
// selects a byte position within it.
func (k *Kernel) StagingAddr(offset int) uint64 {
	if offset < 0 || offset >= StagingSize {
		panic("kernel: staging offset out of range")
	}
	return StagingBase + uint64(offset)
}

// StageIn copies user data into the staging region (copyin) and returns
// its kernel virtual address. The copy itself is trusted simulator code,
// but its CPU cost — one more pass over every byte a write moves — is
// charged like any kernel copy, and under code patching its stores are
// checked too.
func (k *Kernel) StageIn(data []byte) uint64 {
	if len(data) > StagingSize {
		panic("kernel: staging overflow")
	}
	k.SyntheticSteps += stepsForCopy(len(data))
	k.chargePatchChecks(len(data))
	k.Mem.WriteAt(StagingPhysBase, data)
	return StagingBase
}

// StageOutInto copies len(buf) bytes out of the staging region (copyout)
// into a caller-supplied buffer, charged like StageIn, so a hot read path
// can drain the staging area without allocating.
func (k *Kernel) StageOutInto(buf []byte) {
	if len(buf) > StagingSize {
		panic("kernel: staging overflow")
	}
	k.SyntheticSteps += stepsForCopy(len(buf))
	k.chargePatchChecks(len(buf))
	k.Mem.ReadAt(StagingPhysBase, buf)
}

// --- bulk operations ---

// BCopy copies n bytes from src to dst (kernel virtual or KSEG addresses).
func (k *Kernel) BCopy(dst, src uint64, n int) error {
	if k.crash != nil {
		return ErrCrashed
	}
	if k.FastPath {
		k.SyntheticSteps += stepsForCopy(n)
		k.chargePatchChecks(n)
		buf := k.scratchBytes(n)
		if trap := k.MMU.ReadBytes(src, buf); trap != nil {
			return k.crashFromException(&kvm.Exception{Kind: kvm.ExcTrap, Trap: trap})
		}
		if trap := k.MMU.WriteBytes(dst, buf); trap != nil {
			return k.crashFromException(&kvm.Exception{Kind: kvm.ExcTrap, Trap: trap})
		}
		return nil
	}
	return k.Exec("bcopy", dst, src, uint64(n))
}

// BZero zeroes n bytes at dst.
func (k *Kernel) BZero(dst uint64, n int) error {
	if k.crash != nil {
		return ErrCrashed
	}
	if k.FastPath {
		k.SyntheticSteps += stepsForCopy(n)
		k.chargePatchChecks(n)
		if trap := k.MMU.WriteBytes(dst, k.zeroBytes(n)); trap != nil {
			return k.crashFromException(&kvm.Exception{Kind: kvm.ExcTrap, Trap: trap})
		}
		return nil
	}
	return k.Exec("bzero", dst, uint64(n))
}

// Cksum computes the kernel's rolling checksum of [addr, addr+n). The Go
// fast path reproduces the interpreted result bit for bit.
func (k *Kernel) Cksum(addr uint64, n int) (uint64, error) {
	if k.crash != nil {
		return 0, ErrCrashed
	}
	if k.FastPath {
		k.SyntheticSteps += 14 + 9*uint64(n)
		return k.cksumGo(addr, n)
	}
	if err := k.Exec("cksum", addr, uint64(n)); err != nil {
		return 0, err
	}
	return k.VM.Reg[0], nil
}

// cksumGo hashes [addr, addr+n) through the Go fast path. A range inside
// one page — every block checksum, since buffers are frame-aligned — is
// hashed in place through an MMU view; anything else stages through
// scratch. Accounting is identical either way.
func (k *Kernel) cksumGo(addr uint64, n int) (uint64, error) {
	view, trap := k.MMU.ViewBytes(addr, n)
	if trap == nil && view != nil {
		return CksumBytes(view), nil
	}
	if trap == nil {
		buf := k.scratchBytes(n)
		trap = k.MMU.ReadBytes(addr, buf)
		if trap == nil {
			return CksumBytes(buf), nil
		}
	}
	return 0, k.crashFromException(&kvm.Exception{Kind: kvm.ExcTrap, Trap: trap})
}

// CksumTrusted computes the kernel checksum through the Go path regardless
// of execution mode. The checksum machinery is measurement apparatus (it
// detects corruption); like the paper's instrumented checksummer it is not
// itself a fault-injection target, so crash campaigns use this to keep runs
// fast while bulk copies still execute in the kvm.
func (k *Kernel) CksumTrusted(addr uint64, n int) (uint64, error) {
	if k.crash != nil {
		return 0, ErrCrashed
	}
	k.SyntheticSteps += 14 + 9*uint64(n)
	return k.cksumGo(addr, n)
}

// Powers of the checksum base, 31^1 .. 31^8 mod 2^64, for the unrolled
// fast path below.
const (
	ckP1 = 31
	ckP2 = ckP1 * 31
	ckP3 = ckP2 * 31
	ckP4 = ckP3 * 31
	ckP5 = ckP4 * 31
	ckP6 = ckP5 * 31
	ckP7 = ckP6 * 31
	ckP8 = ckP7 * 31
)

// Lane-combining powers for the 32-byte fold: 31^16, 31^24, 31^32 mod
// 2^64. These exceed an untyped constant's range, so they are computed
// with wrapping uint64 arithmetic (which is exactly the arithmetic the
// hash is defined in).
var ckP16, ckP24, ckP32 uint64

func init() {
	p8 := uint64(ckP8)
	ckP16 = p8 * p8
	ckP24 = ckP16 * p8
	ckP32 = ckP24 * p8
}

// CksumBytes computes the kernel checksum of b. The hash is the classic
// base-31 polynomial (h = h*31 + c per byte); because all arithmetic is
// mod 2^64, the serial recurrence folds into wider strides with
// precomputed powers of 31. The main loop takes 32 bytes per step: four
// independent 8-byte dot products (pure ILP, no chain) combined as
// h*31^32 + d0*31^24 + d1*31^16 + d2*31^8 + d3, so the loop-carried
// dependency is one multiply per 32 bytes instead of one per byte. The
// result is bit-identical to cksumBytesRef — registry checksums and
// golden crash transcripts depend on that, and TestCksumBytesUnrolled
// holds the two implementations together.
func CksumBytes(b []byte) uint64 {
	var h uint64
	for len(b) >= 32 {
		d0 := uint64(b[0])*ckP7 + uint64(b[1])*ckP6 +
			uint64(b[2])*ckP5 + uint64(b[3])*ckP4 +
			uint64(b[4])*ckP3 + uint64(b[5])*ckP2 +
			uint64(b[6])*ckP1 + uint64(b[7])
		d1 := uint64(b[8])*ckP7 + uint64(b[9])*ckP6 +
			uint64(b[10])*ckP5 + uint64(b[11])*ckP4 +
			uint64(b[12])*ckP3 + uint64(b[13])*ckP2 +
			uint64(b[14])*ckP1 + uint64(b[15])
		d2 := uint64(b[16])*ckP7 + uint64(b[17])*ckP6 +
			uint64(b[18])*ckP5 + uint64(b[19])*ckP4 +
			uint64(b[20])*ckP3 + uint64(b[21])*ckP2 +
			uint64(b[22])*ckP1 + uint64(b[23])
		d3 := uint64(b[24])*ckP7 + uint64(b[25])*ckP6 +
			uint64(b[26])*ckP5 + uint64(b[27])*ckP4 +
			uint64(b[28])*ckP3 + uint64(b[29])*ckP2 +
			uint64(b[30])*ckP1 + uint64(b[31])
		h = h*ckP32 + d0*ckP24 + d1*ckP16 + d2*ckP8 + d3
		b = b[32:]
	}
	for len(b) >= 8 {
		h = h*ckP8 +
			uint64(b[0])*ckP7 + uint64(b[1])*ckP6 +
			uint64(b[2])*ckP5 + uint64(b[3])*ckP4 +
			uint64(b[4])*ckP3 + uint64(b[5])*ckP2 +
			uint64(b[6])*ckP1 + uint64(b[7])
		b = b[8:]
	}
	for _, c := range b {
		h = h*31 + uint64(c)
	}
	return h
}

// cksumBytesRef is the reference byte-serial implementation, kept as the
// oracle the unrolled CksumBytes is tested against (and as the shape the
// interpreted kernel's cksum loop mirrors).
func cksumBytesRef(b []byte) uint64 {
	var h uint64
	for _, c := range b {
		h = h*31 + uint64(c)
	}
	return h
}

// ChargeCopy accounts one bulk copy of n bytes of simulated work without
// executing it: the DMA-style charge the zero-copy serving path pays
// when bytes move straight from a protected cache frame to the wire
// buffer with no staging hop.
func (k *Kernel) ChargeCopy(n int) { k.SyntheticSteps += stepsForCopy(n) }

// Fill writes the xorshift pattern seeded by seed over [dst, dst+n).
func (k *Kernel) Fill(dst uint64, n int, seed uint64) error {
	if k.crash != nil {
		return ErrCrashed
	}
	if k.FastPath {
		k.SyntheticSteps += 14 + 12*uint64(n)
		k.chargePatchChecks(n * 8) // byte loop: one store per byte
		if trap := k.MMU.WriteBytes(dst, FillBytes(n, seed)); trap != nil {
			return k.crashFromException(&kvm.Exception{Kind: kvm.ExcTrap, Trap: trap})
		}
		return nil
	}
	return k.Exec("fill", dst, uint64(n), seed)
}

// FillBytes is the reference implementation of the kernel fill pattern:
// an xorshift64 chain over the pattern state, seeded once. (The chain is
// generator state, not seed derivation — callers wanting independent
// patterns derive their seeds with sim.Mix.)
func FillBytes(n int, seed uint64) []byte {
	out := make([]byte, n)
	x := seed
	for i := range out {
		out[i] = byte(x)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return out
}

// WriteBlockArgs populates a buffer header in the kernel heap for
// write_block/read_block. Returns the header's virtual address; the caller
// frees it with FreeBufHdr.
func (k *Kernel) WriteBlockArgs(data uint64, size int, src uint64, dstOff int, lock LockID) (uint64, error) {
	hdr, err := k.Heap.Malloc(BufHdrSize)
	if err != nil {
		return 0, k.Panic(err.Error())
	}
	if hdr == 0 {
		return 0, k.Panic("kernel heap exhausted")
	}
	stores := []struct {
		off int
		val uint64
	}{
		{bufHdrOffMag, BufHdrMagic},
		{bufHdrOffData, data},
		{bufHdrOffSize, uint64(size)},
		{bufHdrOffSrc, src},
		{bufHdrOffDst, uint64(dstOff)},
		{bufHdrOffLock, uint64(lock)},
	}
	for _, s := range stores {
		if trap := k.MMU.Store64(hdr+uint64(s.off), s.val); trap != nil {
			return 0, k.crashFromException(&kvm.Exception{Kind: kvm.ExcTrap, Trap: trap})
		}
	}
	return hdr, nil
}

// NewBufHdr allocates a persistent buffer header for a cached buffer. The
// cache keeps one per buffer for the buffer's lifetime, which gives the
// kernel-heap fault models long-lived targets — flip a bit in a header's
// data pointer and the next sanctioned write goes somewhere wild, exactly
// the failure mode Rio's protection exists to catch.
func (k *Kernel) NewBufHdr(data uint64, lock LockID) (uint64, error) {
	return k.WriteBlockArgs(data, 0, 0, 0, lock)
}

// SetBufHdrOp fills in the per-operation fields of a persistent buffer
// header before WriteBlock/ReadBlock: transfer size, staging address, and
// byte offset within the buffer.
func (k *Kernel) SetBufHdrOp(hdr uint64, size int, src uint64, dstOff int) error {
	stores := []struct {
		off int
		val uint64
	}{
		{bufHdrOffSize, uint64(size)},
		{bufHdrOffSrc, src},
		{bufHdrOffDst, uint64(dstOff)},
	}
	for _, s := range stores {
		if trap := k.MMU.Store64(hdr+uint64(s.off), s.val); trap != nil {
			return k.crashFromException(&kvm.Exception{Kind: kvm.ExcTrap, Trap: trap})
		}
	}
	return nil
}

// FreeBufHdr releases a buffer header created by WriteBlockArgs.
func (k *Kernel) FreeBufHdr(hdr uint64) {
	// Best effort: if the heap is corrupt this will surface on the next
	// malloc's consistency walk.
	_ = k.Heap.Free(hdr)
}

// WriteBlock runs the sanctioned file-cache write path: staged data ->
// buffer. In FastPath mode the same checks (magic, protection) happen in
// Go.
func (k *Kernel) WriteBlock(hdr uint64) error {
	if k.crash != nil {
		return ErrCrashed
	}
	if k.FastPath {
		return k.fastBlockOp(hdr, true)
	}
	return k.Exec("write_block", hdr)
}

// ReadBlock runs the sanctioned file-cache read path: buffer -> staging.
func (k *Kernel) ReadBlock(hdr uint64) error {
	if k.crash != nil {
		return ErrCrashed
	}
	if k.FastPath {
		return k.fastBlockOp(hdr, false)
	}
	return k.Exec("read_block", hdr)
}

func (k *Kernel) fastBlockOp(hdr uint64, write bool) error {
	ld := func(off int) uint64 {
		v, trap := k.MMU.Load64(hdr + uint64(off))
		if trap != nil {
			panic(trap) // header is in the heap; trusted in fast mode
		}
		return v
	}
	if ld(bufHdrOffMag) != BufHdrMagic {
		return k.Panic("buffer header magic mismatch")
	}
	data := ld(bufHdrOffData) + ld(bufHdrOffDst)
	size := int(ld(bufHdrOffSize))
	src := ld(bufHdrOffSrc)
	lock := LockID(ld(bufHdrOffLock))
	if err := k.Locks.Acquire(lock); err != nil {
		return k.Panic(err.Error())
	}
	var err error
	if write {
		err = k.BCopy(data, src, size)
	} else {
		err = k.BCopy(src, data, size)
	}
	if err != nil {
		return err
	}
	if lerr := k.Locks.Release(lock); lerr != nil {
		return k.Panic(lerr.Error())
	}
	return nil
}
