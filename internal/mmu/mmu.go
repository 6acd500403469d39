// Package mmu implements the simulated memory-management unit: page tables,
// a TLB, the KSEG physical-address window, and Rio's protection machinery.
//
// The paper's protection story hinges on two access paths into memory:
//
//   - Virtual addresses, translated through the page tables/TLB, where
//     write-permission bits can protect file-cache pages.
//   - KSEG physical addresses, which on a stock Alpha bypass the TLB
//     entirely — and through which Digital Unix reaches the bulk of the
//     file cache (the UBC).
//
// Rio sets a bit in the ABOX CPU control register so that KSEG addresses
// are mapped through the TLB too, making them checkable. This package
// models that bit as MapAllThroughTLB. With it off, a wild store issued
// through KSEG silently corrupts any frame; with it on, stores to
// write-protected frames trap. A third mode, CodePatching, models the
// software fallback for CPUs that cannot force KSEG through the TLB: every
// kernel store is preceded by an inserted check (same protection outcome,
// 20-50% slower; reproduced as a cost-model ablation).
package mmu

import (
	"encoding/binary"
	"fmt"

	"rio/internal/mem"
)

// KSEGBase is the start of the simulated KSEG window. A KSEG address k maps
// to physical address k - KSEGBase. (On the real Alpha, KSEG is selected by
// the two top address bits being 10; a simple offset keeps simulated
// addresses readable.)
const KSEGBase uint64 = 1 << 40

// IsKSEG reports whether addr lies in the KSEG window.
func IsKSEG(addr uint64) bool { return addr >= KSEGBase }

// PhysToKSEG converts a physical address to its KSEG alias.
func PhysToKSEG(phys uint64) uint64 { return phys + KSEGBase }

// KSEGToPhys converts a KSEG address to the physical address it names.
func KSEGToPhys(addr uint64) uint64 { return addr - KSEGBase }

// TrapKind classifies an MMU trap.
type TrapKind int

const (
	// TrapIllegalAddress is an access to an unmapped virtual page or a
	// physical address outside of installed memory. On a 64-bit machine
	// most wild pointers land here — the paper credits this implicit check
	// with stopping most crashes before they corrupt anything.
	TrapIllegalAddress TrapKind = iota
	// TrapProtection is a store to a write-protected page: either a
	// read-only PTE or a Rio-protected file-cache/registry frame.
	TrapProtection
)

func (k TrapKind) String() string {
	switch k {
	case TrapIllegalAddress:
		return "illegal address"
	case TrapProtection:
		return "protection violation"
	default:
		return fmt.Sprintf("TrapKind(%d)", int(k))
	}
}

// Trap describes an MMU fault. It implements error.
type Trap struct {
	Kind  TrapKind
	Addr  uint64
	Write bool
}

func (t *Trap) Error() string {
	op := "load"
	if t.Write {
		op = "store"
	}
	return fmt.Sprintf("mmu: %s trap on %s to %#x", t.Kind, op, t.Addr)
}

// PTE is a page-table entry mapping one virtual page to a physical frame.
type PTE struct {
	Frame    int  // physical frame number
	Writable bool // page-table write permission
	Valid    bool
}

// Stats counts MMU activity; the performance model charges time per event.
type Stats struct {
	VirtLoads  uint64
	VirtStores uint64
	KSEGLoads  uint64
	KSEGStores uint64
	TLBHits    uint64
	TLBMisses  uint64
	ProtToggle uint64 // protection open/close operations
	ProtChecks uint64 // code-patching per-store checks
	Traps      uint64
}

const tlbEntries = 64 // direct-mapped, like a small 21064-era DTB

type tlbEntry struct {
	vpage    uint64
	frame    int
	writable bool // PTE writable AND frame not Rio-protected, at fill time
	valid    bool
}

// MMU translates and checks memory accesses against a Memory.
type MMU struct {
	Mem *mem.Memory

	// MapAllThroughTLB models the ABOX control-register bit: when true,
	// KSEG stores are checked against frame protection (and charged a TLB
	// lookup); when false they bypass all checks, as on a stock kernel.
	MapAllThroughTLB bool

	// CodePatching models the software-check fallback: protection is
	// enforced on KSEG stores by inserted code rather than the TLB. It is
	// functionally equivalent to MapAllThroughTLB for stores but charges a
	// check on *every* kernel store (see Stats.ProtChecks).
	CodePatching bool

	// EnforceProtection is the master switch for Rio protection. When
	// false, frame WriteProtected bits are ignored entirely (the "Rio
	// without protection" configuration).
	EnforceProtection bool

	Stats Stats

	ptes map[uint64]PTE
	tlb  [tlbEntries]tlbEntry
}

// New returns an MMU over m with an empty page table. All protection modes
// default off, matching a stock kernel.
func New(m *mem.Memory) *MMU {
	return &MMU{Mem: m, ptes: make(map[uint64]PTE)}
}

// Map installs a PTE for virtual page vpage (a page number, not an
// address) pointing at the given physical frame.
func (u *MMU) Map(vpage uint64, frame int, writable bool) {
	if frame < 0 || frame >= u.Mem.NumFrames() {
		panic(fmt.Sprintf("mmu: mapping to bad frame %d", frame))
	}
	u.ptes[vpage] = PTE{Frame: frame, Writable: writable, Valid: true}
	u.flushVPage(vpage)
}

// Unmap removes the PTE for vpage.
func (u *MMU) Unmap(vpage uint64) {
	delete(u.ptes, vpage)
	u.flushVPage(vpage)
}

// Lookup returns the PTE for vpage, if any.
func (u *MMU) Lookup(vpage uint64) (PTE, bool) {
	p, ok := u.ptes[vpage]
	return p, ok
}

// SetFrameProtection sets or clears Rio write protection on a physical
// frame and performs the TLB shootdown a real kernel would need. This is
// the "open/close write permission" primitive file-cache procedures call
// around sanctioned writes.
func (u *MMU) SetFrameProtection(frame int, protected bool) {
	u.Mem.Frame(frame).WriteProtected = protected
	u.Stats.ProtToggle++
	u.flushFrame(frame)
}

func (u *MMU) flushVPage(vpage uint64) {
	e := &u.tlb[vpage%tlbEntries]
	if e.valid && e.vpage == vpage {
		e.valid = false
	}
}

func (u *MMU) flushFrame(frame int) {
	for i := range u.tlb {
		if u.tlb[i].valid && u.tlb[i].frame == frame {
			u.tlb[i].valid = false
		}
	}
}

// frameProtected reports whether Rio protection currently forbids stores to
// the frame.
func (u *MMU) frameProtected(frame int) bool {
	if !u.EnforceProtection {
		return false
	}
	f := u.Mem.Frame(frame)
	return f.WriteProtected
}

// translateVirt translates a virtual address, consulting the TLB.
func (u *MMU) translateVirt(addr uint64, write bool) (uint64, *Trap) {
	vpage := addr >> mem.PageShift
	off := addr & (mem.PageSize - 1)

	if write && u.CodePatching {
		// Software fault isolation checks every kernel store, not just
		// KSEG ones — that blanket cost is why the paper prefers the
		// TLB-based scheme when the CPU supports it.
		u.Stats.ProtChecks++
	}
	e := &u.tlb[vpage%tlbEntries]
	if e.valid && e.vpage == vpage {
		u.Stats.TLBHits++
		if write && !e.writable {
			u.Stats.Traps++
			// Distinguish PTE read-only from Rio protection for reporting.
			kind := TrapProtection
			return 0, &Trap{Kind: kind, Addr: addr, Write: true}
		}
		return mem.FrameBase(e.frame) + off, nil
	}
	u.Stats.TLBMisses++

	pte, ok := u.ptes[vpage]
	if !ok || !pte.Valid {
		u.Stats.Traps++
		return 0, &Trap{Kind: TrapIllegalAddress, Addr: addr, Write: write}
	}
	writable := pte.Writable && !u.frameProtected(pte.Frame)
	*e = tlbEntry{vpage: vpage, frame: pte.Frame, writable: writable, valid: true}
	if write && !writable {
		u.Stats.Traps++
		return 0, &Trap{Kind: TrapProtection, Addr: addr, Write: true}
	}
	return mem.FrameBase(pte.Frame) + off, nil
}

// translateKSEG resolves a KSEG address, applying protection according to
// the configured mode.
func (u *MMU) translateKSEG(addr uint64, write bool) (uint64, *Trap) {
	phys := KSEGToPhys(addr)
	if !u.Mem.Contains(phys) {
		u.Stats.Traps++
		return 0, &Trap{Kind: TrapIllegalAddress, Addr: addr, Write: write}
	}
	if write {
		checked := u.MapAllThroughTLB || u.CodePatching
		if u.CodePatching {
			u.Stats.ProtChecks++
		}
		if checked && u.frameProtected(mem.FrameOf(phys)) {
			u.Stats.Traps++
			return 0, &Trap{Kind: TrapProtection, Addr: addr, Write: true}
		}
	}
	return phys, nil
}

// Translate resolves addr (virtual or KSEG) to a physical address, checking
// permissions for the given access direction.
func (u *MMU) Translate(addr uint64, write bool) (uint64, *Trap) {
	if IsKSEG(addr) {
		return u.translateKSEG(addr, write)
	}
	return u.translateVirt(addr, write)
}

// LoadByte reads one byte through address translation.
func (u *MMU) LoadByte(addr uint64) (byte, *Trap) {
	phys, trap := u.Translate(addr, false)
	if trap != nil {
		return 0, trap
	}
	u.countLoad(addr)
	return u.Mem.Byte(phys), nil
}

// StoreByte writes one byte through address translation and protection.
func (u *MMU) StoreByte(addr uint64, b byte) *Trap {
	phys, trap := u.Translate(addr, true)
	if trap != nil {
		return trap
	}
	u.countStore(addr)
	u.Mem.SetByte(phys, b)
	return nil
}

// Load64 reads a little-endian 64-bit word. The access may not straddle a
// page boundary on the virtual side; straddling is treated as an illegal
// address (real Alphas require aligned loads — close enough, and it keeps
// wild unaligned pointers trapping).
func (u *MMU) Load64(addr uint64) (uint64, *Trap) {
	if addr%8 != 0 {
		u.Stats.Traps++
		return 0, &Trap{Kind: TrapIllegalAddress, Addr: addr}
	}
	phys, trap := u.Translate(addr, false)
	if trap != nil {
		return 0, trap
	}
	u.countLoad(addr)
	return u.Mem.Word64(phys), nil
}

// Load64Pair reads the two consecutive words at addr and addr+8 — a
// 16-byte record such as a kernel-heap block header. It is Load64(addr)
// followed by Load64(addr+8) in every observable respect (values, traps,
// Stats), through one translation when both words lie in one page: the
// second lookup would hit the TLB entry the first one used or filled, so
// it is booked as that hit rather than performed. A misaligned or
// page-straddling pair takes the two-load path itself.
func (u *MMU) Load64Pair(addr uint64) (lo, hi uint64, trap *Trap) {
	if addr%8 != 0 || addr&(mem.PageSize-1) > mem.PageSize-16 {
		if lo, trap = u.Load64(addr); trap != nil {
			return 0, 0, trap
		}
		if hi, trap = u.Load64(addr + 8); trap != nil {
			return 0, 0, trap
		}
		return lo, hi, nil
	}
	phys, trap := u.Translate(addr, false)
	if trap != nil {
		return 0, 0, trap
	}
	if IsKSEG(addr) {
		u.Stats.KSEGLoads += 2
	} else {
		u.Stats.VirtLoads += 2
		u.Stats.TLBHits++
	}
	return u.Mem.Word64(phys), u.Mem.Word64(phys + 8), nil
}

// CopyWords copies k words of width bytes, 8 or 1, forward: word i from
// src+width·i to dst+width·i. It is k × (load; store) in every observable
// respect — words, traps, Stats, TLB — where a width-8 word goes through
// Load64 and Store64, alignment traps included, and a width-1 word through
// LoadByte and StoreByte. It returns the number of words stored, the last
// word loaded, and the trap that stopped it (Write tells a store trap,
// after word n was loaded, from a load trap, before it was).
//
// The first word of a run goes through those accessors. The rest of the
// run, while both addresses stay in the pages that word translated, would
// repeat its two translations exactly — same PTEs, same protection, no
// trap — so it is booked rather than performed: a TLB hit per access, or a
// miss per access when the two virtual pages share a TLB slot and evict
// each other (each refill restores the entry the other access displaced,
// so the TLB ends as the first word left it). The run's bytes move with
// copy() (memmove) unless its destination starts inside its source, after
// the source's start: only that forward overlap makes the word loop read
// words it has already stored, so only there the bytes move one at a time
// and smear as the loop does. Physical addresses decide, not virtual ones:
// two virtual pages may map one frame.
func (u *MMU) CopyWords(dst, src uint64, k, width int) (n int, last uint64, trap *Trap) {
	w := uint64(width)
	for n < k {
		s, d := src+w*uint64(n), dst+w*uint64(n)
		v, trap := u.loadWord(s, width)
		if trap != nil {
			return n, last, trap
		}
		last = v
		ps := u.resident(s) // before the store can evict s's TLB entry
		if trap := u.storeWord(d, v, width); trap != nil {
			return n, last, trap
		}
		pd := u.resident(d)
		n++
		run := min(k-n, wordsLeft(s, w), wordsLeft(d, w))
		if run == 0 {
			continue
		}
		from := u.Mem.View(ps+w, width*run)
		to := u.Mem.Slice(pd+w, width*run)
		if pd <= ps || pd >= ps+w*uint64(run) {
			copy(to, from)
		} else {
			// Bytes smear as words do: pd−ps is a multiple of the width,
			// so a byte is read after its store exactly when its word is.
			for i := range to {
				to[i] = from[i]
			}
		}
		if width == 8 {
			last = binary.LittleEndian.Uint64(to[8*(run-1):])
		} else {
			last = uint64(to[run-1])
		}
		u.bookRun(s, d, uint64(run))
		n += run
	}
	return n, last, nil
}

// loadWord and storeWord are the accessors of a CopyWords word.
func (u *MMU) loadWord(addr uint64, width int) (uint64, *Trap) {
	if width == 8 {
		return u.Load64(addr)
	}
	b, trap := u.LoadByte(addr)
	return uint64(b), trap
}

func (u *MMU) storeWord(addr, v uint64, width int) *Trap {
	if width == 8 {
		return u.Store64(addr, v)
	}
	return u.StoreByte(addr, byte(v))
}

// wordsLeft is the number of whole words of w bytes after the one at addr
// in addr's page.
func wordsLeft(addr, w uint64) int {
	return int((mem.PageSize - w - addr&(mem.PageSize-1)) / w)
}

// resident is the physical address of addr, whose page the last access
// translated: a KSEG address, or a virtual one whose TLB entry that access
// used or filled.
func (u *MMU) resident(addr uint64) uint64 {
	if IsKSEG(addr) {
		return KSEGToPhys(addr)
	}
	vpage := addr >> mem.PageShift
	return mem.FrameBase(u.tlb[vpage%tlbEntries].frame) + addr&(mem.PageSize-1)
}

// bookRun charges the Stats of n more load/store pairs in the pages of s
// and d, as Load64 and Store64 would.
func (u *MMU) bookRun(s, d, n uint64) {
	st := &u.Stats
	vs, vd := s>>mem.PageShift, d>>mem.PageShift
	thrash := !IsKSEG(s) && !IsKSEG(d) && vs != vd && vs%tlbEntries == vd%tlbEntries
	lookup := &st.TLBHits
	if thrash {
		lookup = &st.TLBMisses
	}
	if IsKSEG(s) {
		st.KSEGLoads += n
	} else {
		st.VirtLoads += n
		*lookup += n
	}
	if u.CodePatching {
		st.ProtChecks += n
	}
	if IsKSEG(d) {
		st.KSEGStores += n
	} else {
		st.VirtStores += n
		*lookup += n
	}
}

// Store64 writes a little-endian 64-bit word, aligned.
func (u *MMU) Store64(addr uint64, v uint64) *Trap {
	if addr%8 != 0 {
		u.Stats.Traps++
		return &Trap{Kind: TrapIllegalAddress, Addr: addr, Write: true}
	}
	phys, trap := u.Translate(addr, true)
	if trap != nil {
		return trap
	}
	u.countStore(addr)
	u.Mem.SetWord64(phys, v)
	return nil
}

// ReadBytes copies n bytes starting at addr into buf, page by page.
func (u *MMU) ReadBytes(addr uint64, buf []byte) *Trap {
	for len(buf) > 0 {
		phys, trap := u.Translate(addr, false)
		if trap != nil {
			return trap
		}
		n := int(mem.PageSize - (addr & (mem.PageSize - 1)))
		if n > len(buf) {
			n = len(buf)
		}
		u.countLoad(addr)
		u.Mem.ReadAt(phys, buf[:n])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// ViewBytes returns a direct read-only view of [addr, addr+n) when the
// range lies within a single page, with exactly the translation and
// load accounting ReadBytes would perform for it. A range that spans
// pages returns (nil, nil): virtually contiguous pages need not be
// physically contiguous, so the caller falls back to a copy. Callers
// must not write through or retain the view — it aliases the frame
// itself (the checksum path reads it in place and drops it).
func (u *MMU) ViewBytes(addr uint64, n int) ([]byte, *Trap) {
	if n <= 0 || int(mem.PageSize-(addr&(mem.PageSize-1))) < n {
		return nil, nil
	}
	phys, trap := u.Translate(addr, false)
	if trap != nil {
		return nil, trap
	}
	u.countLoad(addr)
	return u.Mem.View(phys, n), nil
}

// WriteBytes copies buf to addr, page by page, with protection checks per
// page.
func (u *MMU) WriteBytes(addr uint64, buf []byte) *Trap {
	for len(buf) > 0 {
		phys, trap := u.Translate(addr, true)
		if trap != nil {
			return trap
		}
		n := int(mem.PageSize - (addr & (mem.PageSize - 1)))
		if n > len(buf) {
			n = len(buf)
		}
		u.countStore(addr)
		u.Mem.WriteAt(phys, buf[:n])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

func (u *MMU) countLoad(addr uint64) {
	if IsKSEG(addr) {
		u.Stats.KSEGLoads++
	} else {
		u.Stats.VirtLoads++
	}
}

func (u *MMU) countStore(addr uint64) {
	if IsKSEG(addr) {
		u.Stats.KSEGStores++
	} else {
		u.Stats.VirtStores++
	}
}
