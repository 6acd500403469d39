package kernel

import (
	"fmt"

	"rio/internal/mmu"
)

// The kernel heap allocator. Blocks live in simulated memory (the heap
// region), each preceded by a 16-byte header:
//
//	+0  magic-and-state word: allocMagic or freeMagic
//	+8  block size in bytes (payload, excluding header)
//
// Keeping headers in simulated memory matters: the "kernel heap" bit-flip
// fault model flips bits in this region, and the allocator's magic checks
// are then real consistency checks that panic the kernel the way Digital
// Unix's sanity checks did.
const (
	allocMagic = 0xA110C8ED_00000001
	freeMagic  = 0xF4EEB10C_00000002
	hdrSize    = 16
	allocAlign = 16
)

// Allocator is a first-fit free-list allocator over [base, base+size).
type Allocator struct {
	u    *mmu.MMU
	base uint64
	size int

	// PrematureFree, if non-nil, is consulted on every Malloc; when it
	// returns a positive delay d, the freshly allocated block is freed
	// again after d further Mallocs — the paper's "allocation management"
	// fault model (malloc starts a thread that sleeps, then prematurely
	// frees the new block).
	PrematureFree func() int

	pending []pendingFree

	// Allocs and Frees count operations (fault-model pacing hooks key off
	// these).
	Allocs uint64
	Frees  uint64
}

type pendingFree struct {
	addr  uint64
	after uint64 // free when Allocs reaches this count
}

// NewAllocator initialises a heap over the given region. The region must be
// mapped writable in u before any allocation.
func NewAllocator(u *mmu.MMU, base uint64, size int) *Allocator {
	a := &Allocator{u: u, base: base, size: size}
	a.setHdr(base, freeMagic, uint64(size-hdrSize))
	return a
}

func (a *Allocator) setHdr(addr uint64, magic, size uint64) {
	if trap := a.u.Store64(addr, magic); trap != nil {
		panic(fmt.Sprintf("kernel: heap header store trapped: %v", trap))
	}
	if trap := a.u.Store64(addr+8, size); trap != nil {
		panic(fmt.Sprintf("kernel: heap header store trapped: %v", trap))
	}
}

// walk is the allocator's one header loop, and with it the kernel's heap
// consistency check: every Malloc and Free crosses every header from the
// heap base, so a flipped magic or a size that leads off the chain is
// found by the next allocator call, whoever makes it.
//
// It reads each header (both words through one translation) and hands it
// to visit, which returns the address of the header to read next —
// normally addr+hdrSize+size; addr itself to re-read a block it has just
// grown — and whether to go on. A header that traps, or carries neither
// magic, ends the walk with the error Malloc and CheckConsistency report
// and the other callers swallow. Sizes are deliberately not vetted here: a
// corrupt size sends the walk wherever it points, as it would a real
// first-fit allocator, and the load at that address is what trips.
func (a *Allocator) walk(visit func(addr, magic, size uint64) (next uint64, more bool)) error {
	end := a.base + uint64(a.size)
	for addr, more := a.base, true; more && addr < end; {
		magic, size, trap := a.u.Load64Pair(addr)
		if trap != nil {
			return fmt.Errorf("kernel: heap walk trapped at %#x: %w", addr, trap)
		}
		if magic != freeMagic && magic != allocMagic {
			return fmt.Errorf("kernel: heap corruption at %#x (magic %#x)", addr, magic)
		}
		addr, more = visit(addr, magic, size)
	}
	return nil
}

func align(n uint64) uint64 {
	return (n + allocAlign - 1) &^ (allocAlign - 1)
}

// Malloc allocates size bytes and returns the payload's virtual address.
// It returns an error wrapping a consistency failure if the heap is
// corrupt, and (0, nil) if the heap is simply full.
func (a *Allocator) Malloc(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("kernel: malloc of %d bytes", size)
	}
	a.Allocs++
	a.runPending()
	want := align(uint64(size))

	var got uint64
	err := a.walk(func(addr, magic, bsize uint64) (uint64, bool) {
		if magic == freeMagic && bsize >= want {
			a.carve(addr, bsize, want)
			got = addr + hdrSize
			return 0, false
		}
		return addr + hdrSize + bsize, true
	})
	if err != nil || got == 0 {
		return 0, err // corrupt, or (0, nil): heap full
	}
	if pf := a.PrematureFree; pf != nil {
		if d := pf(); d > 0 {
			a.pending = append(a.pending, pendingFree{addr: got, after: a.Allocs + uint64(d)})
		}
	}
	return got, nil
}

// carve splits a free block at addr (payload capacity bsize) to hold want
// bytes, leaving any worthwhile remainder free.
func (a *Allocator) carve(addr, bsize, want uint64) {
	const minSplit = hdrSize + allocAlign
	if bsize-want >= minSplit {
		rest := addr + hdrSize + want
		a.setHdr(rest, freeMagic, bsize-want-hdrSize)
		a.setHdr(addr, allocMagic, want)
	} else {
		a.setHdr(addr, allocMagic, bsize)
	}
}

// Free releases the block whose payload starts at addr. A bad pointer or a
// corrupted header is a kernel consistency failure.
func (a *Allocator) Free(addr uint64) error {
	a.Frees++
	h := addr - hdrSize
	magic, size, trap := a.u.Load64Pair(h)
	if trap != nil {
		return fmt.Errorf("kernel: free(%#x) trapped: %w", addr, trap)
	}
	if magic != allocMagic {
		return fmt.Errorf("kernel: free(%#x) of non-allocated block (magic %#x)", addr, magic)
	}
	a.setHdr(h, freeMagic, size)
	a.coalesce()
	return nil
}

// runPending executes premature frees whose delay has elapsed. Errors are
// swallowed: the faulty "thread" frees blindly. The freed payload is
// poisoned, as freed kernel memory is soon scribbled on by its next owner —
// this is what makes use-after-free crash (the original owner's magic
// checks fail) rather than silently linger.
func (a *Allocator) runPending() {
	kept := a.pending[:0]
	for _, p := range a.pending {
		if a.Allocs >= p.after {
			h := p.addr - hdrSize
			if magic, size, trap := a.u.Load64Pair(h); trap == nil && magic == allocMagic {
				for off := uint64(0); off+8 <= size; off += 8 {
					if trap := a.u.Store64(p.addr+off, 0xdeadbeefdeadbeef); trap != nil {
						break
					}
				}
				a.setHdr(h, freeMagic, size)
			}
		} else {
			kept = append(kept, p)
		}
	}
	a.pending = kept
}

// AllocatedBlocks returns the payload ranges of live allocations; fault
// injection targets heap bit-flips at real kernel objects rather than at
// free space. A corrupt heap yields the blocks before the corruption.
func (a *Allocator) AllocatedBlocks() [][2]uint64 {
	var out [][2]uint64
	_ = a.walk(func(addr, magic, size uint64) (uint64, bool) {
		if magic == allocMagic {
			out = append(out, [2]uint64{addr + hdrSize, size})
		}
		return addr + hdrSize + size, true
	})
	return out
}

// coalesce merges adjacent free blocks (single forward pass). It stops
// silently at corruption; Malloc will report it.
func (a *Allocator) coalesce() {
	end := a.base + uint64(a.size)
	_ = a.walk(func(addr, magic, size uint64) (uint64, bool) {
		next := addr + hdrSize + size
		if magic == freeMagic && next < end {
			if nm, ns, trap := a.u.Load64Pair(next); trap == nil && nm == freeMagic {
				a.setHdr(addr, freeMagic, size+hdrSize+ns)
				return addr, true // try to merge further
			}
		}
		return next, true
	})
}

// CheckConsistency walks the heap and returns an error on any corruption —
// the allocator's contribution to the kernel's background sanity checks.
func (a *Allocator) CheckConsistency() error {
	end := a.base + uint64(a.size)
	var bad error
	err := a.walk(func(addr, _, size uint64) (uint64, bool) {
		next := addr + hdrSize + size
		if next <= addr || next > end {
			bad = fmt.Errorf("kernel: heap block at %#x has impossible size %d", addr, size)
			return 0, false
		}
		return next, true
	})
	if err != nil {
		return err
	}
	return bad
}

// FreeBytes returns the total free payload capacity (up to the first
// corruption, if any).
func (a *Allocator) FreeBytes() int {
	total := 0
	_ = a.walk(func(addr, magic, size uint64) (uint64, bool) {
		if magic == freeMagic {
			total += int(size)
		}
		return addr + hdrSize + size, true
	})
	return total
}
