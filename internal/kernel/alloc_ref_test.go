package kernel

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/sim"
)

// refAllocator is the allocator as it stood before the single walk: every
// header read is two Load64 calls, and each of Malloc, coalesce,
// CheckConsistency, FreeBytes and AllocatedBlocks carries its own copy of
// the header loop. It is kept as the oracle Allocator is held to, op for
// op, in TestAllocatorMatchesReferenceWalk. It runs over a heap that
// kernel.New has already initialised.
type refAllocator struct {
	u    *mmu.MMU
	base uint64
	size int

	PrematureFree func() int
	pending       []pendingFree
	Allocs        uint64
}

func (a *refAllocator) setHdr(addr uint64, magic, size uint64) {
	if trap := a.u.Store64(addr, magic); trap != nil {
		panic(fmt.Sprintf("kernel: heap header store trapped: %v", trap))
	}
	if trap := a.u.Store64(addr+8, size); trap != nil {
		panic(fmt.Sprintf("kernel: heap header store trapped: %v", trap))
	}
}

func (a *refAllocator) hdr(addr uint64) (magic, size uint64, err error) {
	magic, trap := a.u.Load64(addr)
	if trap != nil {
		return 0, 0, trap
	}
	size, trap = a.u.Load64(addr + 8)
	if trap != nil {
		return 0, 0, trap
	}
	return magic, size, nil
}

func (a *refAllocator) Malloc(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("kernel: malloc of %d bytes", size)
	}
	a.Allocs++
	a.runPending()
	want := align(uint64(size))

	addr := a.base
	end := a.base + uint64(a.size)
	for addr < end {
		magic, bsize, err := a.hdr(addr)
		if err != nil {
			return 0, fmt.Errorf("kernel: heap walk trapped at %#x: %w", addr, err)
		}
		switch magic {
		case freeMagic:
			if bsize >= want {
				a.carve(addr, bsize, want)
				if pf := a.PrematureFree; pf != nil {
					if d := pf(); d > 0 {
						a.pending = append(a.pending,
							pendingFree{addr: addr + hdrSize, after: a.Allocs + uint64(d)})
					}
				}
				return addr + hdrSize, nil
			}
		case allocMagic:
		default:
			return 0, fmt.Errorf("kernel: heap corruption at %#x (magic %#x)", addr, magic)
		}
		addr += hdrSize + bsize
	}
	return 0, nil
}

func (a *refAllocator) carve(addr, bsize, want uint64) {
	const minSplit = hdrSize + allocAlign
	if bsize-want >= minSplit {
		rest := addr + hdrSize + want
		a.setHdr(rest, freeMagic, bsize-want-hdrSize)
		a.setHdr(addr, allocMagic, want)
	} else {
		a.setHdr(addr, allocMagic, bsize)
	}
}

func (a *refAllocator) Free(addr uint64) error {
	h := addr - hdrSize
	magic, size, err := a.hdr(h)
	if err != nil {
		return fmt.Errorf("kernel: free(%#x) trapped: %w", addr, err)
	}
	if magic != allocMagic {
		return fmt.Errorf("kernel: free(%#x) of non-allocated block (magic %#x)", addr, magic)
	}
	a.setHdr(h, freeMagic, size)
	a.coalesce()
	return nil
}

func (a *refAllocator) runPending() {
	kept := a.pending[:0]
	for _, p := range a.pending {
		if a.Allocs >= p.after {
			h := p.addr - hdrSize
			if magic, size, err := a.hdr(h); err == nil && magic == allocMagic {
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

func (a *refAllocator) AllocatedBlocks() [][2]uint64 {
	var out [][2]uint64
	addr := a.base
	end := a.base + uint64(a.size)
	for addr < end {
		magic, size, err := a.hdr(addr)
		if err != nil || (magic != freeMagic && magic != allocMagic) {
			return out
		}
		if magic == allocMagic {
			out = append(out, [2]uint64{addr + hdrSize, size})
		}
		addr += hdrSize + size
	}
	return out
}

func (a *refAllocator) coalesce() {
	addr := a.base
	end := a.base + uint64(a.size)
	for addr < end {
		magic, size, err := a.hdr(addr)
		if err != nil || (magic != freeMagic && magic != allocMagic) {
			return
		}
		next := addr + hdrSize + size
		if magic == freeMagic && next < end {
			nm, ns, err := a.hdr(next)
			if err == nil && nm == freeMagic {
				a.setHdr(addr, freeMagic, size+hdrSize+ns)
				continue
			}
		}
		addr = next
	}
}

func (a *refAllocator) CheckConsistency() error {
	addr := a.base
	end := a.base + uint64(a.size)
	for addr < end {
		magic, size, err := a.hdr(addr)
		if err != nil {
			return fmt.Errorf("kernel: heap walk trapped at %#x: %w", addr, err)
		}
		if magic != freeMagic && magic != allocMagic {
			return fmt.Errorf("kernel: heap corruption at %#x (magic %#x)", addr, magic)
		}
		next := addr + hdrSize + size
		if next <= addr || next > end {
			return fmt.Errorf("kernel: heap block at %#x has impossible size %d", addr, size)
		}
		addr = next
	}
	return nil
}

func (a *refAllocator) FreeBytes() int {
	total := 0
	addr := a.base
	end := a.base + uint64(a.size)
	for addr < end {
		magic, size, err := a.hdr(addr)
		if err != nil || (magic != freeMagic && magic != allocMagic) {
			return total
		}
		if magic == freeMagic {
			total += int(size)
		}
		addr += hdrSize + size
	}
	return total
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestAllocatorMatchesReferenceWalk runs the allocator and the
// word-at-a-time reference on twin kernels through the same seeded churn —
// mixed sizes, exhaustion, bad frees, premature frees, and corrupted
// headers — and requires, after every single op: the same address, the
// same error text, byte-identical heap frames, and identical MMU
// accounting (loads, TLB hits and misses, traps). That is what "the walk
// is still the kernel's consistency check, and costs the simulation
// exactly what it did" means.
func TestAllocatorMatchesReferenceWalk(t *testing.T) {
	const (
		episodes      = 48
		opsPerEpisode = 450 // 21 600 ops in all
	)
	heap := func(k *Kernel) []byte { return k.Mem.Slice(HeapPhysBase, HeapSize) }
	text := BuildText()
	rng := sim.NewRand(1996)
	seen := map[string]int{} // outcomes exercised, for the coverage check below
	op := 0

	for ep := 0; ep < episodes; ep++ {
		mk := func() *Kernel {
			m := mem.New(128 * mem.PageSize)
			return New(m, mmu.New(m), text)
		}
		ka, kb := mk(), mk()
		got := ka.Heap
		ref := &refAllocator{u: kb.MMU, base: HeapBase, size: HeapSize}

		// Premature frees: each side draws from its own copy of one
		// stream, so a diverging call count shows up as diverging delays.
		pa, pb := sim.NewRand(uint64(ep)), sim.NewRand(uint64(ep))
		delay := func(r *sim.Rand) func() int {
			return func() int {
				if r.Intn(8) == 0 {
					return 1 + r.Intn(6)
				}
				return 0
			}
		}
		got.PrematureFree, ref.PrematureFree = delay(pa), delay(pb)

		// poke stores the same word into both heaps, raw (a fault, not a
		// kernel store).
		poke := func(vaddr, v uint64) {
			ka.Mem.SetWord64(HeapPhys(vaddr), v)
			kb.Mem.SetWord64(HeapPhys(vaddr), v)
		}
		check := func(what string) {
			t.Helper()
			if !bytes.Equal(heap(ka), heap(kb)) {
				t.Fatalf("op %d (%s): heap frames differ", op, what)
			}
			if ka.MMU.Stats != kb.MMU.Stats {
				t.Fatalf("op %d (%s): mmu stats differ:\n walk %+v\n ref  %+v", op, what, ka.MMU.Stats, kb.MMU.Stats)
			}
		}

		var live []uint64
		corruptAt := opsPerEpisode/2 + rng.Intn(opsPerEpisode/3)
		for i := 0; i < opsPerEpisode; i++ {
			op++
			if i == corruptAt && len(live) > 0 {
				// Corrupt one live block's header, the way the kernel-heap
				// fault model does (a bit flip), or with a size crafted to
				// send the walk somewhere specific.
				h := live[rng.Intn(len(live))] - hdrSize
				size := kb.Mem.Word64(HeapPhys(h + 8))
				pageEnd := (h | (mem.PageSize - 1)) + 1
				switch ep % 6 {
				case 0, 1: // single-bit flip, magic or size word
					a := HeapPhys(h) + uint64(rng.Intn(hdrSize))
					bit := uint(rng.Intn(8))
					ka.Mem.FlipBit(a, bit)
					kb.Mem.FlipBit(a, bit)
				case 2: // next header misaligned: Load64's alignment trap
					poke(h+8, size|4)
				case 3: // next header straddles two heap pages
					poke(h+8, pageEnd-8-(h+hdrSize))
				case 4: // next header straddles the end of the heap
					poke(h+8, HeapBase+HeapSize-8-(h+hdrSize))
				case 5: // size wraps the address space to below the heap
					poke(h+8, -(h+hdrSize)+StackLimit)
				}
				check("corrupt")
			}

			var what string
			var ea, eb error
			switch r := rng.Intn(100); {
			case r < 55: // malloc, mostly buffer-header sized
				n := BufHdrSize
				switch rng.Intn(10) {
				case 0:
					n = 1 + rng.Intn(16*1024)
				case 1, 2, 3:
					n = 1 + rng.Intn(300)
				}
				what = fmt.Sprintf("malloc(%d)", n)
				var a, b uint64
				a, ea = got.Malloc(n)
				b, eb = ref.Malloc(n)
				if a != b {
					t.Fatalf("op %d: %s = %#x, reference %#x", op, what, a, b)
				}
				if a != 0 {
					live = append(live, a)
				} else if ea == nil {
					seen["heap full"]++
				}
			case r < 90 && len(live) > 0: // free a live block
				j := rng.Intn(len(live))
				p := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				what = fmt.Sprintf("free(%#x)", p)
				ea, eb = got.Free(p), ref.Free(p)
			case r < 93: // free of a pointer that is no block
				p := HeapBase + uint64(rng.Intn(HeapSize/8))*8 + hdrSize
				what = fmt.Sprintf("free(bad %#x)", p)
				ea, eb = got.Free(p), ref.Free(p)
			case r < 96:
				what = "CheckConsistency"
				ea, eb = got.CheckConsistency(), ref.CheckConsistency()
			case r < 98:
				what = "FreeBytes"
				if a, b := got.FreeBytes(), ref.FreeBytes(); a != b {
					t.Fatalf("op %d: FreeBytes = %d, reference %d", op, a, b)
				}
			default:
				what = "AllocatedBlocks"
				a, b := got.AllocatedBlocks(), ref.AllocatedBlocks()
				if fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("op %d: AllocatedBlocks differ:\n walk %v\n ref  %v", op, a, b)
				}
			}
			if errText(ea) != errText(eb) {
				t.Fatalf("op %d: %s error %q, reference %q", op, what, errText(ea), errText(eb))
			}
			for _, kind := range []string{"heap corruption", "heap walk trapped", "mmu: "} {
				if ea != nil && strings.Contains(ea.Error(), kind) {
					seen[kind]++
				}
			}
			check(what)
		}
	}
	if op < 20000 {
		t.Fatalf("only %d ops", op)
	}
	for _, kind := range []string{"heap full", "heap corruption", "heap walk trapped", "mmu: "} {
		if seen[kind] == 0 {
			t.Errorf("churn never produced %q; that path is untested (saw %v)", kind, seen)
		}
	}
}
