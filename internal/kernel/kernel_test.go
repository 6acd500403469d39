package kernel

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"rio/internal/kvm"
	"rio/internal/mem"
	"rio/internal/mmu"
)

func boot(t *testing.T) *Kernel {
	t.Helper()
	m := mem.New(128 * mem.PageSize)
	u := mmu.New(m)
	return New(m, u, BuildText())
}

func bootFast(t *testing.T) *Kernel {
	k := boot(t)
	k.FastPath = true
	return k
}

func TestBuildTextProcedures(t *testing.T) {
	text := BuildText()
	for _, name := range []string{"bcopy", "bzero", "cksum", "fill", "memcmp", "write_block", "read_block"} {
		p, ok := text.Proc(name)
		if !ok {
			t.Fatalf("missing procedure %q", name)
		}
		if p.Len() < 3 {
			t.Fatalf("%q suspiciously short (%d instrs)", name, p.Len())
		}
		if p.Prolog <= 0 || p.Prolog >= p.Len() {
			t.Fatalf("%q prolog = %d of %d", name, p.Prolog, p.Len())
		}
	}
}

func TestBCopyBothModes(t *testing.T) {
	for _, fast := range []bool{false, true} {
		k := boot(t)
		k.FastPath = fast
		msg := "hello rio file cache, surviving crashes since 1996"
		src := k.StageIn([]byte(msg))
		dst := HeapBase + 512 // somewhere writable
		if err := k.BCopy(dst, src, len(msg)); err != nil {
			t.Fatalf("fast=%v: %v", fast, err)
		}
		got := make([]byte, len(msg))
		k.Mem.ReadAt(HeapPhys(dst), got)
		if string(got) != msg {
			t.Fatalf("fast=%v: got %q", fast, got)
		}
	}
}

func TestBCopyUnalignedAndAligned(t *testing.T) {
	k := boot(t)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	src := k.StageIn(data)
	for _, dstOff := range []uint64{0, 1, 3, 8} {
		dst := HeapBase + 2048 + dstOff
		if err := k.BCopy(dst, src, len(data)); err != nil {
			t.Fatalf("off %d: %v", dstOff, err)
		}
		got := make([]byte, len(data))
		k.Mem.ReadAt(HeapPhys(dst), got)
		if !bytes.Equal(got, data) {
			t.Fatalf("off %d: copy mismatch", dstOff)
		}
	}
}

func TestBCopyKSEGDestination(t *testing.T) {
	k := boot(t)
	f := k.AllocFrame(FrameUBC)
	if f < 0 {
		t.Fatal("no frames")
	}
	dst := mmu.PhysToKSEG(mem.FrameBase(f))
	src := k.StageIn([]byte("ubc data via physical addressing"))
	if err := k.BCopy(dst, src, 32); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	k.Mem.ReadAt(mem.FrameBase(f), got)
	if string(got) != "ubc data via physical addressing" {
		t.Fatalf("got %q", got)
	}
}

func TestBZero(t *testing.T) {
	k := boot(t)
	k.Mem.WriteAt(HeapPhys(HeapBase+100), []byte{1, 2, 3, 4, 5})
	if err := k.Exec("bzero", HeapBase+100, 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	k.Mem.ReadAt(HeapPhys(HeapBase+100), got)
	if !bytes.Equal(got, make([]byte, 5)) {
		t.Fatalf("not zeroed: %v", got)
	}
}

func TestCksumModesAgree(t *testing.T) {
	slow := boot(t)
	fast := bootFast(t)
	data := []byte("checksum consistency across execution modes")
	a1 := slow.StageIn(data)
	a2 := fast.StageIn(data)
	c1, err1 := slow.Cksum(a1, len(data))
	c2, err2 := fast.Cksum(a2, len(data))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if c1 != c2 {
		t.Fatalf("slow %#x != fast %#x", c1, c2)
	}
	if c1 != CksumBytes(data) {
		t.Fatalf("reference %#x != vm %#x", CksumBytes(data), c1)
	}
}

func TestCksumDetectsChange(t *testing.T) {
	a := CksumBytes([]byte("aaaa"))
	b := CksumBytes([]byte("aaab"))
	if a == b {
		t.Fatal("checksum collision on single-byte change")
	}
}

// TestFillModesAgree: the interpreted fill and its Go reference, FillBytes,
// write the same pattern.
func TestFillModesAgree(t *testing.T) {
	k := boot(t)
	if err := k.Exec("fill", HeapBase+256, 200, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 200)
	k.Mem.ReadAt(HeapPhys(HeapBase+256), got)
	if !bytes.Equal(got, FillBytes(200, 12345)) {
		t.Fatal("reference FillBytes disagrees with vm")
	}
}

func TestFillBytesProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)
		if seed == 0 {
			seed = 1
		}
		a := FillBytes(n, seed)
		b := FillBytes(n, seed)
		return bytes.Equal(a, b) && len(a) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAndReadBlock(t *testing.T) {
	for _, fast := range []bool{false, true} {
		k := boot(t)
		k.FastPath = fast
		f := k.AllocFrame(FrameUBC)
		data := mmu.PhysToKSEG(mem.FrameBase(f))
		payload := []byte("block payload through the sanctioned path")
		src := k.StageIn(payload)
		lock := k.NewLockID()

		hdr, err := k.WriteBlockArgs(data, len(payload), src, 64, lock)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.WriteBlock(hdr); err != nil {
			t.Fatalf("fast=%v: %v", fast, err)
		}
		k.FreeBufHdr(hdr)

		got := make([]byte, len(payload))
		k.Mem.ReadAt(mem.FrameBase(f)+64, got)
		if !bytes.Equal(got, payload) {
			t.Fatalf("fast=%v: write_block mismatch: %q", fast, got)
		}

		// Read it back through read_block into staging.
		k.StageIn(make([]byte, len(payload))) // clear staging
		hdr, err = k.WriteBlockArgs(data, len(payload), StagingBase, 64, lock)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.ReadBlock(hdr); err != nil {
			t.Fatal(err)
		}
		k.FreeBufHdr(hdr)
		clear(got)
		k.StageOutInto(got)
		if !bytes.Equal(got, payload) {
			t.Fatalf("fast=%v: read_block mismatch", fast)
		}
		// Lock must be free afterwards.
		if k.Locks.Held(lock) {
			t.Fatal("buffer lock leaked")
		}
	}
}

func TestWriteBlockCorruptHeaderPanics(t *testing.T) {
	k := boot(t)
	f := k.AllocFrame(FrameUBC)
	src := k.StageIn([]byte("x"))
	hdr, err := k.WriteBlockArgs(mmu.PhysToKSEG(mem.FrameBase(f)), 1, src, 0, k.NewLockID())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the header magic, as a heap bit-flip fault would.
	k.Mem.FlipBit(HeapPhys(hdr), 2)
	err = k.WriteBlock(hdr)
	if err == nil {
		t.Fatal("corrupt header accepted")
	}
	c := k.Crashed()
	if c == nil || c.Kind != CrashPanic {
		t.Fatalf("crash = %v", c)
	}
}

func TestWriteBlockToProtectedFrameTraps(t *testing.T) {
	k := boot(t)
	k.MMU.EnforceProtection = true
	k.MMU.MapAllThroughTLB = true
	f := k.AllocFrame(FrameUBC)
	k.MMU.SetFrameProtection(f, true)
	src := k.StageIn([]byte("denied"))
	hdr, err := k.WriteBlockArgs(mmu.PhysToKSEG(mem.FrameBase(f)), 6, src, 0, k.NewLockID())
	if err != nil {
		t.Fatal(err)
	}
	err = k.WriteBlock(hdr)
	if err == nil {
		t.Fatal("store to protected frame succeeded")
	}
	if c := k.Crashed(); c == nil || c.Kind != CrashProtection {
		t.Fatalf("crash = %v", c)
	}
}

func TestOperationsAfterCrashFail(t *testing.T) {
	k := boot(t)
	k.Panic("test crash")
	if err := k.BCopy(HeapBase, StagingBase, 8); err != ErrCrashed {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if _, err := k.Cksum(HeapBase, 8); err != ErrCrashed {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicIdempotent(t *testing.T) {
	k := boot(t)
	c1 := k.Panic("first")
	c2 := k.Panic("second")
	if c1 != c2 || !strings.Contains(c1.Reason, "first") {
		t.Fatal("first crash did not win")
	}
}

func TestFrameAllocation(t *testing.T) {
	k := boot(t)
	total := k.FreeFrameCount()
	f1 := k.AllocFrame(FrameUBC)
	f2 := k.AllocFrame(FrameMeta)
	if f1 < 0 || f2 < 0 || f1 == f2 {
		t.Fatalf("frames %d %d", f1, f2)
	}
	if k.FreeFrameCount() != total-2 {
		t.Fatal("count wrong")
	}
	if got := k.FramesOf(FrameUBC); len(got) != 1 || got[0] != f1 {
		t.Fatalf("FramesOf = %v", got)
	}
	k.FreeFrame(f1)
	if k.FreeFrameCount() != total-1 {
		t.Fatal("free did not return frame")
	}
}

func TestFramePoolExhaustion(t *testing.T) {
	k := boot(t)
	for k.AllocFrame(FrameUBC) >= 0 {
	}
	if k.AllocFrame(FrameUBC) != -1 {
		t.Fatal("expected exhaustion")
	}
}

func TestMapDyn(t *testing.T) {
	k := boot(t)
	f := k.AllocFrame(FrameMeta)
	va := k.MapDyn(f, true)
	if trap := k.MMU.Store64(va+16, 0x77); trap != nil {
		t.Fatalf("store through dyn mapping: %v", trap)
	}
	if k.Mem.Word64(mem.FrameBase(f)+16) != 0x77 {
		t.Fatal("dyn mapping points at wrong frame")
	}
	va2 := k.MapDyn(k.AllocFrame(FrameMeta), true)
	if va2 == va {
		t.Fatal("duplicate dyn vaddr")
	}
}

func TestStaging(t *testing.T) {
	k := boot(t)
	data := []byte("staged payload")
	addr := k.StageIn(data)
	if addr != StagingBase {
		t.Fatalf("addr = %#x", addr)
	}
	got := make([]byte, len(data))
	if k.StageOutInto(got); !bytes.Equal(got, data) {
		t.Fatalf("StageOutInto = %q", got)
	}
}

func TestNullPointerTraps(t *testing.T) {
	// Page 0 is unmapped: a store through a null-ish pointer crashes with
	// an illegal-address trap — the implicit VM check the paper relies on.
	k := boot(t)
	err := k.BCopy(0x10, StagingBase, 8)
	if err == nil {
		t.Fatal("null store succeeded")
	}
	if c := k.Crashed(); c == nil || c.Kind != CrashTrap {
		t.Fatalf("crash = %v", c)
	}
}

func TestDeadlockIsHang(t *testing.T) {
	k := boot(t)
	lock := k.NewLockID()
	if err := k.Locks.Acquire(lock); err != nil {
		t.Fatal(err)
	}
	// A write_block on a buffer whose lock is already held deadlocks.
	f := k.AllocFrame(FrameUBC)
	src := k.StageIn([]byte("z"))
	hdr, err := k.WriteBlockArgs(mmu.PhysToKSEG(mem.FrameBase(f)), 1, src, 0, lock)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteBlock(hdr); err == nil {
		t.Fatal("deadlock not detected")
	}
	if c := k.Crashed(); c == nil || c.Kind != CrashHang {
		t.Fatalf("crash = %v", c)
	}
}

func TestStepsAccountingBothModes(t *testing.T) {
	slow := boot(t)
	fast := bootFast(t)
	src1 := slow.StageIn(make([]byte, 4096))
	src2 := fast.StageIn(make([]byte, 4096))
	slow.BCopy(HeapBase+1024, src1, 4096)
	fast.BCopy(HeapBase+1024, src2, 4096)
	if slow.Steps() == 0 || fast.Steps() == 0 {
		t.Fatal("no steps charged")
	}
	ratio := float64(slow.Steps()) / float64(fast.Steps())
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("step accounting diverges between modes: slow=%d fast=%d",
			slow.Steps(), fast.Steps())
	}
}

func TestKernelTooSmallPanics(t *testing.T) {
	m := mem.New(16 * mem.PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for tiny memory")
		}
	}()
	New(m, mmu.New(m), BuildText())
}

// --- allocator tests ---

func TestAllocatorBasic(t *testing.T) {
	k := boot(t)
	a := k.Heap
	p1, err := a.Malloc(100)
	if err != nil || p1 == 0 {
		t.Fatal(err)
	}
	p2, err := a.Malloc(200)
	if err != nil || p2 == 0 || p2 == p1 {
		t.Fatal(err)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorReuseAfterFree(t *testing.T) {
	k := boot(t)
	a := k.Heap
	before := a.FreeBytes()
	p, _ := a.Malloc(500)
	if a.FreeBytes() >= before {
		t.Fatal("malloc did not consume")
	}
	a.Free(p)
	if a.FreeBytes() != before {
		t.Fatalf("free bytes %d != %d after free (coalescing broken?)", a.FreeBytes(), before)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	k := boot(t)
	a := k.Heap
	var ptrs []uint64
	for {
		p, err := a.Malloc(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if p == 0 {
			break
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) == 0 {
		t.Fatal("no allocations before exhaustion")
	}
	// Free all and ensure full capacity returns.
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	p, err := a.Malloc(mem.PageSize)
	if err != nil || p == 0 {
		t.Fatal("heap did not recover after frees")
	}
}

func TestAllocatorDoubleFree(t *testing.T) {
	k := boot(t)
	p, _ := k.Heap.Malloc(64)
	if err := k.Heap.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Heap.Free(p); err == nil {
		t.Fatal("double free not detected")
	}
}

func TestAllocatorCorruptionDetected(t *testing.T) {
	k := boot(t)
	p, _ := k.Heap.Malloc(64)
	// Flip a bit in the block header (heap fault model).
	k.Mem.FlipBit(HeapPhys(p-16), 5)
	if err := k.Heap.CheckConsistency(); err == nil {
		t.Fatal("corruption not detected")
	}
	_ = p
}

func TestAllocatorPrematureFree(t *testing.T) {
	k := boot(t)
	a := k.Heap
	fire := true
	a.PrematureFree = func() int {
		if fire {
			fire = false
			return 1 // free after 1 further malloc
		}
		return 0
	}
	p1, _ := a.Malloc(64) // gets scheduled for premature free
	// The next malloc triggers the pending free of p1 and then first-fit
	// hands p1's block straight back out — two owners for one block.
	p2, _ := a.Malloc(64)
	if p2 != p1 {
		t.Fatalf("premature free did not recycle in-use block: p1=%#x p2=%#x", p1, p2)
	}
}

func TestAllocatorAlignment(t *testing.T) {
	k := boot(t)
	for i := 1; i < 40; i += 7 {
		p, err := k.Heap.Malloc(i)
		if err != nil || p == 0 {
			t.Fatal(err)
		}
		if p%16 != 0 {
			t.Fatalf("allocation %#x not 16-aligned", p)
		}
	}
}

func TestAllocatorProperty(t *testing.T) {
	// Random alloc/free sequences keep the heap consistent and never
	// return overlapping blocks.
	k := boot(t)
	a := k.Heap
	f := func(ops []uint16) bool {
		live := map[uint64]int{}
		for _, op := range ops {
			size := int(op%512) + 1
			if op%3 == 0 && len(live) > 0 {
				for p := range live {
					if a.Free(p) != nil {
						return false
					}
					delete(live, p)
					break
				}
			} else {
				p, err := a.Malloc(size)
				if err != nil {
					return false
				}
				if p == 0 {
					continue
				}
				for q, qs := range live {
					if p < q+uint64(qs) && q < p+uint64(size) {
						return false // overlap
					}
				}
				live[p] = size
			}
			if a.CheckConsistency() != nil {
				return false
			}
		}
		for p := range live {
			if a.Free(p) != nil {
				return false
			}
		}
		return a.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// --- lock tests ---

func TestLockBasics(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire(5); err != nil {
		t.Fatal(err)
	}
	if !lt.Held(5) {
		t.Fatal("not held")
	}
	if err := lt.Acquire(5); err == nil {
		t.Fatal("double acquire allowed")
	}
	if err := lt.Release(5); err != nil {
		t.Fatal(err)
	}
	if err := lt.Release(5); err == nil {
		t.Fatal("release of free lock allowed")
	}
}

func TestLockElision(t *testing.T) {
	lt := NewLockTable()
	lt.ElideAcquire = func() bool { return true }
	if err := lt.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if lt.Held(1) {
		t.Fatal("elided acquire took the lock")
	}
	lt.ElideAcquire = nil
	lt.ElideRelease = func() bool { return true }
	lt.Acquire(2)
	lt.Release(2)
	if !lt.Held(2) {
		t.Fatal("elided release freed the lock")
	}
}

func TestLockReset(t *testing.T) {
	lt := NewLockTable()
	lt.Acquire(1)
	lt.Reset()
	if lt.Held(1) {
		t.Fatal("reset did not clear")
	}
}

func TestCrashKindStrings(t *testing.T) {
	for _, k := range []CrashKind{CrashTrap, CrashProtection, CrashPanic, CrashHang, CrashIllegalInstr} {
		if k.String() == "" || strings.HasPrefix(k.String(), "CrashKind") {
			t.Fatalf("bad string for %d", int(k))
		}
	}
}

func TestFrameClassStrings(t *testing.T) {
	for c := FrameFree; c <= FrameRegistry; c++ {
		if c.String() == "?" {
			t.Fatalf("missing string for class %d", int(c))
		}
	}
}

func TestExceptionMapping(t *testing.T) {
	cases := []struct {
		exc  kvm.Exception
		want CrashKind
	}{
		{kvm.Exception{Kind: kvm.ExcTrap, Trap: &mmu.Trap{Kind: mmu.TrapIllegalAddress}}, CrashTrap},
		{kvm.Exception{Kind: kvm.ExcTrap, Trap: &mmu.Trap{Kind: mmu.TrapProtection}}, CrashProtection},
		{kvm.Exception{Kind: kvm.ExcIllegalInstr}, CrashIllegalInstr},
		{kvm.Exception{Kind: kvm.ExcAssert}, CrashPanic},
		{kvm.Exception{Kind: kvm.ExcBudget}, CrashHang},
		{kvm.Exception{Kind: kvm.ExcStackOverflow}, CrashPanic},
		{kvm.Exception{Kind: kvm.ExcIntrinsic, Reason: reasonDeadlock}, CrashHang},
		{kvm.Exception{Kind: kvm.ExcIntrinsic, Reason: "other"}, CrashPanic},
	}
	for i, c := range cases {
		k := boot(t)
		got := k.crashFromException(&c.exc)
		if got.Kind != c.want {
			t.Errorf("case %d: kind = %v, want %v", i, got.Kind, c.want)
		}
	}
}
