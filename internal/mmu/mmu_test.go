package mmu

import (
	"bytes"
	"testing"
	"testing/quick"

	"rio/internal/mem"
)

func newMMU(frames int) *MMU {
	return New(mem.New(frames * mem.PageSize))
}

func TestKSEGConversions(t *testing.T) {
	if !IsKSEG(KSEGBase) || IsKSEG(KSEGBase-1) {
		t.Fatal("IsKSEG boundary wrong")
	}
	if KSEGToPhys(PhysToKSEG(12345)) != 12345 {
		t.Fatal("KSEG round trip failed")
	}
}

func TestVirtualMapAndAccess(t *testing.T) {
	u := newMMU(4)
	u.Map(10, 2, true)
	addr := uint64(10*mem.PageSize + 64)
	if trap := u.Store64(addr, 0x1122334455667788); trap != nil {
		t.Fatalf("store trapped: %v", trap)
	}
	v, trap := u.Load64(addr)
	if trap != nil || v != 0x1122334455667788 {
		t.Fatalf("load = %#x, %v", v, trap)
	}
	// Data landed in frame 2.
	if u.Mem.Word64(2*mem.PageSize+64) != 0x1122334455667788 {
		t.Fatal("data not in mapped frame")
	}
}

func TestUnmappedTrapsIllegalAddress(t *testing.T) {
	u := newMMU(2)
	_, trap := u.Load64(99 * mem.PageSize)
	if trap == nil || trap.Kind != TrapIllegalAddress {
		t.Fatalf("trap = %v", trap)
	}
	if trap.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestReadOnlyPTE(t *testing.T) {
	u := newMMU(2)
	u.Map(0, 0, false)
	if trap := u.StoreByte(8, 1); trap == nil || trap.Kind != TrapProtection {
		t.Fatalf("store to read-only page: trap = %v", trap)
	}
	if _, trap := u.LoadByte(8); trap != nil {
		t.Fatalf("load from read-only page trapped: %v", trap)
	}
}

func TestUnalignedWord(t *testing.T) {
	u := newMMU(1)
	u.Map(0, 0, true)
	if _, trap := u.Load64(3); trap == nil || trap.Kind != TrapIllegalAddress {
		t.Fatalf("unaligned load trap = %v", trap)
	}
	if trap := u.Store64(5, 1); trap == nil {
		t.Fatal("unaligned store did not trap")
	}
}

func TestKSEGBypassWithoutRioBit(t *testing.T) {
	// Stock kernel: KSEG stores bypass protection even on protected frames.
	u := newMMU(2)
	u.EnforceProtection = true
	u.Mem.Frame(1).FileCache = true
	u.SetFrameProtection(1, true)

	addr := PhysToKSEG(uint64(mem.PageSize + 8))
	if trap := u.Store64(addr, 0xbad); trap != nil {
		t.Fatalf("KSEG store should bypass protection on stock kernel: %v", trap)
	}
	if u.Mem.Word64(mem.PageSize+8) != 0xbad {
		t.Fatal("bypassing store did not land")
	}
}

func TestKSEGCheckedWithRioBit(t *testing.T) {
	u := newMMU(2)
	u.EnforceProtection = true
	u.MapAllThroughTLB = true
	u.SetFrameProtection(1, true)

	addr := PhysToKSEG(uint64(mem.PageSize + 8))
	if trap := u.Store64(addr, 0xbad); trap == nil || trap.Kind != TrapProtection {
		t.Fatalf("KSEG store to protected frame: trap = %v", trap)
	}
	// Loads are always fine.
	if _, trap := u.Load64(addr); trap != nil {
		t.Fatalf("KSEG load trapped: %v", trap)
	}
	// Opening protection admits the store.
	u.SetFrameProtection(1, false)
	if trap := u.Store64(addr, 0x600d); trap != nil {
		t.Fatalf("store after opening protection trapped: %v", trap)
	}
}

func TestCodePatchingChecksKSEG(t *testing.T) {
	u := newMMU(2)
	u.EnforceProtection = true
	u.CodePatching = true
	u.SetFrameProtection(1, true)

	addr := PhysToKSEG(uint64(mem.PageSize))
	if trap := u.StoreByte(addr, 1); trap == nil || trap.Kind != TrapProtection {
		t.Fatalf("code patching missed protected store: %v", trap)
	}
	if u.Stats.ProtChecks == 0 {
		t.Fatal("code patching did not count checks")
	}
}

func TestEnforceProtectionMasterSwitch(t *testing.T) {
	// Protection bits set but enforcement off (Rio without protection):
	// stores proceed.
	u := newMMU(2)
	u.MapAllThroughTLB = true
	u.EnforceProtection = false
	u.SetFrameProtection(1, true)
	if trap := u.StoreByte(PhysToKSEG(uint64(mem.PageSize)), 7); trap != nil {
		t.Fatalf("store trapped with enforcement off: %v", trap)
	}
}

func TestVirtualStoreToProtectedFrame(t *testing.T) {
	// A virtual mapping with a writable PTE still traps if the frame is
	// Rio-protected: frame protection overrides.
	u := newMMU(2)
	u.EnforceProtection = true
	u.Map(0, 1, true)
	u.SetFrameProtection(1, true)
	if trap := u.StoreByte(0, 1); trap == nil || trap.Kind != TrapProtection {
		t.Fatalf("trap = %v", trap)
	}
}

func TestTLBShootdownOnProtectionChange(t *testing.T) {
	u := newMMU(2)
	u.EnforceProtection = true
	u.Map(0, 1, true)
	// Prime the TLB with a writable entry.
	if trap := u.StoreByte(0, 1); trap != nil {
		t.Fatalf("priming store trapped: %v", trap)
	}
	// Protect the frame; the cached TLB entry must not let stores through.
	u.SetFrameProtection(1, true)
	if trap := u.StoreByte(1, 2); trap == nil {
		t.Fatal("stale TLB entry allowed store to protected frame")
	}
	// And unprotecting must re-enable stores.
	u.SetFrameProtection(1, false)
	if trap := u.StoreByte(2, 3); trap != nil {
		t.Fatalf("store after unprotect trapped: %v", trap)
	}
}

func TestTLBShootdownOnUnmap(t *testing.T) {
	u := newMMU(2)
	u.Map(0, 0, true)
	if _, trap := u.LoadByte(0); trap != nil {
		t.Fatal("prime failed")
	}
	u.Unmap(0)
	if _, trap := u.LoadByte(0); trap == nil {
		t.Fatal("stale TLB entry survived unmap")
	}
}

func TestTLBHitCounting(t *testing.T) {
	u := newMMU(2)
	u.Map(0, 0, true)
	u.LoadByte(0)
	u.LoadByte(1)
	u.LoadByte(2)
	if u.Stats.TLBMisses != 1 {
		t.Fatalf("TLB misses = %d, want 1", u.Stats.TLBMisses)
	}
	if u.Stats.TLBHits != 2 {
		t.Fatalf("TLB hits = %d, want 2", u.Stats.TLBHits)
	}
}

func TestReadWriteBytesAcrossPages(t *testing.T) {
	u := newMMU(4)
	u.Map(0, 2, true)
	u.Map(1, 0, true) // discontiguous frames
	u.Map(2, 3, true)
	data := make([]byte, mem.PageSize+100)
	for i := range data {
		data[i] = byte(i)
	}
	start := uint64(mem.PageSize - 50)
	if trap := u.WriteBytes(start, data); trap != nil {
		t.Fatalf("WriteBytes trapped: %v", trap)
	}
	got := make([]byte, len(data))
	if trap := u.ReadBytes(start, got); trap != nil {
		t.Fatalf("ReadBytes trapped: %v", trap)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestWriteBytesPartialTrap(t *testing.T) {
	u := newMMU(2)
	u.Map(0, 0, true) // page 1 unmapped
	data := make([]byte, 2*mem.PageSize)
	trap := u.WriteBytes(0, data)
	if trap == nil || trap.Kind != TrapIllegalAddress {
		t.Fatalf("trap = %v", trap)
	}
}

func TestKSEGOutOfRange(t *testing.T) {
	u := newMMU(1)
	_, trap := u.LoadByte(PhysToKSEG(uint64(4 * mem.PageSize)))
	if trap == nil || trap.Kind != TrapIllegalAddress {
		t.Fatalf("trap = %v", trap)
	}
}

func TestStatsCounting(t *testing.T) {
	u := newMMU(2)
	u.Map(0, 0, true)
	u.StoreByte(0, 1)
	u.LoadByte(0)
	u.StoreByte(PhysToKSEG(uint64(mem.PageSize)), 2)
	u.LoadByte(PhysToKSEG(uint64(mem.PageSize)))
	s := u.Stats
	if s.VirtStores != 1 || s.VirtLoads != 1 || s.KSEGStores != 1 || s.KSEGLoads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTranslateProperty(t *testing.T) {
	// Round-trip property: any mapped virtual byte store is readable back
	// through the same address and lands in the mapped frame.
	u := newMMU(8)
	for p := 0; p < 8; p++ {
		u.Map(uint64(p), 7-p, true)
	}
	f := func(off uint32, val byte) bool {
		addr := uint64(off) % (8 * mem.PageSize)
		if trap := u.StoreByte(addr, val); trap != nil {
			return false
		}
		got, trap := u.LoadByte(addr)
		return trap == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapBadFramePanics(t *testing.T) {
	u := newMMU(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Map to bad frame did not panic")
		}
	}()
	u.Map(0, 5, true)
}

func TestFlushTLB(t *testing.T) {
	u := newMMU(1)
	u.Map(0, 0, true)
	u.LoadByte(0)
	u.FlushTLB()
	before := u.Stats.TLBMisses
	u.LoadByte(0)
	if u.Stats.TLBMisses != before+1 {
		t.Fatal("FlushTLB did not invalidate entries")
	}
}

// TestLoad64PairIsTwoLoads holds the pair load to its definition: on twin
// MMUs, Load64Pair(a) and Load64(a) + Load64(a+8) return the same words or
// the same trap, and leave identical Stats — in one page, straddling two,
// misaligned, unmapped, through KSEG, and off the end of memory; with a
// cold TLB entry and a warm one.
func TestLoad64PairIsTwoLoads(t *testing.T) {
	mk := func() *MMU {
		u := newMMU(4)
		u.Map(10, 2, true)
		u.Map(11, 0, true)  // virtually adjacent, physically not
		u.Map(74, 3, false) // same TLB slot as vpage 10
		for a := uint64(0); a < 4*mem.PageSize; a += 8 {
			u.Mem.SetWord64(a, a*0x9e3779b97f4a7c15+1)
		}
		return u
	}
	pair, twice := mk(), mk()
	const p = mem.PageSize
	addrs := []uint64{
		10 * p, 10*p + 16, 10*p + 8, // in one page
		74 * p, 10*p + 32, // evicts vpage 10's TLB entry, then refills it
		11*p - 16, 11*p - 8, 12*p - 8, // last pair of a page; straddle; straddle into unmapped
		10*p + 4, 10*p + 1, // misaligned
		99 * p, 99*p - 8, // unmapped
		PhysToKSEG(p), PhysToKSEG(2*p - 8), PhysToKSEG(4*p - 16), PhysToKSEG(4*p - 8), PhysToKSEG(4 * p),
		^uint64(0) - 7, ^uint64(0) - 15,
	}
	for _, a := range addrs {
		lo, hi, trap := pair.Load64Pair(a)
		wlo, wtrap := twice.Load64(a)
		var whi uint64
		if wtrap == nil {
			whi, wtrap = twice.Load64(a + 8)
		}
		if wtrap != nil {
			wlo, whi = 0, 0
		}
		if (trap == nil) != (wtrap == nil) || (trap != nil && *trap != *wtrap) {
			t.Fatalf("%#x: trap %v, two loads trap %v", a, trap, wtrap)
		}
		if lo != wlo || hi != whi {
			t.Fatalf("%#x: pair = %#x,%#x, two loads = %#x,%#x", a, lo, hi, wlo, whi)
		}
		if pair.Stats != twice.Stats {
			t.Fatalf("%#x: stats %+v, two loads %+v", a, pair.Stats, twice.Stats)
		}
	}
}
