package fs

import (
	"strconv"
	"testing"

	"rio/internal/cache"
	"rio/internal/disk"
	"rio/internal/kernel"
	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/registry"
	"rio/internal/sim"
)

// newAllocFS hand-builds a mounted Rio FS for white-box allocator tests.
func newAllocFS(t *testing.T) *FS {
	t.Helper()
	return newTestFS(t, DefaultPolicy(PolicyRio))
}

// newTestFS hand-builds an FS mounted under pol (importing
// internal/machine here would be an import cycle).
func newTestFS(t *testing.T, pol Policy) *FS {
	t.Helper()
	d := disk.New(2048 * BlockSize)
	if _, err := Mkfs(d, 256, 0); err != nil {
		t.Fatal(err)
	}
	m := mem.New(768 * mem.PageSize)
	u := mmu.New(m)
	k := kernel.New(m, u, kernel.BuildText())
	k.FastPath = true
	reg, err := registry.New(k, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(k, reg, 160, 384)
	f, err := Mount(k, c, d, sim.NewClock(), pol)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// ballocRefPeek is the bit-at-a-time first-fit scan the word-scan balloc
// replaced, made non-mutating: it reports which block balloc must return
// next without claiming it.
func ballocRefPeek(f *FS) (int64, error) {
	span := f.SB.JournalStart - f.SB.DataStart
	for probe := int64(0); probe < span; probe++ {
		block := f.SB.DataStart + (f.blkHint-f.SB.DataStart+probe)%span
		bb, bit := f.bitmapBlockOf(block)
		b, err := f.metaBuf(bb)
		if err != nil {
			return 0, err
		}
		var cur [1]byte
		f.C.ContentsAt(b, int(bit/8), cur[:])
		if cur[0]&(1<<(bit%8)) == 0 {
			return block, nil
		}
	}
	return 0, ErrNoSpace
}

// TestBallocMatchesBitScanReference drives a long pseudo-random
// alloc/free churn — including full exhaustion — and checks at every
// step that the word-scan allocator returns exactly the block the
// original bit-scan would have chosen, and that the per-bitmap-block
// free-count summary stays exact.
func TestBallocMatchesBitScanReference(t *testing.T) {
	f := newAllocFS(t)
	rng := sim.NewRand(42)
	var held []int64
	sawFull := false
	for i := 0; i < 12000; i++ {
		if len(held) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(held))
			if err := f.bfree(held[j]); err != nil {
				t.Fatalf("step %d: bfree(%d): %v", i, held[j], err)
			}
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
			continue
		}
		want, werr := ballocRefPeek(f)
		got, gerr := f.balloc()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("step %d: ref err %v, balloc err %v", i, werr, gerr)
		}
		if gerr != nil {
			sawFull = true
			// Disk full in both views: release a batch and keep churning.
			for n := 0; n < 64 && len(held) > 0; n++ {
				j := rng.Intn(len(held))
				if err := f.bfree(held[j]); err != nil {
					t.Fatal(err)
				}
				held[j] = held[len(held)-1]
				held = held[:len(held)-1]
			}
			continue
		}
		if got != want {
			t.Fatalf("step %d: balloc returned %d, bit-scan reference wants %d", i, got, want)
		}
		held = append(held, got)
	}
	if !sawFull {
		t.Fatal("churn never exhausted the disk; exhaustion path untested")
	}
	// The summary must agree with a fresh count of every known bitmap block.
	for bi := range f.bmFree {
		if f.bmFree[bi] < 0 {
			continue
		}
		b, err := f.metaBuf(f.SB.BitmapStart + int64(bi))
		if err != nil {
			t.Fatal(err)
		}
		if want := f.countBmFree(bi, f.image(&f.bmBuf, b)); f.bmFree[bi] != want {
			t.Fatalf("bmFree[%d] = %d, recount = %d", bi, f.bmFree[bi], want)
		}
	}
}

func TestFirstZeroBit(t *testing.T) {
	img := make([]byte, 32) // 256 bits
	set := func(b int64) { img[b/8] |= 1 << (b % 8) }
	cases := []struct {
		prep     func()
		from, to int64
		want     int64
	}{
		{func() {}, 0, 256, 0},
		{func() { set(0) }, 0, 256, 1},
		{func() {
			for b := int64(1); b < 64; b++ {
				set(b)
			}
		}, 0, 256, 64}, // full first word skipped in one compare
		{func() { set(64) }, 0, 256, 65},
		{func() {}, 65, 66, 65},
		{func() { set(65) }, 65, 66, -1}, // window exhausted
		{func() {
			for b := int64(66); b < 256; b++ {
				set(b)
			}
		}, 66, 256, -1}, // rest of image allocated
		{func() {}, 256, 256, -1}, // empty window
	}
	for i, c := range cases {
		c.prep()
		if got := firstZeroBit(img, c.from, c.to); got != c.want {
			t.Fatalf("case %d: firstZeroBit[%d,%d) = %d, want %d", i, c.from, c.to, got, c.want)
		}
	}
}

// TestDcacheLRU pins the bound and the deterministic eviction order.
func TestDcacheLRU(t *testing.T) {
	dc := newDcache()
	for i := 0; i < dcacheCap+10; i++ {
		dc.put(1, name(i), uint32(i+2))
	}
	if dc.Len() != dcacheCap {
		t.Fatalf("len %d, want cap %d", dc.Len(), dcacheCap)
	}
	// The 10 oldest entries were evicted, the rest survive.
	for i := 0; i < 10; i++ {
		if _, ok := dc.get(1, name(i)); ok {
			t.Fatalf("entry %d should have been evicted", i)
		}
	}
	for i := 10; i < dcacheCap+10; i++ {
		ino, ok := dc.get(1, name(i))
		if !ok || ino != uint32(i+2) {
			t.Fatalf("entry %d: got %d,%v", i, ino, ok)
		}
	}
	// A get refreshes recency: touch the oldest survivor, insert one
	// more, and the *second*-oldest must go instead.
	dc.get(1, name(10))
	dc.put(1, name(dcacheCap+10), 9999)
	if _, ok := dc.get(1, name(10)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := dc.get(1, name(11)); ok {
		t.Fatal("LRU entry survived")
	}
	// invalidate removes exactly the named entry, nil-safe throughout.
	dc.invalidate(1, name(12))
	if _, ok := dc.get(1, name(12)); ok {
		t.Fatal("invalidated entry still cached")
	}
	var nildc *dcache
	nildc.put(1, "x", 2)
	nildc.invalidate(1, "x")
	if _, ok := nildc.get(1, "x"); ok {
		t.Fatal("nil dcache returned a hit")
	}
	if nildc.Len() != 0 {
		t.Fatal("nil dcache has entries")
	}
}

func name(i int) string {
	return "n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

// TestReadDirAllocBudget pins that a listing's object count does not grow
// with its length: one string holds every name, one slice every entry,
// and the scan's scratch is the mount's, reused.
func TestReadDirAllocBudget(t *testing.T) {
	f := newAllocFS(t)
	per := map[int]float64{}
	for _, n := range []int{128, 4} {
		dir := "/d" + strconv.Itoa(n)
		if err := f.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fl, err := f.Create(dir + "/file-" + strconv.Itoa(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}
		}
		per[n] = testing.AllocsPerRun(20, func() {
			if ents, err := f.ReadDir(dir); err != nil || len(ents) != n {
				t.Fatalf("ReadDir(%s): %d entries, %v", dir, len(ents), err)
			}
		})
	}
	t.Logf("objects per ReadDir: %v at 4 entries, %v at 128", per[4], per[128])
	if per[128] != per[4] || per[4] > 2 {
		t.Fatalf("ReadDir allocates %v objects at 4 entries and %v at 128, budget 2 at any length", per[4], per[128])
	}
}

// TestOpenWriteCloseAllocs pins that Open inlines: a handle that does not
// escape its caller stays on the caller's stack, so reopening a cached
// file to rewrite a page — the warm reboot's restore, page by page —
// allocates nothing.
func TestOpenWriteCloseAllocs(t *testing.T) {
	f := newAllocFS(t)
	page := make([]byte, BlockSize)
	fl, err := f.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		fl, err := f.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.WriteAt(page, 0); err != nil {
			t.Fatal(err)
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Open → WriteAt → Close allocates %v objects, budget 0: the handle escapes (Open no longer inlines, or File grew)", allocs)
	}
}
