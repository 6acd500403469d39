package cache

import (
	"bytes"
	"testing"

	"rio/internal/kernel"
	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/registry"
)

type env struct {
	k *kernel.Kernel
	r *registry.Registry
	c *Cache
}

func newEnv(t *testing.T, protect bool, metaCap, dataCap int) *env {
	t.Helper()
	m := mem.New(256 * mem.PageSize)
	u := mmu.New(m)
	if protect {
		u.EnforceProtection = true
		u.MapAllThroughTLB = true
	}
	k := kernel.New(m, u, kernel.BuildText())
	r, err := registry.New(k, 2, protect)
	if err != nil {
		t.Fatal(err)
	}
	c := New(k, r, metaCap, dataCap)
	c.Protect = protect
	c.Checksums = true
	return &env{k: k, r: r, c: c}
}

// contents images b's frame through the trusted raw read.
func (e *env) contents(b *Buf) []byte {
	img := make([]byte, BlockSize)
	e.c.ContentsAt(b, 0, img)
	return img
}

func TestInsertAndLookupMeta(t *testing.T) {
	e := newEnv(t, false, 8, 8)
	content := kernel.FillBytes(BlockSize, 7)
	b, err := e.c.InsertMeta(5, content)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.c.LookupMeta(5); got != b {
		t.Fatal("lookup missed")
	}
	if e.c.LookupMeta(6) != nil {
		t.Fatal("phantom hit")
	}
	if e.c.Stats.MetaHits != 1 || e.c.Stats.MetaMisses != 1 {
		t.Fatalf("stats %+v", e.c.Stats)
	}
	// Content landed in the frame.
	if !bytes.Equal(e.contents(b), content) {
		t.Fatal("content mismatch")
	}
	// Registry entry created and consistent.
	ent, ok := e.r.Get(b.Slot)
	if !ok || ent.Kind != registry.KindMeta || ent.Block != 5 {
		t.Fatalf("registry entry %+v", ent)
	}
	if ent.Cksum != kernel.CksumBytes(content) {
		t.Fatal("registry checksum wrong")
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	e := newEnv(t, false, 8, 8)
	if _, err := e.c.InsertMeta(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.InsertMeta(1, nil); err == nil {
		t.Fatal("duplicate insert allowed")
	}
	if _, err := e.c.InsertData(1, 0, -1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.InsertData(1, 0, -1, nil, 0); err == nil {
		t.Fatal("duplicate data insert allowed")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, protect := range []bool{false, true} {
		e := newEnv(t, protect, 8, 8)
		b, err := e.c.InsertData(3, 2, -1, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("rio write path round trip")
		if err := e.c.Write(b, 100, payload, 100+len(payload)); err != nil {
			t.Fatalf("protect=%v: %v", protect, err)
		}
		got := make([]byte, len(payload))
		if err := e.c.ReadInto(b, 100, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("protect=%v: got %q", protect, got)
		}
		if !b.Dirty {
			t.Fatal("write did not dirty buffer")
		}
		ent, _ := e.r.Get(b.Slot)
		if ent.Flags&registry.FlagDirty == 0 {
			t.Fatal("registry not dirty")
		}
		if ent.Flags&registry.FlagChanging != 0 {
			t.Fatal("changing flag left set after successful write")
		}
		if ent.Cksum != kernel.CksumBytes(e.contents(b)) {
			t.Fatal("checksum stale after write")
		}
		if ent.Size != uint32(100+len(payload)) {
			t.Fatalf("entry size %d", ent.Size)
		}
	}
}

func TestWriteKeepsFrameProtected(t *testing.T) {
	e := newEnv(t, true, 8, 8)
	b, _ := e.c.InsertData(1, 0, -1, nil, 0)
	if !e.k.Mem.Frame(b.Frame).WriteProtected {
		t.Fatal("idle buffer not protected")
	}
	if err := e.c.Write(b, 0, []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if !e.k.Mem.Frame(b.Frame).WriteProtected {
		t.Fatal("buffer left unprotected after write")
	}
	// Wild store into the buffer traps.
	if trap := e.k.MMU.StoreByte(b.Addr, 0xff); trap == nil {
		t.Fatal("wild store succeeded on protected buffer")
	}
}

func TestWildStoreBreaksChecksum(t *testing.T) {
	// Protection off: a wild store lands, and the registry checksum then
	// disagrees with the contents — exactly how crash tests detect direct
	// corruption.
	e := newEnv(t, false, 8, 8)
	b, _ := e.c.InsertData(1, 0, -1, nil, 0)
	if err := e.c.Write(b, 0, []byte("good data"), 9); err != nil {
		t.Fatal(err)
	}
	if trap := e.k.MMU.StoreByte(b.Addr+3, 0xee); trap != nil {
		t.Fatalf("unexpected trap: %v", trap)
	}
	ent, _ := e.r.Get(b.Slot)
	if ent.Cksum == kernel.CksumBytes(e.contents(b)) {
		t.Fatal("checksum still matches after wild store")
	}
}

func TestShadowWrite(t *testing.T) {
	for _, protect := range []bool{false, true} {
		e := newEnv(t, protect, 8, 8)
		oldData := kernel.FillBytes(BlockSize, 11)
		b, err := e.c.InsertMeta(9, oldData)
		if err != nil {
			t.Fatal(err)
		}
		newData := kernel.FillBytes(BlockSize, 22)
		if err := e.c.WriteShadow(b, newData); err != nil {
			t.Fatalf("protect=%v: %v", protect, err)
		}
		if !bytes.Equal(e.contents(b), newData) {
			t.Fatal("shadow write lost data")
		}
		ent, _ := e.r.Get(b.Slot)
		if int(ent.Frame) != b.Frame {
			t.Fatal("registry not pointed back at original")
		}
		if ent.Cksum != kernel.CksumBytes(newData) {
			t.Fatal("checksum not updated")
		}
		if e.c.Stats.ShadowWrites != 1 {
			t.Fatal("shadow write not counted")
		}
		// Shadow frame returned to the pool.
		if got := len(e.k.FramesOf(kernel.FrameMeta)); got != 1 {
			t.Fatalf("leaked shadow frame: %d meta frames", got)
		}
	}
}

// TestShadowWriteFallbackIsCounted: with no spare frame for the shadow,
// WriteShadow still installs the new contents — as a plain, non-atomic
// Write — and says so in Stats.ShadowFallbacks instead of ShadowWrites.
func TestShadowWriteFallbackIsCounted(t *testing.T) {
	e := newEnv(t, true, 8, 8)
	b, err := e.c.InsertMeta(9, kernel.FillBytes(BlockSize, 11))
	if err != nil {
		t.Fatal(err)
	}
	// Take every free frame, so the shadow has nowhere to go.
	var taken []int
	for f := e.k.AllocFrame(kernel.FrameUBC); f >= 0; f = e.k.AllocFrame(kernel.FrameUBC) {
		taken = append(taken, f)
	}
	newData := kernel.FillBytes(BlockSize, 22)
	if err := e.c.WriteShadow(b, newData); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.contents(b), newData) {
		t.Fatal("fallback write lost data")
	}
	if ent, _ := e.r.Get(b.Slot); int(ent.Frame) != b.Frame || ent.Cksum != kernel.CksumBytes(newData) || ent.Flags&registry.FlagChanging != 0 {
		t.Fatalf("registry entry after fallback: %+v", ent)
	}
	if st := e.c.Stats; st.ShadowFallbacks != 1 || st.ShadowWrites != 0 {
		t.Fatalf("fallbacks %d, shadow writes %d; want 1, 0", st.ShadowFallbacks, st.ShadowWrites)
	}
	// With a frame back, the next update is shadowed again.
	e.k.FreeFrame(taken[0])
	if err := e.c.WriteShadow(b, kernel.FillBytes(BlockSize, 33)); err != nil {
		t.Fatal(err)
	}
	if st := e.c.Stats; st.ShadowFallbacks != 1 || st.ShadowWrites != 1 {
		t.Fatalf("fallbacks %d, shadow writes %d; want 1, 1", st.ShadowFallbacks, st.ShadowWrites)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	e := newEnv(t, false, 8, 2)
	b0, _ := e.c.InsertData(1, 0, -1, []byte("zero"), 4)
	b1, _ := e.c.InsertData(1, 1, -1, []byte("one"), 3)
	_ = b1
	// Touch b0 so b1 is the LRU victim.
	e.c.LookupData(1, 0)
	_, err := e.c.InsertData(1, 2, -1, []byte("two"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.c.LookupData(1, 1) != nil {
		t.Fatal("LRU victim survived")
	}
	if e.c.LookupData(1, 0) != b0 {
		t.Fatal("recently used buffer evicted")
	}
	if e.c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", e.c.Stats.Evictions)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	e := newEnv(t, false, 8, 1)
	var flushed []*Buf
	e.c.WriteBack = func(b *Buf) error {
		flushed = append(flushed, b)
		return e.c.MarkClean(b)
	}
	b0, _ := e.c.InsertData(1, 0, 50, nil, 0)
	if err := e.c.Write(b0, 0, []byte("dirty"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.InsertData(1, 1, 51, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 1 || flushed[0] != b0 {
		t.Fatalf("flushed %v", flushed)
	}
}

func TestDirtyEvictionWithoutWriteBackFails(t *testing.T) {
	e := newEnv(t, false, 8, 1)
	b0, _ := e.c.InsertData(1, 0, -1, nil, 0)
	e.c.Write(b0, 0, []byte("d"), 1)
	if _, err := e.c.InsertData(1, 1, -1, nil, 0); err == nil {
		t.Fatal("dirty eviction without WriteBack allowed")
	}
}

func TestRemoveReleasesResources(t *testing.T) {
	e := newEnv(t, true, 8, 8)
	framesBefore := e.k.FreeFrameCount()
	regBefore := e.r.LiveCount()
	b, _ := e.c.InsertData(1, 0, -1, nil, 0)
	if err := e.c.Remove(b); err != nil {
		t.Fatal(err)
	}
	if e.k.FreeFrameCount() != framesBefore {
		t.Fatal("frame leaked")
	}
	if e.r.LiveCount() != regBefore {
		t.Fatal("registry slot leaked")
	}
	// Frame no longer protected or flagged.
	if e.k.Mem.Frame(b.Frame).WriteProtected || e.k.Mem.Frame(b.Frame).FileCache {
		t.Fatal("frame flags not cleared")
	}
}

func TestMetaRemoveUnmaps(t *testing.T) {
	e := newEnv(t, false, 8, 8)
	b, _ := e.c.InsertMeta(4, nil)
	addr := b.Addr
	if err := e.c.Remove(b); err != nil {
		t.Fatal(err)
	}
	if _, trap := e.k.MMU.LoadByte(addr); trap == nil {
		t.Fatal("stale mapping survived removal")
	}
}

func TestDropFileData(t *testing.T) {
	e := newEnv(t, false, 8, 8)
	e.c.InsertData(7, 0, -1, nil, 0)
	e.c.InsertData(7, 1, -1, nil, 0)
	e.c.InsertData(7, 2, -1, nil, 0)
	e.c.InsertData(8, 0, -1, nil, 0)
	if err := e.c.DropFileData(7, 1); err != nil {
		t.Fatal(err)
	}
	if e.c.LookupData(7, 0) == nil {
		t.Fatal("block before truncation point dropped")
	}
	if e.c.LookupData(7, 1) != nil || e.c.LookupData(7, 2) != nil {
		t.Fatal("truncated blocks survived")
	}
	if e.c.LookupData(8, 0) == nil {
		t.Fatal("other file's data dropped")
	}
}

func TestDirtyBufsOrder(t *testing.T) {
	e := newEnv(t, false, 8, 8)
	b0, _ := e.c.InsertData(1, 0, -1, nil, 0)
	b1, _ := e.c.InsertData(1, 1, -1, nil, 0)
	b2, _ := e.c.InsertData(1, 2, -1, nil, 0)
	e.c.Write(b0, 0, []byte("a"), 1)
	e.c.Write(b2, 0, []byte("c"), 1)
	_ = b1
	dirty := e.c.DirtyBufs(Data)
	if len(dirty) != 2 {
		t.Fatalf("dirty count %d", len(dirty))
	}
	// b0 written before b2, but both were touched by Write; LRU-back-first
	// order puts b1 (clean, skipped) aside and b0 before b2.
	if dirty[0] != b0 || dirty[1] != b2 {
		t.Fatal("dirty order unexpected")
	}
}

func TestMarkCleanClearsRegistryFlag(t *testing.T) {
	e := newEnv(t, false, 8, 8)
	b, _ := e.c.InsertData(1, 0, -1, nil, 0)
	e.c.Write(b, 0, []byte("x"), 1)
	if err := e.c.MarkClean(b); err != nil {
		t.Fatal(err)
	}
	ent, _ := e.r.Get(b.Slot)
	if ent.Flags&registry.FlagDirty != 0 {
		t.Fatal("registry dirty flag survived MarkClean")
	}
	if b.Dirty {
		t.Fatal("buf dirty flag survived")
	}
}

func TestSetDiskBlock(t *testing.T) {
	e := newEnv(t, false, 8, 8)
	b, _ := e.c.InsertData(1, 0, -1, nil, 0)
	if err := e.c.SetDiskBlock(b, 123); err != nil {
		t.Fatal(err)
	}
	ent, _ := e.r.Get(b.Slot)
	if ent.Block != 123 || b.Block != 123 {
		t.Fatal("disk block not recorded")
	}
}

func TestAllAndLen(t *testing.T) {
	e := newEnv(t, false, 8, 8)
	e.c.InsertMeta(1, nil)
	e.c.InsertMeta(2, nil)
	e.c.InsertData(1, 0, -1, nil, 0)
	if e.c.Len(Meta) != 2 || e.c.Len(Data) != 1 {
		t.Fatalf("lens %d %d", e.c.Len(Meta), e.c.Len(Data))
	}
	if len(e.c.All(Meta)) != 2 || len(e.c.All(Data)) != 1 {
		t.Fatal("All lengths wrong")
	}
}

func TestChangingFlagVisibleDuringCrashMidWrite(t *testing.T) {
	// Simulate a crash mid-copy: protection traps the sanctioned write
	// because we deliberately re-protect the frame behind the cache's
	// back. The registry entry must be left with FlagChanging set.
	e := newEnv(t, false, 8, 8)
	b, _ := e.c.InsertData(1, 0, -1, nil, 0)
	e.k.MMU.EnforceProtection = true
	e.k.MMU.MapAllThroughTLB = true
	e.k.MMU.SetFrameProtection(b.Frame, true) // cache thinks it's unprotected
	err := e.c.Write(b, 0, []byte("never lands"), 11)
	if err == nil {
		t.Fatal("write should have crashed")
	}
	ent, _ := e.r.Get(b.Slot)
	if ent.Flags&registry.FlagChanging == 0 {
		t.Fatal("changing flag lost on mid-write crash")
	}
}
