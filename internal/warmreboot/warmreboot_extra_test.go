package warmreboot

import (
	"bytes"
	"testing"

	"rio/internal/cache"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/registry"
)

func TestWarmRebootOrphanData(t *testing.T) {
	// A dirty UBC page whose file's metadata never became durable (we
	// sabotage the registry's metadata entries) cannot be restored; the
	// reboot must count it as an orphan rather than fail.
	m := rioMachine(t, false)
	put(t, m, "/doomed", kernel.FillBytes(fs.BlockSize, 5))

	// Drop every metadata entry from the registry, simulating a file
	// whose namespace never reached any durable form.
	for slot := 0; slot < m.Reg.Cap(); slot++ {
		if e, ok := m.Reg.Get(slot); ok && e.Kind == registry.KindMeta {
			if err := m.Reg.Free(slot); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Kernel.Panic("crash")
	m.CrashFinish()
	rep, err := Warm(m)
	if err != nil {
		t.Fatal(err)
	}
	// The page cannot be restored to its file, but it must not be
	// dropped either: it lands in /lost+found, reassembled by inode.
	if rep.Salvaged == 0 {
		t.Fatalf("orphan not salvaged: %v", rep)
	}
	ents, err := m.FS.ReadDir("/lost+found")
	if err != nil || len(ents) == 0 {
		t.Fatalf("no salvage files (err=%v): %v", err, rep)
	}
	f, err := m.FS.Open("/lost+found/" + ents[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, fs.BlockSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("reading salvage file: %v", err)
	}
	if !bytes.Equal(buf, kernel.FillBytes(fs.BlockSize, 5)) {
		t.Fatal("salvaged bytes do not match the lost page")
	}
}

func TestWarmRebootOrphanCountedWhenSalvageFails(t *testing.T) {
	// Salvage needs a /lost+found directory. When the name is taken by a
	// regular file the orphaned page cannot be salvaged: it is counted as
	// an orphan, the pass does not fail, and every other page is restored.
	m := rioMachine(t, false)
	files := []struct {
		path string
		data []byte
	}{
		{"/lost+found", kernel.FillBytes(300, 3)},
		{"/a", kernel.FillBytes(2*fs.BlockSize, 7)},
		{"/b", kernel.FillBytes(fs.BlockSize/2, 8)},
	}
	for _, f := range files {
		put(t, m, f.path, f.data)
	}
	put(t, m, "/doomed", kernel.FillBytes(fs.BlockSize, 5))
	st, err := m.FS.Stat("/doomed")
	if err != nil {
		t.Fatal(err)
	}
	// Point /doomed's page at an inode no file has.
	for slot := 0; slot < m.Reg.Cap(); slot++ {
		if e, ok := m.Reg.Get(slot); ok && e.Kind == registry.KindData && e.Ino == st.Ino {
			if err := m.Reg.Mutate(slot, func(e *registry.Entry) { e.Ino = 1 << 20 }); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Kernel.Panic("crash")
	m.CrashFinish()
	rep, err := Warm(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanData != 1 || rep.Salvaged != 0 || rep.DataRestored != 4 {
		t.Fatalf("want 1 orphan, 0 salvaged, 4 pages restored: %v", rep)
	}
	for _, f := range files {
		if !bytes.Equal(get(t, m, f.path), f.data) {
			t.Fatalf("%s not restored beside the orphan", f.path)
		}
	}
}

func TestWarmRebootSizeClamped(t *testing.T) {
	// A registry entry claiming more valid bytes than a page holds is
	// invalid and must be skipped, not sliced out of range.
	m := rioMachine(t, false)
	put(t, m, "/f", []byte("short"))
	var slot = -1
	for s := 0; s < m.Reg.Cap(); s++ {
		if e, ok := m.Reg.Get(s); ok && e.Kind == registry.KindData {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Fatal("no data entry")
	}
	if err := m.Reg.Mutate(slot, func(e *registry.Entry) {
		e.Size = 1 << 20 // impossible
	}); err != nil {
		t.Fatal(err)
	}
	m.Kernel.Panic("crash")
	m.CrashFinish()
	rep, err := Warm(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkippedInvalid == 0 {
		t.Fatalf("oversized entry not skipped: %v", rep)
	}
}

func TestWarmRebootChangingBufferRestoredBestEffort(t *testing.T) {
	// A buffer flagged "changing" (sanctioned write was in flight) cannot
	// be classified by its checksum, but its contents are still restored.
	m := rioMachine(t, false)
	data := kernel.FillBytes(fs.BlockSize, 9)
	put(t, m, "/f", data)
	var slot = -1
	for s := 0; s < m.Reg.Cap(); s++ {
		if e, ok := m.Reg.Get(s); ok && e.Kind == registry.KindData {
			slot = s
			break
		}
	}
	if err := m.Reg.Mutate(slot, func(e *registry.Entry) {
		e.Flags |= registry.FlagChanging
	}); err != nil {
		t.Fatal(err)
	}
	m.Kernel.Panic("crash mid-write")
	m.CrashFinish()
	rep, err := Warm(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changing == 0 {
		t.Fatalf("changing buffer not counted: %v", rep)
	}
	if rep.ChecksumMismatches != 0 {
		t.Fatalf("changing buffer wrongly checksum-classified: %v", rep)
	}
	if !bytes.Equal(get(t, m, "/f"), data) {
		t.Fatal("changing buffer not restored")
	}
}

func TestCleanBuffersNotRestored(t *testing.T) {
	// Buffers whose disk copy is current (clean) are skipped entirely:
	// the write-through config has nothing dirty at crash time.
	m := rioMachine(t, false)
	put(t, m, "/f", []byte("data"))
	// Flush everything by hand, as if an idle write-back had completed.
	img := make([]byte, cache.BlockSize)
	for _, kind := range []cache.Kind{cache.Meta, cache.Data} {
		for _, b := range m.Cache.DirtyBufs(kind) {
			if b.Block < 0 {
				continue
			}
			m.Cache.ContentsAt(b, 0, img)
			m.Disk.Commit(int(b.Block)*fs.SectorsPerBlock, img)
			if err := m.Cache.MarkClean(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Kernel.Panic("crash")
	m.CrashFinish()
	rep, err := Warm(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MetaRestored != 0 || rep.DataRestored != 0 {
		t.Fatalf("clean buffers restored: %v", rep)
	}
	if string(get(t, m, "/f")) != "data" {
		t.Fatal("data lost")
	}
}
