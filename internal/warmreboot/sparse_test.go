package warmreboot

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/mem"
	"rio/internal/registry"
)

// smallMachine is a Rio machine small enough that a test can fill its file
// cache and then crash recovery at every step: 64 data pages, 48 metadata
// buffers, a two-frame registry.
func smallMachine(t *testing.T) *machine.Machine {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyRio))
	opt.MemPages, opt.DiskBlocks, opt.NInodes = 256, 512, 256
	opt.RegistryFrames, opt.MetaCap, opt.DataCap = 2, 48, 64
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dataSlots lists the registry slots of the dirty data pages, in slot order.
func dataSlots(m *machine.Machine) []int {
	var out []int
	for s := 0; s < m.Reg.Cap(); s++ {
		if e, ok := m.Reg.Get(s); ok && e.Kind == registry.KindData && e.Flags&registry.FlagDirty != 0 {
			out = append(out, s)
		}
	}
	return out
}

func mutate(t *testing.T, m *machine.Machine, slot int, fn func(*registry.Entry)) {
	t.Helper()
	if err := m.Reg.Mutate(slot, fn); err != nil {
		t.Fatal(err)
	}
}

func someFiles(t *testing.T, m *machine.Machine, n int) {
	t.Helper()
	m.FS.Mkdir("/d")
	for i := 0; i < n; i++ {
		put(t, m, fmt.Sprintf("/d/f%02d", i), kernel.FillBytes(1+(i*5003)%(2*fs.BlockSize), uint64(i)|1))
	}
}

// sparseCorpus is the set of crashed machines the sparse image is held to a
// full dump on. Each build is deterministic, so building it twice gives
// twins; it leaves the machine running, and the caller crashes it.
var sparseCorpus = []struct {
	name  string
	build func(t *testing.T, m *machine.Machine)
	check func(t *testing.T, rep *Report) // the case is the case it claims to be
}{
	{"full dirty cache", func(t *testing.T, m *machine.Machine) {
		// More 8 KB files than the data cache has pages: every page dirty,
		// the overflow written back by eviction.
		m.FS.Mkdir("/d")
		for i := 0; i < m.Opt.DataCap+8; i++ {
			put(t, m, fmt.Sprintf("/d/f%03d", i), kernel.FillBytes(fs.BlockSize, uint64(i)|1))
		}
	}, func(t *testing.T, rep *Report) {
		if rep.DataRestored < 64 || rep.ChecksumMismatches != 0 {
			t.Fatalf("cache not full and dirty: %v", rep)
		}
	}},
	{"mid-write changing entries", func(t *testing.T, m *machine.Machine) {
		someFiles(t, m, 12)
		// A crash between the registry's "changing" mark and the end of the
		// sanctioned write: the mark is set and the page is half new.
		for i, s := range dataSlots(m) {
			if i%3 != 0 {
				continue
			}
			mutate(t, m, s, func(e *registry.Entry) { e.Flags |= registry.FlagChanging })
			e, _ := m.Reg.Get(s)
			m.Mem.WriteAt(mem.FrameBase(int(e.Frame))+64, []byte("half-written"))
		}
	}, func(t *testing.T, rep *Report) {
		if rep.Changing == 0 {
			t.Fatalf("no changing entries: %v", rep)
		}
	}},
	{"broken registry CRC and a wild store", func(t *testing.T, m *machine.Machine) {
		someFiles(t, m, 10)
		slots := dataSlots(m)
		// One slot's bytes no longer match its CRC...
		f := m.Reg.Frames()[0]
		m.Mem.FlipBit(mem.FrameBase(f)+uint64(slots[1]*registry.EntrySize)+9, 3)
		// ...and one page no longer matches its entry's checksum.
		e, _ := m.Reg.Get(slots[2])
		m.Mem.FlipBit(mem.FrameBase(int(e.Frame))+100, 4)
	}, func(t *testing.T, rep *Report) {
		if rep.BadEntries == 0 || rep.ChecksumMismatches == 0 {
			t.Fatalf("no bad entry or no checksum mismatch: %v", rep)
		}
	}},
	{"valid entries naming no page", func(t *testing.T, m *machine.Machine) {
		someFiles(t, m, 10)
		slots := dataSlots(m)
		nframes := uint32(m.Mem.NumFrames())
		// CRC-valid, and out of range each in its own way.
		mutate(t, m, slots[0], func(e *registry.Entry) { e.Frame = nframes })
		mutate(t, m, slots[1], func(e *registry.Entry) { e.Frame = 1<<32 - 1 })
		mutate(t, m, slots[2], func(e *registry.Entry) { e.Size = mem.PageSize + 1 })
	}, func(t *testing.T, rep *Report) {
		if rep.SkippedInvalid != 3 {
			t.Fatalf("SkippedInvalid = %d, want 3: %v", rep.SkippedInvalid, rep)
		}
	}},
	{"orphans to lost+found", func(t *testing.T, m *machine.Machine) {
		someFiles(t, m, 10)
		// Data pages of files that do not exist after the metadata restore.
		for i, s := range dataSlots(m) {
			if i%4 == 0 {
				mutate(t, m, s, func(e *registry.Entry) { e.Ino = 200 + uint32(i) })
			}
		}
	}, func(t *testing.T, rep *Report) {
		if rep.Salvaged == 0 {
			t.Fatalf("nothing salvaged: %v", rep)
		}
	}},
}

func crash(m *machine.Machine) {
	m.Kernel.Panic("injected test crash")
	m.CrashFinish()
}

// staleDumpArea fills the machine's dump area with 0xA5 — an image left by
// an earlier recovery — so that any page recovery reads without Capture
// having copied it shows up as a wrong checksum, wrong file bytes or a
// wrong disk.
func staleDumpArea(m *machine.Machine) {
	area := m.DumpArea()
	for i := range area {
		area[i] = 0xA5
	}
}

// fileBytes reads every file of the mounted tree.
func fileBytes(t *testing.T, m *machine.Machine) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, path := range inodePaths(m.FS) {
		out[path] = get(t, m, path)
	}
	if ents, err := m.FS.ReadDir(salvageDir); err == nil {
		for _, e := range ents {
			out[salvageDir+"/"+e.Name] = get(t, m, salvageDir+"/"+e.Name)
		}
	}
	return out
}

// TestSparseImageIsAFullDump holds Warm's sparse image to a full dump: on
// twin crashed machines, Warm over a dump area full of stale bytes and
// FromDump over Mem.Dump give equal reports, equal disks, equal memory and
// equal files; and a recovery from the sparse image crashed at every step
// and restarted from the same image converges to the same volume.
func TestSparseImageIsAFullDump(t *testing.T) {
	for _, c := range sparseCorpus {
		t.Run(c.name, func(t *testing.T) {
			sparse, full, stepped := smallMachine(t), smallMachine(t), smallMachine(t)
			for _, m := range []*machine.Machine{sparse, full, stepped} {
				c.build(t, m)
				crash(m)
			}
			if !bytes.Equal(sparse.Mem.Dump(), full.Mem.Dump()) || !bytes.Equal(sparse.Disk.Snapshot(), full.Disk.Snapshot()) {
				t.Fatal("the corpus build is not deterministic: the twins differ at the crash")
			}

			staleDumpArea(sparse)
			got, err := Warm(sparse)
			if err != nil {
				t.Fatalf("Warm: %v", err)
			}
			want, err := FromDump(full, full.Mem.Dump())
			if err != nil {
				t.Fatalf("FromDump: %v", err)
			}
			c.check(t, want)
			if *got != *want {
				t.Fatalf("reports differ:\nsparse %+v\nfull   %+v", *got, *want)
			}
			if !bytes.Equal(sparse.Disk.Snapshot(), full.Disk.Snapshot()) {
				t.Fatal("disks differ after recovery")
			}
			if !bytes.Equal(sparse.Mem.Dump(), full.Mem.Dump()) {
				t.Fatal("memory differs after recovery")
			}
			gotFiles, wantFiles := fileBytes(t, sparse), fileBytes(t, full)
			if len(gotFiles) != len(wantFiles) || len(wantFiles) == 0 {
				t.Fatalf("%d files, full dump recovers %d", len(gotFiles), len(wantFiles))
			}
			for path, data := range wantFiles {
				if !bytes.Equal(gotFiles[path], data) {
					t.Fatalf("%s differs", path)
				}
			}

			// What Capture copied is memory's own bytes at their own
			// offsets, and the image describes itself: parsing it finds the
			// entries recovery was handed.
			staleDumpArea(stepped)
			before := stepped.Mem.Dump()
			im := Capture(stepped)
			entries, bad := registry.Parse(im.dump, stepped.Reg.Frames())
			if bad != im.bad || len(entries) != len(im.entries) {
				t.Fatalf("image parses to %d entries (%d bad), Capture handed on %d (%d bad)", len(entries), bad, len(im.entries), im.bad)
			}
			copied := 0
			for f := 0; f < stepped.Mem.NumFrames(); f++ {
				page := im.page(uint32(f))
				switch {
				case bytes.Equal(page, before[mem.FrameBase(f):mem.FrameBase(f)+mem.PageSize]):
					copied++
				case bytes.Count(page, []byte{0xA5}) != mem.PageSize:
					t.Fatalf("frame %d of the image is neither memory's page nor left alone", f)
				}
			}
			if limit := len(stepped.Reg.Frames()) + len(im.entries); copied == 0 || copied > limit {
				t.Fatalf("%d frames copied; registry frames + entries = %d", copied, limit)
			}

			// Crash recovery at every step; restart from the same image.
			diskAtCrash := stepped.Disk.Snapshot()
			ref, err := Restore(stepped, im, DefaultOptions())
			if err != nil || *ref != *want {
				t.Fatalf("Restore from the captured image: %v\n got %+v\nwant %+v", err, ref, want)
			}
			state := logicalState(t, stepped.FS)
			for k := 0; k <= ref.Steps; k++ {
				stepped.Disk.Restore(diskAtCrash)
				opts := DefaultOptions()
				opts.CrashAtStep = k
				_, err := Restore(stepped, im, opts)
				if k < ref.Steps {
					if err != ErrInterrupted {
						t.Fatalf("crash at step %d/%d: err = %v, want ErrInterrupted", k, ref.Steps, err)
					}
					if _, err := Restore(stepped, im, DefaultOptions()); err != nil {
						t.Fatalf("restart after crash at step %d: %v", k, err)
					}
				} else if err != nil {
					t.Fatalf("crash at step %d of %d: %v", k, ref.Steps, err)
				}
				if got := logicalState(t, stepped.FS); got != state {
					t.Fatalf("crash at step %d/%d then restart diverges:\ngot:\n%swant:\n%s", k, ref.Steps, got, state)
				}
			}
		})
	}
}

// TestWarmAllocBudget bounds what one warm reboot of a full machine — 640
// dirty 8 KB files over 16 directories — allocates, per restored page.
// Measured 5.77 objects per page: the cache's Buf and LRU element for the
// page, the restore's *File, the file's name from ReadDir and its path in
// the inode index, and a booted machine shared out over 640 pages. The
// restore opens each file by path on a cold dcache, so each Open scans its
// directory; with a string built per dirent walked past (dirScan
// unmarshalling every entry) this reads 27.5.
func TestWarmAllocBudget(t *testing.T) {
	const files, dirs, budget = 640, 16, 6.4
	pol := fs.DefaultPolicy(fs.PolicyRio)
	opt := machine.DefaultOptions(pol)
	opt.MemPages, opt.DiskBlocks = 2048, 4096
	opt.RegistryFrames, opt.MetaCap, opt.DataCap = 8, 256, 700
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dirs; d++ {
		if err := m.FS.Mkdir(fmt.Sprintf("/dir%02d", d)); err != nil {
			t.Fatal(err)
		}
	}
	block := kernel.FillBytes(fs.BlockSize, 77)
	for i := 0; i < files; i++ {
		put(t, m, fmt.Sprintf("/dir%02d/file%04d", i%dirs, i), block)
	}
	crash(m)
	m.DumpArea() // the image's one allocation is the storage's, not a reboot's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Warm(m)
	runtime.ReadMemStats(&after)
	if err != nil || rep.DataRestored != files || rep.ChecksumMismatches != 0 {
		t.Fatalf("warm reboot: %v, %v", rep, err)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(rep.DataRestored)
	t.Logf("%d objects for %d restored pages: %.2f per page", after.Mallocs-before.Mallocs, rep.DataRestored, per)
	if per > budget {
		t.Fatalf("Warm allocates %.2f objects per restored page, budget %.1f", per, budget)
	}
}
