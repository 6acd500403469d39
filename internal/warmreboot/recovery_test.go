package warmreboot

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"rio/internal/disk"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/registry"
	"rio/internal/sim"
)

// logicalState renders the mounted tree as a deterministic string:
// every path with its size and content checksum, sorted. Two volumes
// with equal logicalState hold the same files with the same bytes —
// the comparison the idempotency contract is stated in (raw disk
// images may differ in free-block noise, file bytes may not).
func logicalState(t *testing.T, fsys *fs.FS) string {
	t.Helper()
	var lines []string
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			t.Fatalf("readdir %s: %v", dir, err)
		}
		for _, e := range ents {
			p := dir + "/" + e.Name
			if dir == "/" {
				p = "/" + e.Name
			}
			if e.IsDir {
				lines = append(lines, p+"/")
				walk(p)
				continue
			}
			f, err := fsys.Open(p)
			if err != nil {
				t.Fatalf("open %s: %v", p, err)
			}
			buf := make([]byte, e.Size)
			if e.Size > 0 {
				if _, err := f.ReadAt(buf, 0); err != nil {
					t.Fatalf("read %s: %v", p, err)
				}
			}
			f.Close()
			lines = append(lines, fmt.Sprintf("%s size=%d cksum=%x", p, e.Size, kernel.CksumBytes(buf)))
		}
	}
	walk("/")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// crashedRioMachine builds a Rio machine with a dirty file cache, crashes
// it, and returns the machine plus an immutable memory dump and a disk
// snapshot taken at crash time — the fixture for replaying recovery.
func crashedRioMachine(t *testing.T, seed uint64) (*machine.Machine, []byte, []byte) {
	t.Helper()
	m := rioMachine(t, false)
	rng := sim.NewRand(seed)
	m.FS.Mkdir("/d")
	for i := 0; i < 6; i++ {
		data := kernel.FillBytes(1+int(rng.Uint64()%uint64(2*fs.BlockSize)), rng.Uint64()|1)
		put(t, m, fmt.Sprintf("/d/f%d", i), data)
	}
	m.Kernel.Panic("injected test crash")
	m.CrashFinish()
	dump := m.Mem.Dump()
	return m, dump, m.Disk.Snapshot()
}

// TestRecoveryIdempotentAfterInterruption is the satellite's contract:
// crash the warm reboot at every crash point, rerun it from the same dump,
// and require the final file-system state to be byte-identical to an
// uninterrupted pass.
func TestRecoveryIdempotentAfterInterruption(t *testing.T) {
	m, dump, diskSnap := crashedRioMachine(t, 1996)
	var rep *Report // the last pass's: armed at N, uninterrupted
	start := time.Now()
	n, err := kernel.EachPoint(func() (*kernel.CrashPoint, func() error) {
		m.Disk.Restore(diskSnap)
		return m.Kernel.CrashPoint, func() (err error) { rep, err = FromDump(m, dump); return err }
	}, func() string { return logicalState(t, m.FS) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d crash points, %d µs per point", n, time.Since(start).Microseconds()/int64(n+1))
	if n < 3 || rep.VolumeLost || rep.DataRestored == 0 {
		t.Fatalf("%d crash points, too few to exercise interruption, or a degenerate recovery: %v", n, rep)
	}
}

// TestQuarantineContinuesPastBadEntry pins the early-return bug: one
// unrestorable data page (offset past the file-size limit) must be
// quarantined while every other page is still restored.
func TestQuarantineContinuesPastBadEntry(t *testing.T) {
	m := rioMachine(t, false)
	good1 := kernel.FillBytes(fs.BlockSize+100, 21)
	good2 := kernel.FillBytes(fs.BlockSize/2, 22)
	put(t, m, "/good1", good1)
	put(t, m, "/bad", kernel.FillBytes(200, 23))
	put(t, m, "/good2", good2)

	// Sabotage /bad's data entry: an offset beyond the largest legal
	// file makes its WriteAt fail deterministically during restore.
	var badIno uint32
	if st, err := m.FS.Stat("/bad"); err == nil {
		badIno = st.Ino
	} else {
		t.Fatal(err)
	}
	found := false
	for s := 0; s < m.Reg.Cap(); s++ {
		if e, ok := m.Reg.Get(s); ok && e.Kind == registry.KindData && e.Ino == badIno {
			if err := m.Reg.Mutate(s, func(e *registry.Entry) {
				e.Off = int64(fs.MaxFileBlocks+10) * fs.BlockSize
			}); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no data entry for /bad")
	}

	m.Kernel.Panic("injected test crash")
	m.CrashFinish()
	rep, err := Warm(m)
	if err != nil {
		t.Fatalf("restore aborted instead of quarantining: %v", err)
	}
	if rep.DataFailed == 0 {
		t.Fatalf("bad page not quarantined: %v", rep)
	}
	if rep.DataRestored < 2 {
		t.Fatalf("pages after the bad one abandoned: %v", rep)
	}
	for path, want := range map[string][]byte{"/good1": good1, "/good2": good2} {
		if got := get(t, m, path); string(got) != string(want) {
			t.Fatalf("%s corrupted by quarantine handling", path)
		}
	}
}

// TestRecoveryUnderStorageFaults runs the warm reboot against a disk
// injecting transient, latent, and misdirected faults and requires the
// pass to complete with every dirty page accounted — restored, failed,
// salvaged, or orphaned — never aborted.
func TestRecoveryUnderStorageFaults(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		m, dump, _ := crashedRioMachine(t, seed)
		plan := disk.DefaultFaultPlan(seed * 977)
		m.Disk.SetFaultPlan(&plan)
		rep, err := FromDump(m, dump)
		if err != nil {
			t.Fatalf("seed %d: recovery aborted: %v", seed, err)
		}
		m.Disk.SetFaultPlan(nil)
		if rep.VolumeLost {
			continue // a destroyed superblock is a reported outcome
		}
		// Machine must be booted and the tree walkable afterwards.
		_ = logicalState(t, m.FS)
	}
}

// TestRecoverySurvivesDoubleFault injects both adversaries at once: a
// second crash mid-recovery AND storage faults during both attempts.
func TestRecoverySurvivesDoubleFault(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m, dump, _ := crashedRioMachine(t, seed+100)
		plan := disk.DefaultFaultPlan(seed * 1373)
		m.Disk.SetFaultPlan(&plan)
		var rep *Report
		interrupted, err := m.Kernel.CrashPoint.Restart(int(seed), func() (err error) { // early interruption
			rep, err = FromDump(m, dump)
			return err
		})
		if err != nil || !interrupted {
			t.Fatalf("seed %d: interrupted %v, err %v", seed, interrupted, err)
		}
		if rep.VolumeLost {
			continue // a destroyed superblock is a reported outcome
		}
		m.Disk.SetFaultPlan(nil)
		_ = logicalState(t, m.FS)
	}
}

// TestTruncatedDumpHandled feeds FromDump a dump cut short (a partial
// UPS write): the pass must complete without panicking, counting the
// missing frames rather than restoring garbage.
func TestTruncatedDumpHandled(t *testing.T) {
	m, dump, _ := crashedRioMachine(t, 7)
	for _, frac := range []int{1, 2, 7, 100} {
		short := dump[:len(dump)/frac]
		rep, err := FromDump(m, short)
		if err != nil {
			t.Fatalf("frac 1/%d: %v", frac, err)
		}
		if frac > 1 && rep.DataRestored > 0 && rep.BadEntries == 0 && rep.SkippedInvalid == 0 {
			t.Fatalf("frac 1/%d: truncation invisible in report: %v", frac, rep)
		}
	}
}

// TestWarmReusesMachineScratch pins who owns which dump. Warm captures its
// image in the dump area of the machine's Storage — allocated by the first
// Warm, overwritten by the next — so repeated in-place reboots of one machine
// must each restore byte-exact, and from the second on must not allocate
// another memory-sized image. A dump a caller took with Mem.Dump is the caller's:
// no later Warm may touch it, and recovery from it (interrupted at any
// step, or cut short) is the same as on a machine that never warm-rebooted
// in place.
func TestWarmReusesMachineScratch(t *testing.T) {
	m := rioMachine(t, true)
	m.FS.Mkdir("/d")
	files := map[string][]byte{}
	var held, heldCopy, heldDisk []byte
	heldFiles := map[string][]byte{}
	for cycle := 1; cycle <= 3; cycle++ {
		for i := 0; i < 8; i++ {
			path := fmt.Sprintf("/d/f%d", (cycle*3+i)%10) // overwrites and new files both
			data := kernel.FillBytes(1+(cycle*4099+i*8191)%(3*fs.BlockSize), uint64(cycle*100+i)|1)
			if _, err := m.FS.Stat(path); err == nil {
				if err := m.FS.Unlink(path); err != nil {
					t.Fatal(err)
				}
			}
			put(t, m, path, data)
			files[path] = data
		}
		m.Kernel.Panic("injected test crash")
		m.CrashFinish()
		if cycle == 1 {
			held, heldDisk = m.Mem.Dump(), m.Disk.Snapshot()
			heldCopy = append([]byte(nil), held...)
			for path, data := range files {
				heldFiles[path] = data
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Warm(m)
		runtime.ReadMemStats(&after)
		if err != nil || rep.VolumeLost || rep.ChecksumMismatches != 0 {
			t.Fatalf("cycle %d: %v, %v", cycle, rep, err)
		}
		for path, want := range files {
			if got := get(t, m, path); !bytes.Equal(got, want) {
				t.Fatalf("cycle %d: %s differs after warm reboot (%d bytes, want %d)", cycle, path, len(got), len(want))
			}
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; cycle > 1 && alloc >= 4<<20 {
			t.Errorf("cycle %d: Warm allocated %d bytes; the %d-byte dump image should be reused", cycle, alloc, m.Mem.Size())
		}
		if !bytes.Equal(held, heldCopy) {
			t.Fatalf("cycle %d: Warm wrote into a dump the caller holds", cycle)
		}
	}

	// The held dump (with the disk of its crash) still recovers cycle 1's
	// state, restartably, on this machine whose scratch now holds cycle
	// 3's image.
	var ref *Report // the last pass's: armed at N, uninterrupted
	start := time.Now()
	n, err := kernel.EachPoint(func() (*kernel.CrashPoint, func() error) {
		m.Disk.Restore(heldDisk)
		return m.Kernel.CrashPoint, func() (err error) { ref, err = FromDump(m, held); return err }
	}, func() string { return logicalState(t, m.FS) })
	if err != nil || ref.VolumeLost {
		t.Fatalf("recovery from held dump: %v, %v", ref, err)
	}
	t.Logf("%d crash points, %d µs per point", n, time.Since(start).Microseconds()/int64(n+1))
	for path, want := range heldFiles {
		if got := get(t, m, path); !bytes.Equal(got, want) {
			t.Fatalf("held dump: %s differs after recovery", path)
		}
	}
	m.Disk.Restore(heldDisk)
	if rep, err := FromDump(m, held[:len(held)/2]); err != nil || rep.SkippedInvalid+rep.BadEntries == 0 {
		t.Fatalf("truncated held dump: %v, %v", rep, err)
	}
	if !bytes.Equal(held, heldCopy) {
		t.Fatal("recovery wrote into the dump")
	}
}
