package warmreboot

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"

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
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
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

// haltEveryPoint runs pass once uninterrupted to count its crash points N
// and take the tree it recovers, then arms each point 0..N in turn: a pass
// halted there must restart, disarmed, to that same tree, and the pass
// armed at N must complete without halting. reset puts back the disk of
// the crash before each pass. It returns N.
func haltEveryPoint(t *testing.T, m *machine.Machine, reset func(), pass func() error) int {
	t.Helper()
	cp := m.Kernel.CrashPoint
	defer cp.Disarm()
	reset()
	cp.Disarm()
	if err := pass(); err != nil {
		t.Fatalf("uninterrupted pass: %v", err)
	}
	n, want := cp.Count(), logicalState(t, m.FS)
	for k := 0; k <= n; k++ {
		reset()
		cp.Arm(k)
		err := pass()
		if k < n {
			if err != kernel.ErrCrashPoint {
				t.Fatalf("armed at point %d of %d: err = %v, want ErrCrashPoint", k, n, err)
			}
			cp.Disarm()
			err = pass() // restart from the same image: the idempotent second pass
		}
		if err != nil {
			t.Fatalf("point %d of %d: %v", k, n, err)
		}
		if got := logicalState(t, m.FS); got != want {
			t.Fatalf("halted at point %d of %d, the restart diverges from the uninterrupted pass:\ngot:\n%swant:\n%s", k, n, got, want)
		}
	}
	return n
}

// TestRecoveryIdempotentAfterInterruption is the satellite's contract:
// crash the warm reboot at every crash point, rerun it from the same dump,
// and require the final file-system state to be byte-identical to an
// uninterrupted pass.
func TestRecoveryIdempotentAfterInterruption(t *testing.T) {
	m, dump, diskSnap := crashedRioMachine(t, 1996)
	rep, err := FromDump(m, dump)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VolumeLost || rep.DataRestored == 0 {
		t.Fatalf("reference recovery degenerate: %v", rep)
	}
	n := haltEveryPoint(t, m, func() { m.Disk.Restore(diskSnap) }, func() error {
		_, err := FromDump(m, dump)
		return err
	})
	if n < 3 {
		t.Fatalf("too few crash points (%d) to exercise interruption", n)
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
		m.Kernel.CrashPoint.Arm(int(seed)) // early interruption
		_, err := FromDump(m, dump)
		if err != nil && err != kernel.ErrCrashPoint {
			t.Fatalf("seed %d: first attempt: %v", seed, err)
		}
		if err == kernel.ErrCrashPoint {
			m.Kernel.CrashPoint.Disarm()
			rep, err := FromDump(m, dump)
			if err != nil {
				t.Fatalf("seed %d: restart aborted: %v", seed, err)
			}
			if rep.VolumeLost {
				continue
			}
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
	m.Disk.Restore(heldDisk)
	ref, err := FromDump(m, held)
	if err != nil || ref.VolumeLost {
		t.Fatalf("recovery from held dump: %v, %v", ref, err)
	}
	for path, want := range heldFiles {
		if got := get(t, m, path); !bytes.Equal(got, want) {
			t.Fatalf("held dump: %s differs after recovery", path)
		}
	}
	haltEveryPoint(t, m, func() { m.Disk.Restore(heldDisk) }, func() error {
		_, err := FromDump(m, held)
		return err
	})
	m.Disk.Restore(heldDisk)
	if rep, err := FromDump(m, held[:len(held)/2]); err != nil || rep.SkippedInvalid+rep.BadEntries == 0 {
		t.Fatalf("truncated held dump: %v, %v", rep, err)
	}
	if !bytes.Equal(held, heldCopy) {
		t.Fatal("recovery wrote into the dump")
	}
}
