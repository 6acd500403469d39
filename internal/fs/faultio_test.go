package fs_test

import (
	"bytes"
	"errors"
	"testing"

	"rio/internal/disk"
	"rio/internal/fs"
	"rio/internal/ioretry"
)

// TestRetriesSurviveTransientFaults mounts over a disk with a steady
// transient error rate and checks the file system still round-trips data
// correctly: every failed command is retried behind the syscall layer.
func TestRetriesSurviveTransientFaults(t *testing.T) {
	m := boot(t, fs.PolicyUFS) // UFS: plenty of synchronous disk traffic
	m.Disk.SetFaultPlan(&disk.FaultPlan{Seed: 42, TransientRead: 0.1, TransientWrite: 0.1})
	data := bytes.Repeat([]byte("survive-transients "), 600)
	for i := 0; i < 8; i++ {
		writeFile(t, m, "/t"+string(rune('a'+i)), data)
	}
	m.FS.Sync()
	m.Disk.SetFaultPlan(nil)
	for i := 0; i < 8; i++ {
		if got := readFile(t, m, "/t"+string(rune('a'+i))); !bytes.Equal(got, data) {
			t.Fatalf("file %d corrupted under transient faults", i)
		}
	}
	if m.FS.Retry.Stats.Retries == 0 {
		t.Fatal("10% fault rate but the retry layer never fired")
	}
	if m.FS.Degraded() {
		t.Fatalf("transients alone degraded the mount: %+v", m.FS.Retry.Stats)
	}
}

// TestDegradedModeRejectsMutations exhausts the error budget and checks
// every mutating syscall returns ErrReadOnly while reads keep working.
func TestDegradedModeRejectsMutations(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	writeFile(t, m, "/keep", []byte("still readable"))
	m.FS.Sync()

	// Force the budget to zero by charging failures directly — the unit
	// contract (budget exhausted => degraded => ErrReadOnly) is what this
	// test pins down, not a particular fault pattern.
	m.FS.Retry.Pol = ioretry.Policy{MaxRetries: 0, Budget: 1}
	m.Disk.SetFaultPlan(&disk.FaultPlan{Seed: 7, TransientWrite: 1})
	f, err := m.FS.Create("/doomed")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("this write will fail through to the device"))
	f.Close()
	m.FS.Sync()
	m.Disk.SetFaultPlan(nil)
	if !m.FS.Degraded() {
		t.Fatalf("budget 1 not exhausted: %+v", m.FS.Retry.Stats)
	}

	if _, err := m.FS.Create("/nope"); !errors.Is(err, fs.ErrReadOnly) {
		t.Fatalf("Create in degraded mode: %v", err)
	}
	if err := m.FS.Mkdir("/nodir"); !errors.Is(err, fs.ErrReadOnly) {
		t.Fatalf("Mkdir in degraded mode: %v", err)
	}
	if err := m.FS.Unlink("/keep"); !errors.Is(err, fs.ErrReadOnly) {
		t.Fatalf("Unlink in degraded mode: %v", err)
	}
	if err := m.FS.Rename("/keep", "/kept"); !errors.Is(err, fs.ErrReadOnly) {
		t.Fatalf("Rename in degraded mode: %v", err)
	}
	if err := m.FS.Symlink("/keep", "/link"); !errors.Is(err, fs.ErrReadOnly) {
		t.Fatalf("Symlink in degraded mode: %v", err)
	}
	kf, err := m.FS.Open("/keep")
	if err != nil {
		t.Fatalf("Open for read in degraded mode: %v", err)
	}
	if _, err := kf.WriteAt([]byte("x"), 0); !errors.Is(err, fs.ErrReadOnly) {
		t.Fatalf("WriteAt in degraded mode: %v", err)
	}
	kf.Close()
	if got := readFile(t, m, "/keep"); !bytes.Equal(got, []byte("still readable")) {
		t.Fatal("read path broken in degraded mode")
	}
}

// TestFsckToleratesFaultyDisk runs fsck over a formatted volume on a disk
// with transient faults and checks it completes (retrying as needed)
// rather than mis-repairing.
func TestFsckToleratesFaultyDisk(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	writeFile(t, m, "/a", bytes.Repeat([]byte("x"), 3*fs.BlockSize))
	m.FS.Sync()
	m.FS.Unmount()
	m.Disk.SetFaultPlan(&disk.FaultPlan{Seed: 5, TransientRead: 0.2, TransientWrite: 0.2})
	rep, err := fs.Fsck(m.Disk)
	if err != nil {
		t.Fatalf("fsck on transiently-faulty disk: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("clean volume mis-repaired under transients: %v", rep)
	}
	if rep.IOErrors != 0 {
		t.Fatalf("transients should all clear within retry bound: %v", rep)
	}
}

// TestUnreadableBitmapReadsAllocated: an allocation-bitmap block still
// unreadable after its retries reads as all allocated, not all free, so
// unlinking a file is no double free of its own blocks and a new file is
// given no block another file holds.
func TestUnreadableBitmapReadsAllocated(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	keep := bytes.Repeat([]byte("k"), 2*fs.BlockSize)
	writeFile(t, m, "/gone", keep)
	writeFile(t, m, "/keep", keep)
	m.FS.Unmount()
	if err := m.Boot(nil); err != nil { // a fresh cache: the bitmap is read again
		t.Fatal(err)
	}
	readFile(t, m, "/keep")                                      // caches the root, both inodes and /keep's blocks
	m.Disk.SetFaultPlan(&disk.FaultPlan{Seed: 3, LatentRate: 1}) // every uncached read fails
	if err := m.FS.Unlink("/gone"); err != nil || m.FS.Stats.ReadFailures == 0 {
		t.Fatalf("unlink over an unreadable bitmap: %v (%d read failures)", err, m.FS.Stats.ReadFailures)
	}
	m.Disk.SetFaultPlan(nil)
	writeFile(t, m, "/new", bytes.Repeat([]byte("n"), 2*fs.BlockSize))
	if got := readFile(t, m, "/keep"); !bytes.Equal(got, keep) {
		t.Fatal("a new file was given blocks /keep holds")
	}
}
