package fs_test

import (
	"bytes"
	"testing"

	"rio/internal/cache"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/registry"
	"rio/internal/sim"
)

func bootOpt(t *testing.T, kind fs.PolicyKind, mod func(*machine.Options)) *machine.Machine {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(kind))
	opt.FastPath = true
	if mod != nil {
		mod(&opt)
	}
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDropCachesRoundTrip(t *testing.T) {
	m := boot(t, fs.PolicyUFSDelayed)
	data := kernel.FillBytes(2*fs.BlockSize+100, 77)
	writeFile(t, m, "/f", data)
	misses := m.Cache.Stats.DataMisses
	if err := m.FS.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Len(0) != 0 || m.Cache.Len(1) != 0 {
		t.Fatal("caches not empty after DropCaches")
	}
	// Re-read comes from disk, intact.
	if got := readFile(t, m, "/f"); !bytes.Equal(got, data) {
		t.Fatal("data lost through DropCaches")
	}
	if m.Cache.Stats.DataMisses == misses {
		t.Fatal("re-read did not miss (caches not actually dropped)")
	}
}

func TestDropCachesNoopForRioAndMFS(t *testing.T) {
	for _, kind := range []fs.PolicyKind{fs.PolicyRio, fs.PolicyMFS} {
		m := boot(t, kind)
		writeFile(t, m, "/f", []byte("memory resident"))
		if err := m.FS.DropCaches(); err != nil {
			t.Fatal(err)
		}
		// Data must still be readable (for MFS it exists nowhere else).
		if string(readFile(t, m, "/f")) != "memory resident" {
			t.Fatalf("%v: DropCaches destroyed memory-resident data", kind)
		}
	}
}

func TestAsyncCommitCallbacksOnlyOnCommit(t *testing.T) {
	// Delayed policy: daemon queues async writes; a crash before their
	// completion must leave the buffers dirty (callbacks not run).
	m := boot(t, fs.PolicyUFSDelayed)
	writeFile(t, m, "/f", kernel.FillBytes(fs.BlockSize, 9))
	// Force the daemon now.
	m.Clock.Advance(31 * sim.Second)
	m.FS.Tick()
	if m.FS.PendingWrites() == 0 {
		t.Fatal("daemon queued nothing")
	}
	// Buffers stay dirty until the queue drains.
	dirtyBefore := len(m.FS.C.DirtyBufs(0)) + len(m.FS.C.DirtyBufs(1))
	if dirtyBefore == 0 {
		t.Fatal("buffers marked clean before commit")
	}
	// Let the queue complete, then settle: now they are clean.
	m.Clock.Advance(5 * sim.Second)
	m.FS.CrashIO(m.Rng)
	dirtyAfter := len(m.FS.C.DirtyBufs(0)) + len(m.FS.C.DirtyBufs(1))
	if dirtyAfter != 0 {
		t.Fatalf("%d buffers still dirty after commit", dirtyAfter)
	}
}

func TestCrashIODropsUncommittedAndTears(t *testing.T) {
	m := boot(t, fs.PolicyUFSDelayed)
	writeFile(t, m, "/f", kernel.FillBytes(fs.BlockSize, 3))
	m.Clock.Advance(31 * sim.Second)
	m.FS.Tick()
	pend := m.FS.PendingWrites()
	if pend == 0 {
		t.Fatal("nothing queued")
	}
	// Crash immediately: queue completion times are in the future.
	m.FS.CrashIO(m.Rng)
	if m.FS.PendingWrites() != 0 {
		t.Fatal("queue survived crash")
	}
	// Buffers still dirty (their write never completed).
	if len(m.FS.C.DirtyBufs(0))+len(m.FS.C.DirtyBufs(1)) == 0 {
		t.Fatal("crash marked uncommitted buffers clean")
	}
}

func TestJournalWrapAround(t *testing.T) {
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyAdvFS))
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := m.FS.SB.NBlocks - m.FS.SB.JournalStart
	if size != fs.JournalBlocks {
		t.Fatalf("journal is %d blocks, want %d", size, fs.JournalBlocks)
	}
	// Each create journals its inode and directory blocks: two wraps.
	for i := 0; i < fs.JournalBlocks; i++ {
		writeFile(t, m, "/f"+itoa(i), []byte("x"))
	}
	if int64(m.FS.Stats.JournalWrites) <= size {
		t.Fatalf("%d journal writes never wrap a %d-block journal", m.FS.Stats.JournalWrites, size)
	}
	// Volume still consistent after heavy journal churn.
	m.FS.Unmount()
	rep, err := fs.Fsck(m.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("journal wrap corrupted volume: %v", rep)
	}
}

func TestRioEvictionIsSynchronous(t *testing.T) {
	// Rio's only disk writes happen at cache overflow, and they must be
	// synchronous: the evicted frame is reused immediately.
	m := bootOpt(t, fs.PolicyRio, func(o *machine.Options) {
		o.DataCap = 4
	})
	preSync := m.FS.Stats.SyncWrites
	var files [][]byte
	for i := 0; i < 10; i++ {
		data := kernel.FillBytes(fs.BlockSize, uint64(i+1))
		files = append(files, data)
		writeFile(t, m, "/f"+itoa(i), data)
	}
	if m.FS.Stats.SyncWrites == preSync {
		t.Fatal("Rio eviction did not write synchronously")
	}
	if m.FS.Stats.AsyncWrites != 0 {
		t.Fatal("Rio eviction used the async queue")
	}
	// Everything still readable (early files round-trip via disk).
	for i, want := range files {
		if got := readFile(t, m, "/f"+itoa(i)); !bytes.Equal(got, want) {
			t.Fatalf("file %d lost through Rio eviction", i)
		}
	}
}

func TestUFSOrderedVsUnorderedMetadata(t *testing.T) {
	// Creating a file must sync ordered metadata (inode init + dirent);
	// growing it must not sync anything (size updates are unordered).
	m := boot(t, fs.PolicyUFS)
	f, err := m.FS.Create("/grow")
	if err != nil {
		t.Fatal(err)
	}
	createSyncs := m.FS.Stats.SyncWrites
	if createSyncs == 0 {
		t.Fatal("create synced no ordered metadata")
	}
	if _, err := f.WriteAt(kernel.FillBytes(1000, 3), 0); err != nil {
		t.Fatal(err)
	}
	if m.FS.Stats.SyncWrites != createSyncs {
		t.Fatalf("size-growing write synced metadata (%d -> %d)",
			createSyncs, m.FS.Stats.SyncWrites)
	}
	f.Close()
}

func TestUFSNonSequentialWriteFlushes(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	f, _ := m.FS.Create("/f")
	f.WriteAt(kernel.FillBytes(1000, 1), 0)
	async := m.FS.Stats.AsyncWrites
	// Non-sequential write triggers the async flush of accumulated data.
	f.WriteAt(kernel.FillBytes(1000, 2), 50000)
	if m.FS.Stats.AsyncWrites == async {
		t.Fatal("non-sequential write did not trigger async write-back")
	}
	f.Close()
}

func TestUFSThresholdFlush(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	f, _ := m.FS.Create("/f")
	async := m.FS.Stats.AsyncWrites
	// Sequential writes accumulate; crossing 64 KB flushes.
	var off int64
	for i := 0; i < 10; i++ {
		f.WriteAt(kernel.FillBytes(fs.BlockSize, uint64(i+1)), off)
		off += fs.BlockSize
	}
	if m.FS.Stats.AsyncWrites == async {
		t.Fatal("64KB threshold never triggered")
	}
	f.Close()
}

func TestElapsedMonotonicAcrossPolicies(t *testing.T) {
	for _, kind := range []fs.PolicyKind{fs.PolicyMFS, fs.PolicyUFS, fs.PolicyRio, fs.PolicyAdvFS} {
		m := boot(t, kind)
		last := m.Clock.Now()
		for i := 0; i < 30; i++ {
			writeFile(t, m, "/f"+itoa(i), kernel.FillBytes(1000, uint64(i+1)))
			now := m.Clock.Now()
			if now < last {
				t.Fatalf("%v: time went backwards", kind)
			}
			last = now
		}
	}
}

func TestPendingDrainOnSyncRead(t *testing.T) {
	// A sync read after queued async writes must see their content
	// (device-order preservation).
	m := boot(t, fs.PolicyUFSDelayed)
	data := kernel.FillBytes(fs.BlockSize, 5)
	writeFile(t, m, "/f", data)
	m.Clock.Advance(31 * sim.Second) // daemon queues
	m.FS.Tick()
	if err := m.FS.DropCaches(); err != nil { // forces sync writes + read path
		t.Fatal(err)
	}
	if got := readFile(t, m, "/f"); !bytes.Equal(got, data) {
		t.Fatal("sync read missed queued content")
	}
}

// TestDirtyFlagMatchesRegistry checks that every cached buffer's Dirty
// agrees with its registry entry's FlagDirty — the bit warm reboot
// trusts — after write-backs that complete once their buffer has been
// evicted. The update daemon queues every dirty buffer; new files then
// evict some of them, and their registry slots go to the next buffers;
// Sync drains the queue. A stale completion must not clean the slot its
// buffer no longer holds.
func TestDirtyFlagMatchesRegistry(t *testing.T) {
	for _, kind := range []fs.PolicyKind{fs.PolicyUFS, fs.PolicyUFSDelayed, fs.PolicyAdvFS} {
		m := bootOpt(t, kind, func(o *machine.Options) { o.DataCap = 8 })
		data := kernel.FillBytes(fs.BlockSize, 3)
		for i := 0; i < 8; i++ {
			writeFile(t, m, "/a"+itoa(i), data)
		}
		m.Clock.Advance(31 * sim.Second)
		m.FS.Tick()
		for i := 0; i < 4; i++ {
			writeFile(t, m, "/b"+itoa(i), data)
		}
		m.FS.Sync()
		for _, ck := range []cache.Kind{cache.Meta, cache.Data} {
			for _, b := range m.Cache.All(ck) {
				e, ok := m.Reg.Get(b.Slot)
				if !ok || (e.Flags&registry.FlagDirty != 0) != b.Dirty {
					t.Errorf("%v: %v buffer ino %d block %d: Dirty %v, registry slot %d flags %#x (live %v)",
						kind, ck, b.Ino, b.FileBlock, b.Dirty, b.Slot, e.Flags, ok)
				}
			}
		}
	}
}
