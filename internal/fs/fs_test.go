package fs_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"rio/internal/cache"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/sim"
)

func boot(t *testing.T, kind fs.PolicyKind) *machine.Machine {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(kind))
	opt.FastPath = true // functional tests don't need interpreted copies
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func writeFile(t *testing.T, m *machine.Machine, path string, data []byte) {
	t.Helper()
	f, err := m.FS.Create(path)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func readFile(t *testing.T, m *machine.Machine, path string) []byte {
	t.Helper()
	buf, err := m.FS.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return buf
}

func TestCreateWriteReadSmall(t *testing.T) {
	for _, kind := range []fs.PolicyKind{fs.PolicyRio, fs.PolicyUFS, fs.PolicyMFS, fs.PolicyUFSWTWrite} {
		m := boot(t, kind)
		data := []byte(fmt.Sprintf("hello from the kind-%d configuration", kind))
		writeFile(t, m, "/hello.txt", data)
		if got := readFile(t, m, "/hello.txt"); !bytes.Equal(got, data) {
			t.Fatalf("%v: got %q", kind, got)
		}
	}
}

func TestLargeFileMultiBlock(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	data := kernel.FillBytes(3*fs.BlockSize+777, 42)
	writeFile(t, m, "/big", data)
	if got := readFile(t, m, "/big"); !bytes.Equal(got, data) {
		t.Fatal("multi-block file mismatch")
	}
	st, _ := m.FS.Stat("/big")
	if st.Size != int64(len(data)) {
		t.Fatalf("size %d, want %d", st.Size, len(data))
	}
}

func TestIndirectBlocks(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	// Past the 12 direct blocks.
	data := kernel.FillBytes((fs.NDirect+3)*fs.BlockSize, 9)
	writeFile(t, m, "/huge", data)
	if got := readFile(t, m, "/huge"); !bytes.Equal(got, data) {
		t.Fatal("indirect file mismatch")
	}
}

func TestSparseWrite(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	f, _ := m.FS.Create("/sparse")
	payload := []byte("tail")
	if _, err := f.WriteAt(payload, 5*fs.BlockSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st, _ := m.FS.Stat("/sparse")
	if st.Size != 5*fs.BlockSize+4 {
		t.Fatalf("size %d", st.Size)
	}
	got := readFile(t, m, "/sparse")
	if !bytes.Equal(got[5*fs.BlockSize:], payload) {
		t.Fatal("tail mismatch")
	}
	for _, b := range got[:16] {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestOverwriteMiddle(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	data := kernel.FillBytes(2*fs.BlockSize, 3)
	writeFile(t, m, "/f", data)
	f, _ := m.FS.Open("/f")
	patch := []byte("PATCHED ACROSS THE BLOCK BOUNDARY")
	off := int64(fs.BlockSize - 10)
	if _, err := f.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	copy(data[off:], patch)
	if got := readFile(t, m, "/f"); !bytes.Equal(got, data) {
		t.Fatal("overwrite mismatch")
	}
}

func TestMkdirTreeAndReadDir(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	mustMkdir := func(p string) {
		if err := m.FS.Mkdir(p); err != nil {
			t.Fatalf("mkdir %s: %v", p, err)
		}
	}
	mustMkdir("/a")
	mustMkdir("/a/b")
	mustMkdir("/a/b/c")
	writeFile(t, m, "/a/b/file1", []byte("one"))
	writeFile(t, m, "/a/b/file2", []byte("two"))

	ents, err := m.FS.ReadDir("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range ents {
		names[e.Name] = true
	}
	if !names["c"] || !names["file1"] || !names["file2"] || len(ents) != 3 {
		t.Fatalf("readdir: %v", ents)
	}
	st, err := m.FS.Stat("/a/b/c")
	if err != nil || !st.IsDir {
		t.Fatalf("stat dir: %+v %v", st, err)
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	data := kernel.FillBytes(4*fs.BlockSize, 5)
	writeFile(t, m, "/doomed", data)
	if err := m.FS.Unlink("/doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FS.Open("/doomed"); err != fs.ErrNotFound {
		t.Fatalf("open after unlink: %v", err)
	}
	// Space is reusable: write many files of the same total size.
	for i := 0; i < 5; i++ {
		writeFile(t, m, "/again", data)
		if err := m.FS.Unlink("/again"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRmdirSemantics(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	m.FS.Mkdir("/d")
	writeFile(t, m, "/d/f", []byte("x"))
	if err := m.FS.Rmdir("/d"); err != fs.ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	m.FS.Unlink("/d/f")
	if err := m.FS.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FS.Stat("/d"); err != fs.ErrNotFound {
		t.Fatalf("stat after rmdir: %v", err)
	}
}

func TestRename(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	writeFile(t, m, "/old", []byte("contents"))
	m.FS.Mkdir("/dir")
	if err := m.FS.Rename("/old", "/dir/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FS.Stat("/old"); err != fs.ErrNotFound {
		t.Fatal("old name survived rename")
	}
	if got := readFile(t, m, "/dir/new"); string(got) != "contents" {
		t.Fatalf("got %q", got)
	}
	// Rename over an existing file replaces it.
	writeFile(t, m, "/other", []byte("loser"))
	if err := m.FS.Rename("/dir/new", "/other"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, m, "/other"); string(got) != "contents" {
		t.Fatalf("replace: got %q", got)
	}
}

func TestErrors(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	writeFile(t, m, "/f", []byte("x"))
	m.FS.Mkdir("/d")

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"open missing", func() error { _, e := m.FS.Open("/nope"); return e }(), fs.ErrNotFound},
		{"create exists", func() error { _, e := m.FS.Create("/f"); return e }(), fs.ErrExists},
		{"mkdir exists", m.FS.Mkdir("/d"), fs.ErrExists},
		{"open dir", func() error { _, e := m.FS.Open("/d"); return e }(), fs.ErrIsDir},
		{"unlink dir", m.FS.Unlink("/d"), fs.ErrIsDir},
		{"rmdir file", m.FS.Rmdir("/f"), fs.ErrNotDir},
		{"lookup through file", func() error { _, e := m.FS.Stat("/f/sub"); return e }(), fs.ErrNotDir},
	}
	for _, c := range cases {
		if c.err != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.err, c.want)
		}
	}
}

func TestNameTooLong(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	long := make([]byte, fs.MaxNameLen+1)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := m.FS.Create("/" + string(long)); err != fs.ErrNameTooLong {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedFileOps(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	f, _ := m.FS.Create("/f")
	f.Close()
	if _, err := f.Write([]byte("x")); err != fs.ErrClosed {
		t.Fatalf("write: %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); err != fs.ErrClosed {
		t.Fatalf("read: %v", err)
	}
	if err := f.Close(); err != fs.ErrClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	// Force directory growth past one block (128 entries per block).
	m := boot(t, fs.PolicyRio)
	for i := 0; i < 200; i++ {
		writeFile(t, m, "/f"+itoa(i), []byte{byte(i)})
	}
	ents, err := m.FS.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 200 {
		t.Fatalf("%d entries", len(ents))
	}
	for i := 0; i < 200; i++ {
		got := readFile(t, m, "/f"+itoa(i))
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("file %d content wrong", i)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestDataSurvivesCacheEviction(t *testing.T) {
	// Shrink the UBC so data round-trips through the disk.
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyUFS))
	opt.FastPath = true
	opt.DataCap = 4
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var files [][]byte
	for i := 0; i < 8; i++ {
		data := kernel.FillBytes(fs.BlockSize+i*100, uint64(i+1))
		files = append(files, data)
		writeFile(t, m, "/f"+itoa(i), data)
	}
	for i, want := range files {
		if got := readFile(t, m, "/f"+itoa(i)); !bytes.Equal(got, want) {
			t.Fatalf("file %d lost through eviction", i)
		}
	}
	if m.Cache.Stats.Evictions == 0 {
		t.Fatal("test exercised no evictions")
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	data := kernel.FillBytes(2*fs.BlockSize, 77)
	m.FS.Mkdir("/keep")
	writeFile(t, m, "/keep/data", data)
	m.FS.Unmount()

	// Cold boot: memory scrambled, everything must come from disk.
	m.Mem.Scramble(123)
	if err := m.Boot(nil); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, m, "/keep/data"); !bytes.Equal(got, data) {
		t.Fatal("data lost across remount")
	}
}

func TestRioNeverWritesToDisk(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	before := m.Disk.Stats.Writes
	for i := 0; i < 20; i++ {
		writeFile(t, m, "/f"+itoa(i), kernel.FillBytes(fs.BlockSize, uint64(i+1)))
	}
	m.FS.Sync() // no-op under Rio
	f, _ := m.FS.Open("/f0")
	m.FS.Fsync(f) // also a no-op
	f.Close()
	if m.Disk.Stats.Writes != before {
		t.Fatalf("Rio wrote %d blocks to disk", m.Disk.Stats.Writes-before)
	}
	if m.FS.PendingWrites() != 0 {
		t.Fatal("Rio queued async writes")
	}
}

func TestWriteThroughWritesImmediately(t *testing.T) {
	m := boot(t, fs.PolicyUFSWTWrite)
	f, _ := m.FS.Create("/f")
	before := m.Disk.Stats.Writes
	f.Write(kernel.FillBytes(fs.BlockSize, 5))
	if m.Disk.Stats.Writes == before {
		t.Fatal("write-through did not reach disk")
	}
	f.Close()
}

func TestUFSMetadataSynchronous(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	before := m.Disk.Stats.Writes
	m.FS.Mkdir("/newdir")
	if m.Disk.Stats.Writes == before {
		t.Fatal("UFS metadata update did not reach disk synchronously")
	}
}

// TestUpdateDaemonSchedule pins when the update daemon runs: never before
// mount + UpdatePeriod, once at the first syscall at or after that time,
// next UpdatePeriod after that syscall (not after mount + 2·UpdatePeriod),
// and never after Unmount. Each run queues every dirty buffer and, on a
// journaling mount, recycles the journal.
func TestUpdateDaemonSchedule(t *testing.T) {
	for _, kind := range []fs.PolicyKind{fs.PolicyUFSDelayed, fs.PolicyAdvFS} {
		m := boot(t, kind)
		clock := m.Clock
		period := m.FS.Pol.UpdatePeriod
		if period != 30*sim.Second {
			t.Fatalf("%v: update period %v, want 30s", kind, period)
		}
		mounted := clock.Now()
		runs := uint64(0)
		// step advances the clock to at, makes one read-only syscall and
		// checks whether the daemon ran in it.
		step := func(what string, at sim.Time, wantRun bool) {
			t.Helper()
			clock.AdvanceTo(at)
			dirty := 0
			for _, ck := range []cache.Kind{cache.Meta, cache.Data} {
				for _, b := range m.Cache.DirtyBufs(ck) {
					if b.Block >= 0 {
						dirty++
					}
				}
			}
			async, head := m.FS.Stats.AsyncWrites, m.FS.JournalHead()
			if _, err := m.FS.Stat("/"); err != nil {
				t.Fatal(err)
			}
			wantAsync := async
			if wantRun {
				runs++
				wantAsync += uint64(dirty)
				if dirty == 0 {
					t.Fatalf("%v %s: nothing dirty for the daemon to queue", kind, what)
				}
			}
			if m.FS.Stats.DaemonRuns != runs {
				t.Fatalf("%v %s: DaemonRuns %d, want %d", kind, what, m.FS.Stats.DaemonRuns, runs)
			}
			if m.FS.Stats.AsyncWrites != wantAsync {
				t.Fatalf("%v %s: AsyncWrites %d, want %d", kind, what, m.FS.Stats.AsyncWrites, wantAsync)
			}
			if kind == fs.PolicyAdvFS {
				start := m.FS.SB.JournalStart
				if wantRun && m.FS.JournalHead() != start {
					t.Fatalf("%v %s: journal head %d after a run, want %d", kind, what, m.FS.JournalHead(), start)
				}
				if !wantRun && m.FS.JournalHead() != head {
					t.Fatalf("%v %s: journal head moved %d -> %d without a run", kind, what, head, m.FS.JournalHead())
				}
			}
		}
		writeFile(t, m, "/a", kernel.FillBytes(fs.BlockSize, 1))
		step("just before mount+30s", mounted.Add(period-sim.Millisecond), false)
		if clock.Now() >= mounted.Add(period) {
			t.Fatalf("%v: the syscall before the deadline ended past it", kind)
		}
		step("first syscall after mount+30s", mounted.Add(period+2*sim.Second), true)
		ran := clock.Now()
		writeFile(t, m, "/b", kernel.FillBytes(fs.BlockSize, 2))
		step("after mount+60s", mounted.Add(2*period+sim.Second), false)
		step("just before run+30s", ran.Add(period-sim.Millisecond), false)
		if clock.Now() >= ran.Add(period) {
			t.Fatalf("%v: the syscall before the second deadline ended past it", kind)
		}
		step("at run+30s", ran.Add(period), true)
		m.FS.Unmount()
		writeFile(t, m, "/c", kernel.FillBytes(fs.BlockSize, 3))
		step("after Unmount", clock.Now().Add(3*period), false)
	}
}

func TestDelayedPolicyDefersEverything(t *testing.T) {
	m := boot(t, fs.PolicyUFSDelayed)
	before := m.Disk.Stats.Writes
	m.FS.Mkdir("/d")
	writeFile(t, m, "/d/f", kernel.FillBytes(fs.BlockSize, 2))
	if m.Disk.Stats.Writes != before {
		t.Fatal("delayed policy wrote to disk before the update daemon")
	}
}

func TestUpdateDaemonFlushes(t *testing.T) {
	m := boot(t, fs.PolicyUFSDelayed)
	writeFile(t, m, "/f", kernel.FillBytes(fs.BlockSize, 2))
	// Run simulated time past the 30s daemon period.
	m.Clock.Advance(31 * sim.Second)
	m.FS.Tick()
	m.FS.CrashIO(m.Rng) // drain queue deterministically
	if m.FS.Stats.DaemonRuns == 0 {
		t.Fatal("daemon never ran")
	}
	if m.Disk.Stats.Writes == 0 {
		t.Fatal("daemon flushed nothing")
	}
}

func TestJournalSequentialWrites(t *testing.T) {
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyAdvFS))
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		writeFile(t, m, "/f"+itoa(i), []byte("x"))
	}
	if m.FS.Stats.JournalWrites == 0 {
		t.Fatal("journaling policy wrote no journal records")
	}
	// Only the occasional group commit is synchronous; in-place metadata
	// is never written synchronously (that is UFS's behaviour).
	if m.FS.Stats.SyncWrites > m.FS.Stats.JournalWrites/3 {
		t.Fatalf("journaling policy too synchronous: %d syncs for %d journal writes",
			m.FS.Stats.SyncWrites, m.FS.Stats.JournalWrites)
	}
}

func TestFsyncFlushesExactlyOneFile(t *testing.T) {
	m := boot(t, fs.PolicyUFSDelayed)
	writeFile(t, m, "/a", kernel.FillBytes(fs.BlockSize, 1))
	writeFile(t, m, "/b", kernel.FillBytes(fs.BlockSize, 2))
	f, _ := m.FS.Open("/a")
	before := m.Disk.Stats.Writes
	if err := m.FS.Fsync(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if m.Disk.Stats.Writes == before {
		t.Fatal("fsync wrote nothing")
	}
}

func TestTimeAdvancesWithWork(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	t0 := m.Elapsed()
	writeFile(t, m, "/f", kernel.FillBytes(4*fs.BlockSize, 3))
	if m.Elapsed() <= t0 {
		t.Fatal("simulated time did not advance")
	}
}

func TestWriteThroughSlowerThanRio(t *testing.T) {
	run := func(kind fs.PolicyKind) sim.Duration {
		m := boot(t, kind)
		for i := 0; i < 10; i++ {
			writeFile(t, m, "/f"+itoa(i), kernel.FillBytes(2*fs.BlockSize, uint64(i+1)))
		}
		return m.Elapsed()
	}
	rio := run(fs.PolicyRio)
	wt := run(fs.PolicyUFSWTWrite)
	if wt < 2*rio {
		t.Fatalf("write-through (%v) should be much slower than Rio (%v)", wt, rio)
	}
}

func TestMkfsGeometry(t *testing.T) {
	sb := fs.Geometry(2048, 1024, 64)
	if sb.InodeStart != 1 {
		t.Fatal("inode start")
	}
	if sb.BitmapStart <= sb.InodeStart || sb.DataStart <= sb.BitmapStart {
		t.Fatalf("layout %+v", sb)
	}
	if sb.JournalStart != 2048-64 {
		t.Fatalf("journal %d", sb.JournalStart)
	}
}

func TestFsckCleanVolume(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	m.FS.Mkdir("/d")
	writeFile(t, m, "/d/f", kernel.FillBytes(fs.BlockSize*2, 4))
	m.FS.Unmount()
	rep, err := fs.Fsck(m.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean volume flagged: %v", rep)
	}
	// Volume still mounts and reads fine after fsck.
	m.Mem.Scramble(5)
	if err := m.Boot(nil); err != nil {
		t.Fatal(err)
	}
	if len(readFile(t, m, "/d/f")) != fs.BlockSize*2 {
		t.Fatal("data lost after fsck")
	}
}

func TestFsckRepairsBadDirent(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	writeFile(t, m, "/victim", []byte("data"))
	m.FS.Unmount()
	// Corrupt: point the dirent at a free inode by freeing the inode
	// behind fsck's back. Easiest: zero the inode table entry on disk.
	sb, _ := fs.ReadSuperblock(m.Disk)
	blk := make([]byte, fs.BlockSize)
	m.Disk.Read(int(sb.InodeStart)*fs.SectorsPerBlock, blk)
	ino, _ := func() (int, error) { return 2, nil }() // first allocated file ino
	for i := 0; i < fs.InodeSize; i++ {
		blk[ino*fs.InodeSize+i] = 0
	}
	m.Disk.Commit(int(sb.InodeStart)*fs.SectorsPerBlock, blk)

	rep, err := fs.Fsck(m.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadDirents == 0 {
		t.Fatalf("fsck missed the dangling dirent: %v", rep)
	}
	// Remount: the victim is gone but the volume works.
	m.Mem.Scramble(6)
	if err := m.Boot(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FS.Open("/victim"); err != fs.ErrNotFound {
		t.Fatalf("victim: %v", err)
	}
	writeFile(t, m, "/new", []byte("works"))
}

func TestFsckFreesOrphans(t *testing.T) {
	m := boot(t, fs.PolicyUFS)
	writeFile(t, m, "/a", []byte("aa"))
	m.FS.Unmount()
	// Corrupt: clear the root directory block so /a becomes orphaned.
	sb, _ := fs.ReadSuperblock(m.Disk)
	blk := make([]byte, fs.BlockSize)
	m.Disk.Read(int(sb.InodeStart)*fs.SectorsPerBlock, blk)
	var root fs.Inode
	rootOff := int(sb.RootIno) * fs.InodeSize
	rootBytes := blk[rootOff : rootOff+fs.InodeSize]
	_ = root
	_ = rootBytes
	// Zero the root's first direct block contents.
	var dirBlock uint32
	for i := 0; i < 4; i++ {
		dirBlock |= uint32(rootBytes[16+i]) << (8 * i)
	}
	if dirBlock != 0 {
		m.Disk.Commit(int(dirBlock)*fs.SectorsPerBlock, make([]byte, fs.BlockSize))
	}
	rep, err := fs.Fsck(m.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanInodes == 0 {
		t.Fatalf("orphan not detected: %v", rep)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	writeFile(t, m, "/f", []byte("short"))
	f, _ := m.FS.Open("/f")
	buf := make([]byte, 100)
	n, err := f.ReadAt(buf, 0)
	if err != nil || n != 5 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	n, err = f.ReadAt(buf, 1000)
	if err != nil || n != 0 {
		t.Fatalf("past EOF: n=%d err=%v", n, err)
	}
	f.Close()
}

func TestFileTooBig(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	f, _ := m.FS.Create("/f")
	_, err := f.WriteAt([]byte("x"), int64(fs.MaxFileBlocks)*fs.BlockSize+1)
	if err != fs.ErrTooBig {
		t.Fatalf("err = %v", err)
	}
	f.Close()
}

func TestWriteReadProperty(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	f, err := m.FS.Create("/prop")
	if err != nil {
		t.Fatal(err)
	}
	mirror := make([]byte, 0, 64*1024)
	prop := func(offRaw uint16, lenRaw uint8, seed uint64) bool {
		off := int64(offRaw) % (48 * 1024)
		n := int(lenRaw) + 1
		data := kernel.FillBytes(n, seed|1)
		if _, err := f.WriteAt(data, off); err != nil {
			return false
		}
		if int(off)+n > len(mirror) {
			grown := make([]byte, int(off)+n)
			copy(grown, mirror)
			mirror = grown
		}
		copy(mirror[off:], data)
		got := make([]byte, len(mirror))
		if _, err := f.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, mirror)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// ReadFile refuses an inode size no file can have — negative, or one
// byte past MaxFileBytes — with a *SizeError, before sizing a buffer from
// it. The size is smashed in the on-disk inode and the volume remounted.
func TestReadFileRefusesImplausibleSize(t *testing.T) {
	for _, size := range []int64{-1, fs.MaxFileBytes + 1} {
		m := boot(t, fs.PolicyUFS)
		writeFile(t, m, "/victim", []byte("data"))
		st, err := m.FS.Stat("/victim")
		if err != nil {
			t.Fatal(err)
		}
		m.FS.Unmount()
		sb, _ := fs.ReadSuperblock(m.Disk)
		sector := int(sb.InodeStart+int64(st.Ino)/fs.InodesPerBlock) * fs.SectorsPerBlock
		blk := make([]byte, fs.BlockSize)
		m.Disk.Read(sector, blk)
		off := int(st.Ino)%fs.InodesPerBlock*fs.InodeSize + 8 // Inode.Size
		binary.LittleEndian.PutUint64(blk[off:], uint64(size))
		m.Disk.Commit(sector, blk)
		m.Mem.Scramble(7)
		if err := m.Boot(nil); err != nil {
			t.Fatal(err)
		}

		_, err = m.FS.ReadFile("/victim")
		var se *fs.SizeError
		if !errors.As(err, &se) || se.Size != size || se.Path != "/victim" {
			t.Fatalf("size %d: ReadFile error %v, want a *fs.SizeError", size, err)
		}
	}
}
