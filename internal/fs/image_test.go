package fs_test

import (
	"bytes"
	"runtime"
	"testing"

	"rio/internal/fs"
	"rio/internal/kernel"
)

// TestImageRolesNest drives every place one borrowed block image is held
// across the taking of another (DESIGN §7b, image ownership): dirInsert
// holds nothing but walks directory images around a bmap that allocates
// (the directory grows a block); bmap holds an indirect-block image
// across balloc's bitmap image (files grown past NDirect blocks, two at a
// time so their inode and indirect updates interleave); freeFileBlocks
// holds the indirect image across every bfree; and under the
// write-through and journal policies each metaUpdate re-images the block
// for the disk while the edited image is still in its caller's hands.
// If two roles shared a scratch, a pointer, a dirent or a bitmap bit
// would be computed from the wrong block: the files would not read back,
// or fsck would find the damage. It runs under every Table 2
// configuration, because what metaUpdate does after installing an image
// (nothing, a synchronous write-through, a journal append) is the
// policy's.
func TestImageRolesNest(t *testing.T) {
	const bigBlocks = fs.NDirect + 9
	for kind := fs.PolicyMFS; kind <= fs.PolicyRio; kind++ {
		m := boot(t, kind)
		if err := m.FS.Mkdir("/d"); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		// Small files until the directory needs its second block.
		small := make(map[string][]byte)
		for i := 0; i < fs.DirentsPerBlock+3; i++ {
			path := "/d/s" + itoa(i)
			small[path] = kernel.FillBytes(100+i, uint64(i))
			writeFile(t, m, path, small[path])
		}
		if st, err := m.FS.Stat("/d"); err != nil || st.Size != 2*fs.BlockSize {
			t.Fatalf("%v: directory is %d bytes (%v), want two blocks", kind, st.Size, err)
		}

		// Two files past the direct pointers, grown a block at a time in
		// turn.
		big := [2][]byte{kernel.FillBytes(bigBlocks*fs.BlockSize, 71), kernel.FillBytes(bigBlocks*fs.BlockSize-123, 72)}
		var handles [2]*fs.File
		for i := range handles {
			f, err := m.FS.Create("/d/big" + itoa(i))
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			handles[i] = f
		}
		for off := 0; off < bigBlocks*fs.BlockSize; off += fs.BlockSize {
			for i, f := range handles {
				if off >= len(big[i]) {
					continue
				}
				end := min(off+fs.BlockSize, len(big[i]))
				if _, err := f.WriteAt(big[i][off:end], int64(off)); err != nil {
					t.Fatalf("%v: big%d at %d: %v", kind, i, off, err)
				}
			}
		}
		for _, f := range handles {
			if err := f.Close(); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
		check := func(stage string, want map[string][]byte) {
			t.Helper()
			for path, data := range want {
				if got := readFile(t, m, path); !bytes.Equal(got, data) {
					t.Fatalf("%v, %s: %s does not read back (%d bytes, want %d)", kind, stage, path, len(got), len(data))
				}
			}
		}
		check("after growth", small)
		check("after growth", map[string][]byte{"/d/big0": big[0], "/d/big1": big[1]})

		// Free one indirect file outright, and one more by renaming a
		// small file over it; then grow a third into the freed blocks.
		if err := m.FS.Unlink("/d/big0"); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := m.FS.Rename("/d/s0", "/d/big1"); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		small["/d/big1"] = small["/d/s0"]
		delete(small, "/d/s0")
		third := kernel.FillBytes(bigBlocks*fs.BlockSize, 73)
		writeFile(t, m, "/d/big2", third)
		check("after free and regrow", small)
		check("after free and regrow", map[string][]byte{"/d/big2": third})
		if _, err := m.FS.Stat("/d/big0"); err != fs.ErrNotFound {
			t.Fatalf("%v: unlinked file still resolves: %v", kind, err)
		}

		if kind == fs.PolicyMFS {
			continue // never writes: there is no disk image to check
		}
		m.FS.Unmount()
		rep, err := fs.Fsck(m.Disk)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rep.Clean() || rep.IOErrors != 0 {
			t.Fatalf("%v: fsck after the run: %+v", kind, rep)
		}
	}
}

// TestMessageCycleAllocBudget: a create → write 512 B → rename → unlink
// cycle on a warmed Rio mount allocates no block-sized object. Every
// image the cycle takes — three inode blocks, three directory blocks, a
// bitmap block — is borrowed from the mount's scratch, so what is left is
// the handle, the split paths and the dcache's entries: measured 557 B
// and 16 objects per cycle, against 41 517 B and 21 at the parent, where
// three putInode calls, balloc and bfree each had Cache.Contents build a
// fresh 8 KB image. The budget is 2 KB: one heap image put back in
// putInode (img := append([]byte(nil), img...)) reads 25 133 B and fails
// it by an order of magnitude. (A bare make([]byte, BlockSize) there does
// not: it does not escape, so the compiler keeps it on the stack, and
// this test counts the heap.)
func TestMessageCycleAllocBudget(t *testing.T) {
	m := boot(t, fs.PolicyRio)
	if err := m.FS.Mkdir("/spool"); err != nil {
		t.Fatal(err)
	}
	payload := kernel.FillBytes(512, 5)
	cycle := func() {
		f, err := m.FS.Create("/spool/tmp")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.FS.Rename("/spool/tmp", "/spool/msg"); err != nil {
			t.Fatal(err)
		}
		if err := m.FS.Unlink("/spool/msg"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		cycle() // first use allocates the scratch and the pooled blocks
	}
	const cycles = 2000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("%d B and %.1f objects allocated per cycle", perCycle, float64(after.Mallocs-before.Mallocs)/cycles)
	if perCycle > 2048 {
		t.Fatalf("a create/write/rename/unlink cycle allocates %d B, budget 2048: some block image is no longer borrowed", perCycle)
	}
}
