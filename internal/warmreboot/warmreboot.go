// Package warmreboot implements Rio's reboot paths.
//
// Warm reboot (§2.2 of the paper) happens in two steps. Before the VM and
// file system initialise, the booting kernel dumps all of physical memory
// (the paper dumps to the swap partition; we hold the dump in the
// simulator) and restores dirty *metadata* buffers straight to their disk
// blocks using the disk addresses stored in the registry — so the file
// system is intact before fsck checks it. After the system is fully booted,
// a user-level process walks the dump and restores the dirty UBC pages
// through normal system calls (open/write).
//
// Because the dump is taken from a freshly booting, healthy system rather
// than the dying one, it "always works" — unlike a crash dump. This
// package hardens that claim against the two adversaries the paper does
// not model: a storage device that fails during the restore, and a second
// crash in the middle of recovery. Every restore action is per-entry
// quarantine-and-continue (an entry that cannot be restored is counted
// and skipped, never allowed to abort the pass), orphaned data pages are
// salvaged into /lost+found, and the whole protocol is an idempotent
// function of the immutable memory dump — rerunning it after an
// interruption converges to the same file-system state as an
// uninterrupted pass.
package warmreboot

import (
	"fmt"

	"rio/internal/fs"
	"rio/internal/ioretry"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/mem"
	"rio/internal/registry"
)

// Report describes what a warm reboot found and restored.
type Report struct {
	// Entries is the number of valid registry entries in the dump.
	Entries int
	// BadEntries failed the registry's per-entry CRC (garbage skipped).
	BadEntries int
	// MetaRestored / DataRestored count dirty buffers written back.
	MetaRestored int
	DataRestored int
	// MetaFailed / DataFailed count dirty buffers quarantined because
	// the restore write failed even after retries. The pass continues;
	// the loss is bounded to these entries and visible here.
	MetaFailed int
	DataFailed int
	// Changing counts buffers that were mid-write at crash time; their
	// checksums cannot classify them.
	Changing int
	// ChecksumMismatches are non-changing buffers whose contents no
	// longer match their registry checksum: direct corruption, detected.
	ChecksumMismatches int
	// OrphanData counts dirty data pages whose file could not be found
	// after the metadata restore and that could not be salvaged.
	OrphanData int
	// Salvaged counts orphaned data pages preserved under /lost+found.
	Salvaged int
	// SkippedInvalid counts entries with out-of-range frames/blocks.
	SkippedInvalid int
	// CloseErrors counts restore file handles whose Close failed.
	CloseErrors int
	// VolumeLost means the volume could not even be checked (superblock
	// unreadable or implausible after the metadata restore): recovery
	// stopped before booting, and the machine is not running. This is a
	// reported outcome, not an error — the caller decides what a dead
	// volume means for it.
	VolumeLost bool
	// Fsck is the consistency-check report after the metadata restore.
	Fsck fs.FsckReport
}

func (r *Report) String() string {
	return fmt.Sprintf("warm reboot: %d entries (%d bad), %d meta + %d data restored, %d quarantined, %d changing, %d checksum mismatches, %d orphans, %d salvaged",
		r.Entries, r.BadEntries, r.MetaRestored, r.DataRestored,
		r.MetaFailed+r.DataFailed, r.Changing, r.ChecksumMismatches,
		r.OrphanData, r.Salvaged)
}

// Image is the memory image one recovery restores from, with the registry
// already parsed out of it. Recovery reads it and never writes it, so an
// interrupted recovery (kernel.ErrCrashPoint, or a fresh crash mid-restore)
// restarts by passing the same Image to Restore again.
type Image struct {
	// dump holds frame f at mem.FrameBase(f). It may be shorter than
	// memory (a truncated UPS dump), and in an Image that Capture built
	// only the registry's frames and the frames readable entries name
	// hold memory's bytes; see readable.
	dump []byte
	// entries are the registry entries that passed their CRC, in slot
	// order; bad counts the slots that did not.
	entries []registry.ParsedEntry
	bad     int
}

// readable reports whether recovery may read the page entry e names: the
// frame exists and the entry's size fits a page. It is the one test that
// decides both which frames Capture copies and which entries Restore goes
// on to look at (the rest are SkippedInvalid before their page is touched),
// so Restore reads no page that Capture left out.
func readable(e registry.ParsedEntry, nframes int) bool {
	return int(e.Frame) < nframes && e.Size <= mem.PageSize
}

// page returns the image of the frame, or nil when the dump is too short
// to contain it: a caller's dump is untrusted input and must never be
// sliced past its end.
func (im Image) page(frame uint32) []byte {
	base := mem.FrameBase(int(frame))
	if base+mem.PageSize > uint64(len(im.dump)) {
		return nil
	}
	return im.dump[base : base+mem.PageSize]
}

// Capture is the warm reboot's "dump physical memory" step, taken before
// anything reinitialises: it copies into the machine's dump area, each at
// its own offset, the registry's frames, parses the registry there, and
// copies the frames that readable entries name — what Restore reads, not
// all of memory (under half of it on a machine whose cache is full, far
// less in a campaign run). It only reads the crashed memory, so the frames
// marked stored stay as they were. The rest of the dump area keeps
// whatever an earlier recovery on the same storage left there; see
// readable for why that is never read. The Image is valid until the next
// Capture on the machine's storage; a caller that holds a dump across
// in-place reboots (the UPS path) takes its own copy with Mem.Dump and
// uses FromDump.
func Capture(m *machine.Machine) Image {
	regFrames := m.Reg.Frames()
	im := Image{dump: m.DumpArea()}
	keep := func(frame int) {
		base := mem.FrameBase(frame)
		m.Mem.ReadAt(base, im.dump[base:base+mem.PageSize])
	}
	for _, f := range regFrames {
		keep(f)
	}
	im.entries, im.bad = registry.Parse(im.dump, regFrames)
	nframes := m.Mem.NumFrames()
	for _, e := range im.entries {
		if readable(e, nframes) {
			keep(int(e.Frame))
		}
	}
	return im
}

// Warm performs a warm reboot of a crashed machine in place: dump memory,
// restore metadata to disk, fsck, boot a fresh kernel, and restore the UBC
// through system calls. On return the machine is booted and its file
// system reflects the pre-crash file cache.
func Warm(m *machine.Machine) (*Report, error) {
	return Restore(m, Capture(m))
}

// FromDump performs the warm-reboot restore from an explicit memory image
// — a dump the caller took with Mem.Dump, or one a UPS wrote to the swap
// disk as the power failed (the paper's §1 power-outage story). The dump is
// the caller's, full or truncated, and is only read.
func FromDump(m *machine.Machine, dump []byte) (*Report, error) {
	im := Image{dump: dump}
	// The registry lives at a machine-fixed location.
	im.entries, im.bad = registry.Parse(dump, m.Reg.Frames())
	return Restore(m, im)
}

// Restore is the warm-reboot restore itself, from an Image.
//
// The protocol is idempotent over the image: every metadata commit writes
// the same bytes to the same blocks, fsck converges, and every data-page
// write lands the same bytes at the same file offsets, so calling it
// again after a kernel.ErrCrashPoint return (or after a fresh crash mid-
// recovery) completes the restore with the same final state an
// uninterrupted pass produces. Each metadata commit, the fsck, the boot
// and each data-page restore is one boundary of the machine's crash point;
// a skipped invalid entry is none.
func Restore(m *machine.Machine, im Image) (*Report, error) {
	rep := &Report{Entries: len(im.entries), BadEntries: im.bad}
	cp := m.Kernel.CrashPoint
	nframes := m.Mem.NumFrames()

	// Classify and verify every entry first.
	var metaDirty, dataDirty []registry.ParsedEntry
	for _, e := range im.entries {
		var page []byte
		if readable(e, nframes) {
			page = im.page(e.Frame)
		}
		if page == nil {
			rep.SkippedInvalid++
			continue
		}
		if e.Flags&registry.FlagChanging != 0 {
			rep.Changing++
		} else if e.Cksum != 0 {
			if kernel.CksumBytes(page) != e.Cksum {
				rep.ChecksumMismatches++
			}
		}
		if e.Flags&registry.FlagDirty == 0 {
			continue // clean: the disk copy is current
		}
		switch e.Kind {
		case registry.KindMeta:
			metaDirty = append(metaDirty, e)
		case registry.KindData:
			dataDirty = append(dataDirty, e)
		}
	}

	// Step 2: restore dirty metadata straight to disk, pre-fsck. Each
	// commit retries transient device errors; a block that stays
	// unwritable is quarantined (MetaFailed) and the pass continues —
	// fsck repairs whatever inconsistency the missing block leaves.
	retry := ioretry.New(ioretry.DefaultPolicy(), m.Clock)
	for _, e := range metaDirty {
		// Block 0 is the superblock, which is never cached: a registry
		// entry claiming it is corrupt, and restoring it would destroy
		// the volume.
		if e.Block < 1 || e.Block*fs.SectorsPerBlock >= int64(m.Disk.NumSectors()) {
			rep.SkippedInvalid++
			continue
		}
		if cp.Point() {
			return rep, kernel.ErrCrashPoint
		}
		e := e
		err := retry.Do(func() error {
			return m.Disk.Commit(int(e.Block)*fs.SectorsPerBlock, im.page(e.Frame))
		})
		if err != nil {
			rep.MetaFailed++
		} else {
			rep.MetaRestored++
		}
	}

	// Step 3: fsck the (now metadata-complete) volume. An unreadable or
	// implausible superblock means there is no volume to check: report
	// VolumeLost rather than aborting with an error, so campaign callers
	// can score it as the corruption outcome it is.
	if cp.Point() {
		return rep, kernel.ErrCrashPoint
	}
	fsckRep, err := fs.Fsck(m.Disk)
	if err != nil {
		rep.VolumeLost = true
		return rep, nil
	}
	rep.Fsck = fsckRep

	// Step 4: boot a fresh kernel. Pool frame contents are irrelevant now
	// — everything needed is in the image.
	if cp.Point() {
		return rep, kernel.ErrCrashPoint
	}
	if err := m.Boot(nil); err != nil {
		// The volume passed fsck but still won't mount — e.g. a
		// misdirected write during the restore or fsck's own repairs
		// landed on the superblock. Same outcome as an unfsckable
		// volume: lost, scored by the caller, not an abort.
		rep.VolumeLost = true
		return rep, nil
	}

	// Step 5: user-level restore of UBC pages via normal system calls.
	// Every page is restored or accounted (DataFailed / OrphanData /
	// Salvaged); no failure aborts the loop — the early-return here used
	// to abandon the remaining pages unreported.
	paths, err := inodePaths(m.FS)
	if err != nil {
		// The volume mounted, but its root is not a directory — a write
		// after fsck, misdirected from the restore or from fsck's own
		// repairs, landed on the root inode — so nothing in it is
		// reachable. Same outcome as a superblock that will not mount.
		rep.VolumeLost = true
		return rep, nil
	}
	for _, e := range dataDirty {
		if cp.Point() {
			return rep, kernel.ErrCrashPoint
		}
		page := im.page(e.Frame)
		n := int(e.Size)
		if n > mem.PageSize {
			n = mem.PageSize
		}
		// A file that is gone (its metadata never reached the disk, or fsck
		// removed it) or will not open: salvage the bytes rather than drop
		// them.
		path, ok := paths[e.Ino]
		var f *fs.File
		var err error
		if ok {
			f, err = m.FS.Open(path)
		}
		if !ok || err != nil {
			if salvagePage(m.FS, e, page[:n], rep) {
				rep.Salvaged++
			} else {
				rep.OrphanData++
			}
			continue
		}
		restored := true
		if n > 0 {
			if _, err := f.WriteAt(page[:n], e.Off); err != nil {
				restored = false
			}
		}
		if err := f.Close(); err != nil {
			rep.CloseErrors++
		}
		if restored {
			rep.DataRestored++
		} else {
			rep.DataFailed++
		}
	}
	return rep, nil
}

// salvageDir is where orphaned data pages land.
const salvageDir = "/lost+found"

// salvagePage writes an orphaned dirty page to /lost+found/ino-<n> at its
// original file offset, so several pages of the same lost file reassemble
// into one salvage file. Returns false (and leaves accounting to the
// caller) when the salvage itself fails — e.g. a degraded read-only
// mount, or an offset past the maximum file size.
func salvagePage(fsys *fs.FS, e registry.ParsedEntry, page []byte, rep *Report) bool {
	if _, err := fsys.Stat(salvageDir); err != nil {
		if err := fsys.Mkdir(salvageDir); err != nil {
			return false
		}
	}
	name := fmt.Sprintf("%s/ino-%d", salvageDir, e.Ino)
	f, err := fsys.Open(name)
	if err != nil {
		if f, err = fsys.Create(name); err != nil {
			return false
		}
	}
	ok := true
	if len(page) > 0 {
		if _, err := f.WriteAt(page, e.Off); err != nil {
			ok = false
		}
	}
	if err := f.Close(); err != nil {
		rep.CloseErrors++
	}
	return ok
}

// inodePaths walks the mounted tree building an inode -> path index for the
// user-level UBC restorer. The /lost+found subtree is excluded: salvage
// files from an earlier interrupted attempt must never capture a dirty
// page that happens to share their (fresh) inode number. A regular file
// that holds the name is an ordinary file, restored like any other.
//
// The walk fails only when the root is not a directory (fs.ErrNotDir).
// A subtree whose ReadDir errors (a faulted kernel can leave a dirent
// typed as a directory pointing at a file, and fsck does not cross-check
// dirent type bits) is simply skipped. Pages whose files live under it
// lose their path and fall through to the orphan salvage — quarantined,
// not an aborted recovery.
func inodePaths(fsys *fs.FS) (map[uint32]string, error) {
	out := make(map[uint32]string)
	seen := make(map[uint32]bool) // dir inodes visited: corrupt trees can cycle
	var rootErr error
	var buf []byte // one directory's paths, back to back
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fsys.ReadDir(dir)
		if err == fs.ErrNotDir && dir == "/" {
			rootErr = err
		}
		if err != nil {
			return
		}
		prefix := dir
		if dir == "/" {
			prefix = ""
		}
		// One string holds every path in the directory; each is a
		// substring. buf is free again once it is copied, before any
		// recursion refills it.
		buf = buf[:0]
		for _, e := range ents {
			buf = append(append(append(buf, prefix...), '/'), e.Name...)
		}
		paths, start := string(buf), 0
		for _, e := range ents {
			end := start + len(prefix) + 1 + len(e.Name)
			p := paths[start:end]
			start = end
			if e.IsDir {
				if p != salvageDir && !seen[e.Ino] {
					seen[e.Ino] = true
					walk(p)
				}
			} else {
				out[e.Ino] = p
			}
		}
	}
	walk("/")
	return out, rootErr
}

// Cold performs a cold reboot: memory is lost (scrambled), the volume is
// fsck'd, and a fresh kernel boots. This is the disk-based baseline's
// recovery path — only what reached the disk survives.
func Cold(m *machine.Machine, seed uint64) (fs.FsckReport, error) {
	m.Mem.Scramble(seed)
	rep, err := fs.Fsck(m.Disk)
	if err != nil {
		return rep, err
	}
	if err := m.Boot(nil); err != nil {
		return rep, err
	}
	return rep, nil
}
