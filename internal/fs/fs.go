package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"rio/internal/cache"
	"rio/internal/disk"
	"rio/internal/ioretry"
	"rio/internal/kernel"
	"rio/internal/sim"
)

// Stats counts file-system activity.
type Stats struct {
	Syscalls      uint64
	SyncReads     uint64
	SyncWrites    uint64
	AsyncWrites   uint64
	JournalWrites uint64
	MetaUpdates   uint64
	Fsyncs        uint64
	DaemonRuns    uint64
	ReadFailures  uint64 // block reads that failed after retries (served as zeroes; a bitmap block all-allocated)
	WriteFailures uint64 // block writes/commits lost after retries
	DcacheHits    uint64 // name lookups answered by the dcache
	DcacheMisses  uint64 // name lookups that scanned directory blocks
}

// asyncWrite is a queued disk write whose service time has been charged to
// the disk timeline; its content is applied (Commit) no later than the next
// synchronous disk operation, and is lost (or torn) if the system crashes
// first.
type asyncWrite struct {
	block    int64
	data     []byte
	done     sim.Time
	onCommit func() // runs when the content actually reaches the disk
}

// FS is a mounted file system.
type FS struct {
	K     *kernel.Kernel
	C     *cache.Cache
	D     *disk.Disk
	Clock *sim.Clock
	Pol   Policy
	SB    Superblock

	Stats Stats

	// Retry wraps every disk operation in bounded retries and tracks the
	// mount's error budget; when it degrades, mutating syscalls return
	// ErrReadOnly (see writable).
	Retry *ioretry.Retrier

	diskFree    sim.Time
	lastIO      int64 // last block the head visited (sequentiality pricing)
	pending     []asyncWrite
	lastSteps   uint64
	lastToggles uint64
	lastChecks  uint64
	daemonAt    sim.Time // when the update daemon is next due (see Tick)
	journalHead int64
	inoHint     uint32
	blkHint     int64
	mounted     bool

	// dc is the name-resolution cache (see dcache.go). It is rebuilt
	// empty on every Mount, so crash and warm reboot drop it wholesale.
	dc *dcache

	// bmFree caches, per bitmap block, how many in-range data blocks are
	// free, so balloc can skip exhausted bitmap blocks in O(1). Computed
	// lazily (-1 = unknown) from the block image on first use and kept
	// exact by balloc/bfree; like the dcache it is in-memory state that a
	// remount rebuilds, so crashes cannot stale it.
	bmFree []int

	// readBuf is readBlockSync's reusable transfer buffer: every caller
	// consumes the returned block (unmarshal or cache insert, both copy)
	// before issuing another read, so one buffer serves them all.
	readBuf []byte

	// The image scratch: every 8 KB image of a cache block the mount takes
	// is borrowed from one of these (see image), allocated on first use
	// and valid until that same scratch is next filled. One per role,
	// because the roles nest — dirInsert holds a directory block across
	// bmap, bmap an indirect block across balloc, and metaUpdate's
	// write-through branch runs while its caller's image is still live —
	// but never within a role.
	dirBuf []byte // dirBlock: directory walkers and editors
	inoBuf []byte // putInode: the inode block being rewritten
	bmBuf  []byte // balloc: the bitmap block being scanned
	indBuf []byte // bmap, freeFileBlocks: the indirect block
	outBuf []byte // synchronous write-out: a frame on its way to the disk

	// lsNames and lsEnts are ReadDir's reusable scratch: the listed
	// directory's names back to back, and its entries. ReadDir copies both
	// into what it returns, so a listing costs two objects however long.
	lsNames []byte
	lsEnts  []listEnt

	// blockPool recycles the full-block copies the asynchronous write
	// queue makes: drainPending returns committed buffers here instead of
	// dropping them for the collector.
	blockPool [][]byte
}

// image fills *scratch (one of the FS's per-role block buffers) with b's
// frame and returns it — the trusted raw read a DMA engine would make,
// and the only way the mount images a cache block. The image is valid
// until the same scratch is next filled; riolint's bufalias checks that
// no holder outlives that.
func (f *FS) image(scratch *[]byte, b *cache.Buf) []byte {
	if *scratch == nil {
		*scratch = make([]byte, BlockSize)
	}
	f.C.ContentsAt(b, 0, *scratch)
	return *scratch
}

// blockPoolCap bounds blockPool; beyond this, drained buffers are
// simply dropped (a flushAllAsync burst should not pin the whole cache's
// worth of copies forever).
const blockPoolCap = 64

func (f *FS) getPooledBlock() []byte {
	if n := len(f.blockPool); n > 0 {
		b := f.blockPool[n-1]
		f.blockPool = f.blockPool[:n-1]
		return b
	}
	return make([]byte, BlockSize)
}

func (f *FS) putPooledBlock(b []byte) {
	if cap(b) >= BlockSize && len(f.blockPool) < blockPoolCap {
		f.blockPool = append(f.blockPool, b[:BlockSize])
	}
}

// Errors surfaced by the syscall layer.
var (
	ErrNotFound    = errors.New("fs: no such file or directory")
	ErrExists      = errors.New("fs: file exists")
	ErrNotDir      = errors.New("fs: not a directory")
	ErrIsDir       = errors.New("fs: is a directory")
	ErrNotEmpty    = errors.New("fs: directory not empty")
	ErrNameTooLong = errors.New("fs: name too long")
	ErrNoSpace     = errors.New("fs: no space left on device")
	ErrNoInodes    = errors.New("fs: out of inodes")
	ErrTooBig      = errors.New("fs: file too large")
	ErrClosed      = errors.New("fs: file already closed")
	ErrSymlinkLoop = errors.New("fs: too many levels of symbolic links")
	ErrNotSymlink  = errors.New("fs: not a symbolic link")
	ErrReadOnly    = errors.New("fs: read-only (I/O error budget exhausted)")
)

// writable gates mutating syscalls: once the retry layer's error budget
// is exhausted the mount degrades to read-only — refusing new writes to
// a disk that is eating them beats silently spreading damage.
func (f *FS) writable() error {
	if f.Retry != nil && f.Retry.Degraded() {
		return ErrReadOnly
	}
	return nil
}

// Degraded reports whether the mount has dropped to read-only mode.
func (f *FS) Degraded() bool { return f.Retry != nil && f.Retry.Degraded() }

// Mount attaches a formatted disk. The cache must be freshly constructed;
// Mount installs its write-back callback and, under a policy with an
// update daemon, makes it due one UpdatePeriod from now.
func Mount(k *kernel.Kernel, c *cache.Cache, d *disk.Disk, clock *sim.Clock, pol Policy) (*FS, error) {
	f := &FS{K: k, C: c, D: d, Clock: clock, Pol: pol}
	f.Retry = ioretry.New(ioretry.DefaultPolicy(), clock)
	blk := f.readBlockSync(0)
	if err := f.SB.unmarshal(blk); err != nil {
		return nil, err
	}
	if f.SB.NBlocks != int64(d.NumSectors()/SectorsPerBlock) {
		return nil, fmt.Errorf("fs: superblock claims %d blocks, disk has %d",
			f.SB.NBlocks, d.NumSectors()/SectorsPerBlock)
	}
	f.journalHead = f.SB.JournalStart
	f.blkHint = f.SB.DataStart
	f.inoHint = 2 // root is 1
	f.dc = newDcache()
	// One summary slot per bitmap block that covers the data region.
	nbm := (f.SB.JournalStart-1)/int64(BlockSize*8) + 1
	f.bmFree = make([]int, int(nbm))
	for i := range f.bmFree {
		f.bmFree[i] = -1 // unknown until the bitmap block is first scanned
	}
	c.WriteBack = f.writeBackBuf
	f.daemonAt = clock.Now().Add(pol.UpdatePeriod)
	f.mounted = true
	// Baseline the CPU counters so mount-time work isn't charged twice.
	f.lastSteps = k.Steps()
	f.lastToggles = k.MMU.Stats.ProtToggle
	f.lastChecks = k.MMU.Stats.ProtChecks
	return f, nil
}

// --- time accounting ---

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// chargeCPU converts kernel work since the last charge into simulated time.
func (f *FS) chargeCPU() {
	steps := f.K.Steps()
	d := sim.Duration(int64(steps-f.lastSteps) * stepNs)
	f.lastSteps = steps
	tog := f.K.MMU.Stats.ProtToggle
	d += sim.Duration(tog-f.lastToggles) * protToggleCost
	f.lastToggles = tog
	chk := f.K.MMU.Stats.ProtChecks
	d += sim.Duration(chk-f.lastChecks) * patchCheckCost
	f.lastChecks = chk
	f.Clock.Advance(d)
}

func (f *FS) beginOp() {
	f.Stats.Syscalls++
	f.Clock.Advance(syscallCost)
	// Run a slice of the kernel's background machinery (scheduler,
	// accounting, polling) — see kernel.BackgroundTick. Errors here are
	// crashes; the syscall body will observe them.
	_ = f.K.BackgroundTick()
}

func (f *FS) endOp() {
	f.chargeCPU()
	f.Tick()
}

// --- block I/O ---

func blockSector(block int64) int { return int(block) * SectorsPerBlock }

// checkBlock validates a block number before any disk I/O. Metadata
// corrupted in memory (a fault-injection outcome) can surface as a garbage
// block pointer in an inode or directory; a real kernel's bread() bounds
// check catches it and panics — one more of the consistency checks §3.3
// credits with limiting damage.
func (f *FS) checkBlock(block int64) error {
	if block < 0 || block >= int64(f.D.NumSectors()/SectorsPerBlock) {
		return f.K.Panic(fmt.Sprintf("fs: block number %d out of range", block))
	}
	return nil
}

// retryDo routes a disk operation through the mount's retry layer (a
// direct call when none is attached, e.g. a hand-built test FS).
func (f *FS) retryDo(op func() error) error {
	if f.Retry == nil {
		return op()
	}
	return f.Retry.Do(op)
}

// drainPending applies every queued asynchronous write. By construction the
// disk timeline (diskFree) is at or beyond every queued write's completion,
// and synchronous operations begin at max(now, diskFree), so draining
// everything before a sync op preserves device order. A commit that still
// fails after retries is a lost write: the buffer stays dirty in the
// cache's view of the world but the disk never saw it — fsck or the
// checksum oracle will notice, which is the honest outcome.
func (f *FS) drainPending() {
	for _, w := range f.pending {
		w := w
		err := f.retryDo(func() error {
			return f.D.Commit(blockSector(w.block), w.data)
		})
		if err != nil {
			f.Stats.WriteFailures++
		} else if w.onCommit != nil {
			w.onCommit()
		}
		// Commit copied the bytes into the disk image (and a failed
		// commit abandoned them); either way the queue's copy can back a
		// future asynchronous write.
		f.putPooledBlock(w.data)
	}
	f.pending = f.pending[:0]
}

// readBlockSync reads a block, blocking the caller until the disk is free
// and the transfer completes (including any retries of transient device
// errors, whose backoff runs on the simulated clock). The returned slice
// is the mount's reusable transfer buffer: it is valid only until the
// next readBlockSync call, which every caller satisfies by copying the
// block (cache insert, unmarshal) before reading again.
func (f *FS) readBlockSync(block int64) []byte {
	f.drainPending()
	if f.readBuf == nil {
		f.readBuf = make([]byte, BlockSize)
	}
	buf := f.readBuf
	clear(buf)
	if err := f.checkBlock(block); err != nil {
		// The kernel has panicked; return zeroes so the caller's error
		// path (which checks Crashed) unwinds without touching the disk.
		return buf
	}
	f.Clock.AdvanceTo(maxT(f.Clock.Now(), f.diskFree))
	err := f.retryDo(func() error {
		dur, err := f.D.Read(blockSector(block), buf)
		f.Clock.Advance(dur)
		return err
	})
	f.diskFree = f.Clock.Now()
	f.lastIO = block
	f.Stats.SyncReads++
	if err != nil {
		// Unreadable even after retries (latent sector, or budget-bounded
		// transients): serve zeroes, the same contract as the checkBlock
		// panic path. The loss is visible to checksums and the oracle.
		// An allocation-bitmap block is served all-allocated instead:
		// zeroes would read every block it covers as free, so balloc
		// would hand out blocks files still hold and bfree would refuse
		// theirs as double frees. Its free blocks leak until the next
		// fsck rebuilds the bitmap.
		f.Stats.ReadFailures++
		if block >= f.SB.BitmapStart && block < f.SB.DataStart {
			for i := range buf {
				buf[i] = 0xFF
			}
		}
	}
	return buf
}

// writeBufSync writes b's current contents to block synchronously. The
// frame goes out through the write-out scratch, which is not one of the
// role scratches because metaUpdate's write-through branch comes here
// while its caller still holds the image it edited; disk.Write copies.
func (f *FS) writeBufSync(block int64, b *cache.Buf) {
	data := f.image(&f.outBuf, b)
	f.drainPending()
	if err := f.checkBlock(block); err != nil {
		return
	}
	f.Clock.AdvanceTo(maxT(f.Clock.Now(), f.diskFree))
	err := f.retryDo(func() error {
		dur, err := f.D.Write(blockSector(block), data)
		f.Clock.Advance(dur)
		return err
	})
	f.diskFree = f.Clock.Now()
	f.lastIO = block
	f.Stats.SyncWrites++
	if err != nil {
		f.Stats.WriteFailures++
	}
}

// writeBufAsync queues a write of b's current contents to block (its own
// disk address, or the journal head): the caller does not wait, the disk
// timeline absorbs the service time, and the content lands at the next
// drain (or is lost in a crash). The queue's pooled block is filled
// straight from the frame — one copy, no intermediate image. Runs of
// consecutive blocks get sequential pricing — the batching advantage that
// makes delayed writes and journal appends cheap. onCommit, if any, runs
// when (and only if) the content reaches the disk — a crash drops
// uncommitted writes along with their callbacks.
func (f *FS) writeBufAsync(block int64, b *cache.Buf, onCommit func()) {
	if f.Pol.neverWrite() {
		return
	}
	if err := f.checkBlock(block); err != nil {
		return
	}
	seq := block == f.lastIO+1 || block == f.lastIO
	cp := f.getPooledBlock()
	f.C.ContentsAt(b, 0, cp)
	start := maxT(f.Clock.Now(), f.diskFree)
	f.diskFree = start.Add(disk.ServiceTime(seq, BlockSize))
	f.lastIO = block
	//riolint:bufalias sanctioned custody transfer: the pending queue owns this private copy until drainPending releases it back to the pool
	f.pending = append(f.pending, asyncWrite{block: block, data: cp, done: f.diskFree, onCommit: onCommit})
	f.Stats.AsyncWrites++
}

// CrashIO models the device's view of a crash: queued writes that had
// completed by now are on disk; the one in flight is torn; the rest are
// lost. Called by the crash-test harness.
func (f *FS) CrashIO(rng *sim.Rand) {
	now := f.Clock.Now()
	i := 0
	for ; i < len(f.pending) && f.pending[i].done <= now; i++ {
		// No retry loop at crash time: a write the dying device rejects
		// is simply lost, like the rest of the queue.
		if f.D.Commit(blockSector(f.pending[i].block), f.pending[i].data) != nil {
			continue
		}
		if cb := f.pending[i].onCommit; cb != nil {
			cb()
		}
	}
	if i < len(f.pending) {
		f.D.Tear(blockSector(f.pending[i].block), rng)
	}
	f.pending = nil
}

// OnPanic is the stock kernel's dying gasp: flush dirty buffers to disk.
// Rio's modified panic (and MFS) skips this; a hung kernel never gets here.
// Contents go out as they are in memory — if a wild store corrupted them,
// the corruption is now on disk, which is exactly how several of the
// paper's "disk corrupted" runs happened.
func (f *FS) OnPanic() {
	if !f.Pol.panicFlushes() {
		return
	}
	for _, kind := range []cache.Kind{cache.Meta, cache.Data} {
		for _, b := range f.C.DirtyBufs(kind) {
			if b.Block >= 0 {
				// Best effort from a dying kernel: a rejected write is lost.
				_ = f.D.Commit(blockSector(b.Block), f.image(&f.outBuf, b))
			}
		}
	}
}

// --- update daemon ---

// Tick runs the update daemon if it is due, and makes it due again one
// UpdatePeriod from now. Every syscall ends with a Tick, so the daemon runs
// at most once per syscall, at the first one that ends at or after its
// deadline; a test that advances the clock between syscalls calls it too.
func (f *FS) Tick() {
	if !f.mounted || f.Pol.UpdatePeriod <= 0 || f.Clock.Now() < f.daemonAt {
		return
	}
	f.runUpdateDaemon()
	f.daemonAt = f.Clock.Now().Add(f.Pol.UpdatePeriod)
}

// runUpdateDaemon flushes all dirty buffers asynchronously, like update(8)
// calling sync every 30 seconds.
func (f *FS) runUpdateDaemon() {
	f.Stats.DaemonRuns++
	f.flushAllAsync()
	if f.Pol.metaJournal() {
		// Checkpoint: in-place metadata is now current; recycle the log.
		f.journalHead = f.SB.JournalStart
	}
}

func (f *FS) flushAllAsync() {
	for _, kind := range []cache.Kind{cache.Meta, cache.Data} {
		for _, b := range f.C.DirtyBufs(kind) {
			if b.Block < 0 {
				continue
			}
			// The buffer stays dirty until the write actually completes:
			// a crash that drops the queue must leave the buffer dirty so
			// warm reboot still restores it. The generation check skips
			// the clean-down if the buffer was rewritten meanwhile.
			b := b
			gen := b.Gen
			f.writeBufAsync(b.Block, b, func() {
				if b.Gen == gen {
					_ = f.C.MarkClean(b)
				}
			})
		}
	}
}

// writeBackBuf is the cache's eviction callback. Under Rio the write is
// synchronous: an evicted buffer's frame is reused immediately, so its
// content must be safe on disk before the memory copy disappears — this
// is the one disk write Rio ever does ("only when the cache overflows").
// Other policies evict through the asynchronous queue, accepting (as their
// real counterparts did) that a crash loses queued write-backs.
func (f *FS) writeBackBuf(b *cache.Buf) error {
	if f.Pol.neverWrite() {
		return fmt.Errorf("fs: memory file system out of cache space")
	}
	if b.Block < 0 {
		return fmt.Errorf("fs: dirty buffer with no disk address")
	}
	if f.Pol.syncIsNoop() {
		f.writeBufSync(b.Block, b)
	} else {
		f.writeBufAsync(b.Block, b, nil)
	}
	return f.C.MarkClean(b)
}

// --- metadata buffers ---

// metaBuf returns the cached buffer for a metadata block, reading it from
// disk on a miss.
func (f *FS) metaBuf(block int64) (*cache.Buf, error) {
	if b := f.C.LookupMeta(block); b != nil {
		return b, nil
	}
	content := f.readBlockSync(block)
	if c := f.K.Crashed(); c != nil {
		return nil, c
	}
	return f.C.InsertMeta(block, content)
}

// metaUpdate installs a new full-block image for a metadata buffer and
// applies the policy's disk behaviour. Under Rio the in-memory update is
// made atomic with a shadow page, because the buffer cache is now the
// permanent copy (§2.3: "metadata updates in the buffer cache must be as
// carefully ordered as those to disk").
//
// ordered marks updates whose on-disk ordering UFS enforces with
// synchronous writes: namespace changes and inode initialisation/free
// [Ganger94]. Unordered metadata (allocation bitmaps, inode size growth,
// indirect blocks) is written back asynchronously even by default UFS —
// that distinction is much of why UFS beats the write-through mounts.
func (f *FS) metaUpdate(b *cache.Buf, img []byte, ordered bool) error {
	f.Stats.MetaUpdates++
	var err error
	if f.Pol.metaShadow() {
		err = f.C.WriteShadow(b, img)
	} else {
		err = f.C.Write(b, 0, img, BlockSize)
	}
	if err != nil {
		return err
	}
	switch {
	case f.Pol.neverWrite():
	case f.Pol.metaSync() && ordered:
		f.writeBufSync(b.Block, b)
		return f.C.MarkClean(b)
	case f.Pol.metaJournal() && ordered:
		f.journalAppend(b)
	}
	return nil
}

// metaPatch applies a single-byte unordered metadata change: it pushes
// val to offset off of the block through the sanctioned protected-write
// path, so a one-bit bitmap flip does not pay metaUpdate's full-block
// copy (and, under Rio, its shadow-page protocol). No shadow is needed
// for atomicity: a one-byte copy cannot tear, and the registry's changing
// flag still brackets the window. Bitmap state is unordered metadata (see
// metaUpdate), so there is no synchronous write and no journal append.
func (f *FS) metaPatch(b *cache.Buf, off int64, val byte) error {
	f.Stats.MetaUpdates++
	v := [1]byte{val}
	return f.C.Write(b, int(off), v[:], BlockSize)
}

// DropCaches flushes every dirty buffer synchronously and empties both
// caches — the benchmark cold-cache control (a freshly booted machine
// whose tree sits on disk). Memory-only policies keep their caches: for
// MFS the cache IS the storage, and Rio's file cache survives reboots by
// design, which is precisely why Rio reads stay warm in Table 2.
func (f *FS) DropCaches() error {
	if f.Pol.neverWrite() || f.Pol.Kind == PolicyRio {
		return nil
	}
	for _, kind := range []cache.Kind{cache.Meta, cache.Data} {
		for _, b := range f.C.DirtyBufs(kind) {
			if b.Block >= 0 {
				f.writeBufSync(b.Block, b)
				if err := f.C.MarkClean(b); err != nil {
					return err
				}
			}
		}
		for _, b := range f.C.All(kind) {
			if err := f.C.Remove(b); err != nil {
				return err
			}
		}
	}
	f.drainPending()
	return nil
}

// journalAppend logs a metadata block's current image sequentially. Every fourth
// append is a group commit: the caller waits for the log to reach the
// platter, which is what bounds a journaling file system's metadata loss
// window and what keeps it measurably slower than pure delayed writes.
func (f *FS) journalAppend(b *cache.Buf) {
	if f.SB.JournalStart >= f.SB.NBlocks {
		return // no journal region; fall back to delayed behaviour
	}
	f.Stats.JournalWrites++
	if f.Stats.JournalWrites%4 == 0 {
		f.writeBufSync(f.journalHead, b)
	} else {
		f.writeBufAsync(f.journalHead, b, nil)
	}
	f.journalHead++
	if f.journalHead >= f.SB.NBlocks {
		f.journalHead = f.SB.JournalStart // wrap
	}
}

// --- inodes ---

func (f *FS) inodeBlock(ino uint32) int64 {
	return f.SB.InodeStart + int64(ino)/InodesPerBlock
}

func (f *FS) getInode(ino uint32) (Inode, error) {
	if ino == 0 || int64(ino) >= f.SB.NInodes {
		return Inode{}, fmt.Errorf("fs: bad inode %d", ino)
	}
	b, err := f.metaBuf(f.inodeBlock(ino))
	if err != nil {
		return Inode{}, err
	}
	// Narrow read: one inode's bytes, not a copy of the whole block.
	var raw [InodeSize]byte
	f.C.ContentsAt(b, (int(ino)%InodesPerBlock)*InodeSize, raw[:])
	var n Inode
	n.unmarshal(raw[:])
	return n, nil
}

// putInode writes an inode back. ordered is true for inode
// initialisation/free (namespace-ordering metadata); size and pointer
// growth from writes is unordered.
func (f *FS) putInode(ino uint32, n *Inode, ordered bool) error {
	b, err := f.metaBuf(f.inodeBlock(ino))
	if err != nil {
		return err
	}
	img := f.image(&f.inoBuf, b)
	off := (int(ino) % InodesPerBlock) * InodeSize
	n.marshal(img[off : off+InodeSize])
	return f.metaUpdate(b, img, ordered)
}

// ialloc finds a free inode and claims it with the given mode.
func (f *FS) ialloc(mode uint32) (uint32, error) {
	for probe := int64(0); probe < f.SB.NInodes; probe++ {
		ino := uint32((int64(f.inoHint) + probe) % f.SB.NInodes)
		if ino <= 1 { // 0 invalid, 1 root
			continue
		}
		n, err := f.getInode(ino)
		if err != nil {
			return 0, err
		}
		if n.Mode == ModeFree {
			f.inoHint = ino + 1
			n = Inode{Mode: mode, Nlink: 1}
			if err := f.putInode(ino, &n, true); err != nil {
				return 0, err
			}
			return ino, nil
		}
	}
	return 0, ErrNoInodes
}

// --- block allocator ---

const bitsPerBmBlock = int64(BlockSize * 8)

func (f *FS) bitmapBlockOf(block int64) (int64, int64) {
	return f.SB.BitmapStart + block/bitsPerBmBlock, block % bitsPerBmBlock
}

// firstZeroBit returns the index of the first clear bit in img within
// [from, to), or -1. Bit b of the image is img[b/8]&(1<<(b%8)), so a
// little-endian 64-bit load lines image bit (w*64+k) up with word bit k
// and a whole word of allocated blocks is rejected in one compare.
func firstZeroBit(img []byte, from, to int64) int64 {
	for from < to {
		w := from >> 6
		inv := ^binary.LittleEndian.Uint64(img[w*8:])
		inv &= ^uint64(0) << uint(from&63)
		if end := (w + 1) << 6; end > to {
			inv &= uint64(1)<<uint(to&63) - 1
		}
		if inv != 0 {
			return w<<6 + int64(bits.TrailingZeros64(inv))
		}
		from = (w + 1) << 6
	}
	return -1
}

// countBmFree counts the free data blocks covered by bitmap block index
// bi. Only bits inside [DataStart, JournalStart) are counted — bits
// outside never change on a mounted FS (bfree rejects non-data blocks),
// so the count stays exact under balloc's decrements and bfree's
// increments.
func (f *FS) countBmFree(bi int, img []byte) int {
	base := int64(bi) * bitsPerBmBlock
	lo, hi := base, base+bitsPerBmBlock
	if lo < f.SB.DataStart {
		lo = f.SB.DataStart
	}
	if hi > f.SB.JournalStart {
		hi = f.SB.JournalStart
	}
	free := 0
	for blk := lo; blk < hi; blk++ {
		bit := blk - base
		if img[bit/8]&(1<<(bit%8)) == 0 {
			free++
		}
	}
	return free
}

// balloc claims a free data block: cyclic first-fit from blkHint, the
// same order as the bit-at-a-time scan it replaces (an equivalence test
// pins the sequence), but exhausted bitmap blocks are skipped in O(1)
// via the bmFree summary and live candidates are scanned a word at a
// time.
func (f *FS) balloc() (int64, error) {
	start := f.blkHint
	if start < f.SB.DataStart || start >= f.SB.JournalStart {
		start = f.SB.DataStart
	}
	segs := [2][2]int64{{start, f.SB.JournalStart}, {f.SB.DataStart, start}}
	for _, seg := range segs {
		for blk := seg[0]; blk < seg[1]; {
			bb, _ := f.bitmapBlockOf(blk)
			bi := int(bb - f.SB.BitmapStart)
			base := int64(bi) * bitsPerBmBlock
			cover := base + bitsPerBmBlock // first block past this bitmap block
			end := seg[1]
			if cover < end {
				end = cover
			}
			if bi < len(f.bmFree) && f.bmFree[bi] == 0 {
				blk = cover
				continue
			}
			b, err := f.metaBuf(bb)
			if err != nil {
				return 0, err
			}
			img := f.image(&f.bmBuf, b)
			if bi < len(f.bmFree) && f.bmFree[bi] < 0 {
				f.bmFree[bi] = f.countBmFree(bi, img)
				if f.bmFree[bi] == 0 {
					blk = cover
					continue
				}
			}
			if bit := firstZeroBit(img, blk-base, end-base); bit >= 0 {
				block := base + bit
				if err := f.metaPatch(b, bit/8, img[bit/8]|1<<(bit%8)); err != nil {
					return 0, err
				}
				if bi < len(f.bmFree) && f.bmFree[bi] > 0 {
					f.bmFree[bi]--
				}
				f.blkHint = block + 1
				return block, nil
			}
			blk = end
		}
	}
	return 0, ErrNoSpace
}

// bfree releases a data block.
func (f *FS) bfree(block int64) error {
	if block < f.SB.DataStart || block >= f.SB.JournalStart {
		return fmt.Errorf("fs: bfree of non-data block %d", block)
	}
	bb, bit := f.bitmapBlockOf(block)
	b, err := f.metaBuf(bb)
	if err != nil {
		return err
	}
	// One bit changes, so one byte is read: no block image.
	var cur [1]byte
	f.C.ContentsAt(b, int(bit/8), cur[:])
	if cur[0]&(1<<(bit%8)) == 0 {
		return fmt.Errorf("fs: double free of block %d", block)
	}
	if bi := int(bb - f.SB.BitmapStart); bi < len(f.bmFree) && f.bmFree[bi] >= 0 {
		f.bmFree[bi]++
	}
	return f.metaPatch(b, bit/8, cur[0]&^(1<<(bit%8)))
}

// --- file block mapping ---

// bmap resolves fileBlock to a disk block, allocating (and updating the
// inode in memory — caller must putInode) when alloc is set. Returns 0 for
// an unallocated hole when !alloc.
func (f *FS) bmap(n *Inode, fileBlock int64, alloc bool, inodeDirty *bool) (int64, error) {
	if fileBlock < 0 || fileBlock >= MaxFileBlocks {
		return 0, ErrTooBig
	}
	if fileBlock < NDirect {
		if n.Direct[fileBlock] == 0 {
			if !alloc {
				return 0, nil
			}
			blk, err := f.balloc()
			if err != nil {
				return 0, err
			}
			n.Direct[fileBlock] = int32(blk)
			*inodeDirty = true
		}
		return int64(n.Direct[fileBlock]), nil
	}
	// Indirect.
	if n.Indirect == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := f.balloc()
		if err != nil {
			return 0, err
		}
		n.Indirect = int32(blk)
		*inodeDirty = true
		// Fresh indirect block: all zero.
		if _, err := f.C.InsertMeta(blk, nil); err != nil {
			return 0, err
		}
	}
	ib, err := f.metaBuf(int64(n.Indirect))
	if err != nil {
		return 0, err
	}
	// A lookup reads the one pointer; only an allocation, which rewrites
	// the block, takes its image (held across balloc, whose scratch is the
	// bitmap's).
	idx := int(fileBlock-NDirect) * 4
	var raw [4]byte
	f.C.ContentsAt(ib, idx, raw[:])
	if ptr := binary.LittleEndian.Uint32(raw[:]); ptr != 0 {
		return int64(ptr), nil
	}
	if !alloc {
		return 0, nil
	}
	img := f.image(&f.indBuf, ib)
	blk, err := f.balloc()
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(img[idx:], uint32(blk))
	if err := f.metaUpdate(ib, img, false); err != nil {
		return 0, err
	}
	return blk, nil
}

// freeFileBlocks releases every block of an inode (unlink/truncate-to-0).
func (f *FS) freeFileBlocks(n *Inode) error {
	for i := range n.Direct {
		if n.Direct[i] != 0 {
			if err := f.bfree(int64(n.Direct[i])); err != nil {
				return err
			}
			n.Direct[i] = 0
		}
	}
	if n.Indirect != 0 {
		ib, err := f.metaBuf(int64(n.Indirect))
		if err != nil {
			return err
		}
		img := f.image(&f.indBuf, ib)
		for e := 0; e < PtrsPerBlock; e++ {
			if ptr := binary.LittleEndian.Uint32(img[e*4:]); ptr != 0 {
				if err := f.bfree(int64(ptr)); err != nil {
					return err
				}
			}
		}
		// Drop the indirect block's cache entry and free it.
		if err := f.C.Remove(ib); err != nil {
			return err
		}
		if err := f.bfree(int64(n.Indirect)); err != nil {
			return err
		}
		n.Indirect = 0
	}
	return nil
}

// PendingWrites returns the number of queued asynchronous writes.
func (f *FS) PendingWrites() int { return len(f.pending) }
