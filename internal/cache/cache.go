// Package cache implements the two file caches of the simulated Digital
// Unix kernel:
//
//   - the traditional buffer cache, holding metadata blocks (superblock,
//     inodes, bitmap, directories) in wired virtual memory, and
//   - the Unified Buffer Cache (UBC), holding regular-file data pages and
//     addressed through KSEG physical addresses — which is why Rio has to
//     force KSEG through the TLB to protect the bulk of the file cache.
//
// Every mutation of a cached buffer flows through the kernel's sanctioned
// write path (write_block in kernel text) with Rio's discipline layered
// around it: mark the registry entry "changing", open the frame's write
// permission, copy, recompute the checksum, close the permission, clear
// "changing". A wild store that bypasses this path either traps (protection
// on) or leaves a checksum mismatch behind (protection off) — the two
// outcomes Table 1 measures.
package cache

import (
	"cmp"
	"fmt"
	"slices"

	"rio/internal/kernel"
	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/registry"
)

// BlockSize is the file-system block size: one page, as on the paper's
// Alphas.
const BlockSize = mem.PageSize

// Kind distinguishes the two caches.
type Kind int

const (
	// Meta is the traditional buffer cache (virtual addresses).
	Meta Kind = iota
	// Data is the UBC (KSEG physical addresses).
	Data
)

func (k Kind) String() string {
	if k == Meta {
		return "meta"
	}
	return "data"
}

// DataKey identifies a UBC page.
type DataKey struct {
	Ino       uint32
	FileBlock int64
}

// Buf is a cached block.
type Buf struct {
	Kind      Kind
	Block     int64  // disk block number (meta always; data once allocated)
	Ino       uint32 // owning inode (data)
	FileBlock int64  // block index within the file (data)
	Frame     int    // physical frame
	Addr      uint64 // kernel address: virtual (meta) or KSEG (data)
	Hdr       uint64 // persistent buffer header in the kernel heap
	Lock      kernel.LockID
	Slot      int // registry slot
	Dirty     bool
	Size      int // valid bytes (≤ BlockSize)
	// Gen counts content updates and the removal; write-back completion
	// callbacks use it to avoid marking a since-redirtied or removed
	// buffer clean.
	Gen uint64

	prev, next *Buf // LRU neighbours in the pool (toward front, toward back)
}

// Off returns the byte offset of a data buffer within its file.
func (b *Buf) Off() int64 { return b.FileBlock * BlockSize }

// Stats counts cache activity.
type Stats struct {
	MetaHits, MetaMisses uint64
	DataHits, DataMisses uint64
	Evictions            uint64
	WriteBacks           uint64
	ShadowWrites         uint64
	// ShadowFallbacks counts WriteShadow calls that found no spare
	// metadata frame for the shadow and degraded to a plain Write: that
	// update was not atomic against a crash, so anything but 0 means the
	// frame budget is too tight for the paper's metadata guarantee.
	ShadowFallbacks uint64
}

// Cache manages both pools.
type Cache struct {
	K   *kernel.Kernel
	Reg *registry.Registry

	// Protect toggles Rio's frame write protection around sanctioned
	// writes (and keeps idle buffers protected).
	Protect bool

	// Checksums maintains per-buffer content checksums in the registry.
	// Crash campaigns turn this on (it is how direct corruption is
	// detected); performance runs may turn it off.
	Checksums bool

	// MetaCap and DataCap bound the pools in pages; inserting beyond a
	// cap evicts (writing back dirty victims through WriteBack).
	MetaCap, DataCap int

	// WriteBack is the file system's callback for flushing one dirty
	// buffer to disk; it must leave the buffer clean (call MarkClean).
	WriteBack func(*Buf) error

	Stats Stats

	meta    map[int64]*Buf
	data    map[DataKey]*Buf
	metaLRU lru
	dataLRU lru

	victims []*Buf // DropFileData's reusable scratch

	// bufs is the unused rest of the chunk insert carves Bufs from. A
	// removed Buf is never reused: a write-back completion may still
	// hold it, and must see its own stale Gen, not the next occupant's.
	bufs []Buf
}

// bufChunk is how many Bufs insert allocates at a time.
const bufChunk = 32

// lru is one pool's recency order, threaded through the Bufs themselves
// (Buf.prev/next, as the fs dcache threads its node slab), so caching a
// block allocates no list element. front is the most recently used
// buffer, back the next eviction victim.
type lru struct {
	front, back *Buf
	n           int
}

// has reports whether b is on l: every member but the front has a prev.
func (l *lru) has(b *Buf) bool { return b.prev != nil || l.front == b }

func (l *lru) pushFront(b *Buf) {
	b.prev, b.next = nil, l.front
	if l.front != nil {
		l.front.prev = b
	} else {
		l.back = b
	}
	l.front = b
	l.n++
}

// remove unlinks b; like container/list's Remove, a no-op for a buffer
// not on l.
func (l *lru) remove(b *Buf) {
	if !l.has(b) {
		return
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.front = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.back = b.prev
	}
	b.prev, b.next = nil, nil
	l.n--
}

// moveToFront makes b the most recently used; like container/list's
// MoveToFront, a no-op for a buffer not on l (a stale handle to a
// removed buffer stays out).
func (l *lru) moveToFront(b *Buf) {
	if b.prev != nil { // on l, and not already its front
		l.remove(b)
		l.pushFront(b)
	}
}

// New returns an empty cache over k and reg.
func New(k *kernel.Kernel, reg *registry.Registry, metaCap, dataCap int) *Cache {
	if metaCap <= 0 || dataCap <= 0 {
		panic("cache: non-positive capacity")
	}
	return &Cache{
		K: k, Reg: reg,
		MetaCap: metaCap, DataCap: dataCap,
		meta: make(map[int64]*Buf),
		data: make(map[DataKey]*Buf),
	}
}

// LookupMeta returns the cached buffer for a disk block, if present.
func (c *Cache) LookupMeta(block int64) *Buf {
	b := c.meta[block]
	if b != nil {
		c.Stats.MetaHits++
		c.touch(b)
	} else {
		c.Stats.MetaMisses++
	}
	return b
}

// LookupData returns the cached UBC page for (ino, fileBlock), if present.
func (c *Cache) LookupData(ino uint32, fileBlock int64) *Buf {
	b := c.data[DataKey{ino, fileBlock}]
	if b != nil {
		c.Stats.DataHits++
		c.touch(b)
	} else {
		c.Stats.DataMisses++
	}
	return b
}

func (c *Cache) touch(b *Buf) { c.lruOf(b.Kind).moveToFront(b) }

func (c *Cache) lruOf(k Kind) *lru {
	if k == Meta {
		return &c.metaLRU
	}
	return &c.dataLRU
}

func (c *Cache) capOf(k Kind) int {
	if k == Meta {
		return c.MetaCap
	}
	return c.DataCap
}

// Len returns the number of buffers in a pool.
func (c *Cache) Len(k Kind) int { return c.lruOf(k).n }

// evictFor makes room in the pool for one more buffer.
func (c *Cache) evictFor(k Kind) error {
	l := c.lruOf(k)
	for l.n >= c.capOf(k) {
		victim := l.back
		if victim == nil {
			return fmt.Errorf("cache: %s pool empty but over cap", k)
		}
		if victim.Dirty {
			if c.WriteBack == nil {
				return fmt.Errorf("cache: dirty eviction with no WriteBack")
			}
			if err := c.WriteBack(victim); err != nil {
				return err
			}
		}
		c.Stats.Evictions++
		if err := c.Remove(victim); err != nil {
			return err
		}
	}
	return nil
}

// insert builds a Buf around a fresh frame containing content (or zeroes).
func (c *Cache) insert(kind Kind, content []byte, size int) (*Buf, error) {
	if err := c.evictFor(kind); err != nil {
		return nil, err
	}
	class := kernel.FrameMeta
	if kind == Data {
		class = kernel.FrameUBC
	}
	frame := c.K.AllocFrame(class)
	if frame < 0 {
		return nil, fmt.Errorf("cache: out of physical frames")
	}
	// DMA-style initial fill: raw write, as a disk controller would,
	// straight into the frame. Content may be shorter than a block (or nil
	// for a fresh zero page); the rest of the frame is zeroed.
	page := c.K.Mem.Slice(mem.FrameBase(frame), BlockSize)
	clear(page[copy(page, content):])
	c.K.Mem.Frame(frame).FileCache = true

	var addr uint64
	if kind == Meta {
		addr = c.K.MapDyn(frame, true)
	} else {
		addr = mmu.PhysToKSEG(mem.FrameBase(frame))
	}
	lock := c.K.NewLockID()
	hdr, err := c.K.NewBufHdr(addr, lock)
	if err != nil {
		return nil, err
	}
	if len(c.bufs) == 0 {
		c.bufs = make([]Buf, bufChunk)
	}
	b := &c.bufs[0]
	c.bufs = c.bufs[1:]
	*b = Buf{
		Kind: kind, Frame: frame, Addr: addr, Hdr: hdr, Lock: lock,
		Size: size, Block: -1,
	}
	if c.Protect {
		c.K.MMU.SetFrameProtection(frame, true)
	}
	return b, nil
}

func (c *Cache) cksum(b *Buf) (uint64, error) {
	if !c.Checksums {
		return 0, nil
	}
	return c.K.CksumTrusted(b.Addr, BlockSize)
}

// InsertMeta caches a metadata block with the given initial content.
func (c *Cache) InsertMeta(block int64, content []byte) (*Buf, error) {
	if old := c.meta[block]; old != nil {
		return nil, fmt.Errorf("cache: meta block %d already cached", block)
	}
	b, err := c.insert(Meta, content, BlockSize)
	if err != nil {
		return nil, err
	}
	b.Block = block
	ck, err := c.cksum(b)
	if err != nil {
		return nil, err
	}
	slot, err := c.Reg.Alloc(registry.Entry{
		Kind: registry.KindMeta, Frame: uint32(b.Frame),
		Size: uint32(b.Size), Block: block, Cksum: ck,
	})
	if err != nil {
		return nil, err
	}
	b.Slot = slot
	c.meta[block] = b
	c.metaLRU.pushFront(b)
	return b, nil
}

// InsertData caches a UBC page for (ino, fileBlock) stored at diskBlock
// (-1 if no disk block assigned yet) with the given content and valid size.
func (c *Cache) InsertData(ino uint32, fileBlock int64, diskBlock int64, content []byte, size int) (*Buf, error) {
	key := DataKey{ino, fileBlock}
	if old := c.data[key]; old != nil {
		return nil, fmt.Errorf("cache: data page %v already cached", key)
	}
	b, err := c.insert(Data, content, size)
	if err != nil {
		return nil, err
	}
	b.Ino = ino
	b.FileBlock = fileBlock
	b.Block = diskBlock
	ck, err := c.cksum(b)
	if err != nil {
		return nil, err
	}
	slot, err := c.Reg.Alloc(registry.Entry{
		Kind: registry.KindData, Frame: uint32(b.Frame), Ino: ino,
		Size: uint32(size), Block: diskBlock, Off: b.Off(), Cksum: ck,
	})
	if err != nil {
		return nil, err
	}
	b.Slot = slot
	c.data[key] = b
	c.dataLRU.pushFront(b)
	return b, nil
}

// Write copies data into the buffer at off through the sanctioned kernel
// path, with the full Rio discipline. validSize is the buffer's valid length
// after the write (for data pages, min(BlockSize, fileSize-pageOff)).
func (c *Cache) Write(b *Buf, off int, data []byte, validSize int) error {
	if off < 0 || off+len(data) > BlockSize || validSize > BlockSize {
		panic(fmt.Sprintf("cache: bad write [%d,+%d) valid=%d", off, len(data), validSize))
	}
	// 1. Mark changing + dirty in the registry. If we crash mid-copy the
	// flag tells warm reboot this buffer cannot be classified by checksum.
	err := c.Reg.Mutate(b.Slot, func(e *registry.Entry) {
		e.Flags |= registry.FlagChanging | registry.FlagDirty
		e.Size = uint32(validSize)
	})
	if err != nil {
		return err
	}
	// 2. Stage and copy through write_block.
	src := c.K.StageIn(data)
	if err := c.K.SetBufHdrOp(b.Hdr, len(data), src, off); err != nil {
		return err
	}
	if c.Protect {
		c.K.MMU.SetFrameProtection(b.Frame, false)
	}
	werr := c.K.WriteBlock(b.Hdr)
	if c.Protect && c.K.Crashed() == nil {
		c.K.MMU.SetFrameProtection(b.Frame, true)
	}
	if werr != nil {
		return werr
	}
	// 3. New checksum; clear changing.
	ck, err := c.cksum(b)
	if err != nil {
		return err
	}
	err = c.Reg.Mutate(b.Slot, func(e *registry.Entry) {
		e.Flags &^= registry.FlagChanging
		e.Cksum = ck
	})
	if err != nil {
		return err
	}
	b.Dirty = true
	b.Gen++
	b.Size = validSize
	c.touch(b)
	return nil
}

// WriteShadow atomically replaces a metadata buffer's full contents using
// Rio's shadow-page protocol (§2.3): the registry is pointed at a shadow
// copy of the old contents while the original is rewritten, so a crash at
// any instant leaves a complete old or complete new block for warm reboot.
func (c *Cache) WriteShadow(b *Buf, data []byte) error {
	if len(data) != BlockSize {
		panic("cache: WriteShadow requires a full block")
	}
	if b.Kind != Meta {
		panic("cache: WriteShadow is for metadata buffers")
	}
	shadow := c.K.AllocFrame(kernel.FrameMeta)
	if shadow < 0 {
		// Degrade to a plain (non-atomic) write rather than fail, and say so.
		c.Stats.ShadowFallbacks++
		return c.Write(b, 0, data, BlockSize)
	}
	c.Stats.ShadowWrites++
	shadowAddr := mmu.PhysToKSEG(mem.FrameBase(shadow))
	// Copy old contents to the shadow.
	if err := c.K.BCopy(shadowAddr, b.Addr, BlockSize); err != nil {
		return err
	}
	c.K.Mem.Frame(shadow).FileCache = true
	if c.Protect {
		c.K.MMU.SetFrameProtection(shadow, true)
	}
	// Point the registry at the shadow (old, consistent contents).
	if err := c.Reg.Mutate(b.Slot, func(e *registry.Entry) {
		e.Frame = uint32(shadow)
	}); err != nil {
		return err
	}
	// Rewrite the original through the sanctioned path. No changing flag:
	// the registry references the stable shadow throughout.
	src := c.K.StageIn(data)
	if err := c.K.SetBufHdrOp(b.Hdr, BlockSize, src, 0); err != nil {
		return err
	}
	if c.Protect {
		c.K.MMU.SetFrameProtection(b.Frame, false)
	}
	werr := c.K.WriteBlock(b.Hdr)
	if c.Protect && c.K.Crashed() == nil {
		c.K.MMU.SetFrameProtection(b.Frame, true)
	}
	if werr != nil {
		return werr
	}
	ck, err := c.cksum(b)
	if err != nil {
		return err
	}
	// Atomically point the registry back at the rewritten original.
	if err := c.Reg.Mutate(b.Slot, func(e *registry.Entry) {
		e.Frame = uint32(b.Frame)
		e.Cksum = ck
		e.Flags |= registry.FlagDirty
	}); err != nil {
		return err
	}
	c.K.FreeFrame(shadow)
	b.Dirty = true
	b.Gen++
	c.touch(b)
	return nil
}

// ReadInto copies len(dst) bytes at off out of the buffer, through the
// sanctioned read path, into a caller-supplied buffer.
func (c *Cache) ReadInto(b *Buf, off int, dst []byte) error {
	n := len(dst)
	if off < 0 || off+n > BlockSize {
		panic(fmt.Sprintf("cache: bad read [%d,+%d)", off, n))
	}
	if err := c.K.SetBufHdrOp(b.Hdr, n, kernel.StagingBase, off); err != nil {
		return err
	}
	if err := c.K.ReadBlock(b.Hdr); err != nil {
		return err
	}
	c.touch(b)
	c.K.StageOutInto(dst)
	return nil
}

// ReadDirect copies len(dst) bytes at off out of the buffer's cache frame
// straight into dst — the zero-staging serving path. Unlike ReadInto it
// skips the kernel's staging bounce (one copy instead of two), the way a
// NIC would DMA out of the protected frame; unlike ContentsAt it is a
// real cache read: it refuses to serve from a crashed kernel, keeps LRU
// parity with the staged path, and charges the simulator for the copy.
func (c *Cache) ReadDirect(b *Buf, off int, dst []byte) error {
	if off < 0 || off+len(dst) > BlockSize {
		panic(fmt.Sprintf("cache: bad direct read [%d,+%d)", off, len(dst)))
	}
	if cr := c.K.Crashed(); cr != nil {
		return cr
	}
	c.K.Mem.ReadAt(mem.FrameBase(b.Frame)+uint64(off), dst)
	c.K.ChargeCopy(len(dst))
	c.touch(b)
	return nil
}

// ContentsAt copies len(dst) bytes at off out of the buffer's frame into
// dst — the trusted oracle/flush read: physical memory directly, like a
// DMA engine on write-back, no staging, no LRU touch, no simulated cost.
// It is the only way to image a cached block: the caller brings the
// destination (a few fields on the stack, or a block-sized scratch it
// owns), so imaging never allocates.
func (c *Cache) ContentsAt(b *Buf, off int, dst []byte) {
	if off < 0 || off+len(dst) > BlockSize {
		panic(fmt.Sprintf("cache: bad contents read [%d,+%d)", off, len(dst)))
	}
	c.K.Mem.ReadAt(mem.FrameBase(b.Frame)+uint64(off), dst)
}

// MarkClean records that the buffer matches its disk copy again.
func (c *Cache) MarkClean(b *Buf) error {
	b.Dirty = false
	return c.Reg.Mutate(b.Slot, func(e *registry.Entry) {
		e.Flags &^= registry.FlagDirty
	})
}

// Remove drops a buffer from the cache without writing it back. The caller
// is responsible for any required flush. It bumps b.Gen, so a write-back
// completion queued before the removal finds its generation stale and
// leaves alone the registry slot the next buffer gets.
func (c *Cache) Remove(b *Buf) error {
	b.Gen++
	switch b.Kind {
	case Meta:
		delete(c.meta, b.Block)
	case Data:
		delete(c.data, DataKey{b.Ino, b.FileBlock})
	}
	c.lruOf(b.Kind).remove(b)
	if err := c.Reg.Free(b.Slot); err != nil {
		return err
	}
	c.K.FreeBufHdr(b.Hdr)
	if b.Kind == Meta {
		c.K.MMU.Unmap(b.Addr / mem.PageSize)
	}
	c.K.FreeFrame(b.Frame)
	return nil
}

// DropFileData removes all UBC pages of an inode (file deletion or
// truncation at/after fromBlock), without write-back. Victims are
// removed in file-block order, not map order: Remove pushes registry
// slots and frames onto free lists, so removal order decides what later
// allocations get — and with that, the order warm reboot restores pages
// and the order recovery I/O hits the disk's fault stream. Map-order
// removal made double-fault campaigns diverge between identical runs.
// The victims are gathered in a scratch the cache keeps, so an unlink
// allocates nothing here.
func (c *Cache) DropFileData(ino uint32, fromBlock int64) error {
	victims := c.victims[:0]
	for key, b := range c.data {
		if key.Ino == ino && key.FileBlock >= fromBlock {
			victims = append(victims, b)
		}
	}
	slices.SortFunc(victims, func(a, b *Buf) int { return cmp.Compare(a.FileBlock, b.FileBlock) })
	var err error
	for _, b := range victims {
		if err = c.Remove(b); err != nil {
			break
		}
	}
	clear(victims) // the scratch must not keep removed buffers alive
	c.victims = victims[:0]
	return err
}

// DirtyBufs returns the dirty buffers of a pool, least recently used first
// (a natural flush order).
func (c *Cache) DirtyBufs(kind Kind) []*Buf {
	var out []*Buf
	for b := c.lruOf(kind).back; b != nil; b = b.prev {
		if b.Dirty {
			out = append(out, b)
		}
	}
	return out
}

// All returns every buffer in a pool (tests, verification).
func (c *Cache) All(kind Kind) []*Buf {
	var out []*Buf
	for b := c.lruOf(kind).front; b != nil; b = b.next {
		out = append(out, b)
	}
	return out
}
