// Package registry implements Rio's registry: the protected area of memory
// that describes every file-cache buffer so a warm reboot can find,
// identify, and restore them (§2.2 of the paper).
//
// The paper's registry keeps, for each 8 KB file-cache page, the physical
// memory address, file id (device and inode number), file offset, and size
// — about 40 bytes per page. Our entries are 64 bytes (we add a per-entry
// checksum of the buffer contents, flags, and a CRC over the entry itself
// so that warm reboot can reject garbage entries).
//
// Entries live in dedicated physical frames that are flagged and — when
// protection is on — write-protected like the file cache itself. All
// registry mutation goes through this package, which briefly opens the
// frame's write permission around each sanctioned store, mirroring the file
// cache's own discipline.
package registry

import (
	"fmt"

	"rio/internal/kernel"
	"rio/internal/mem"
	"rio/internal/mmu"
)

// EntrySize is the serialized size of one registry entry.
const EntrySize = 64

// entryMagic marks a live entry on its first two bytes.
const entryMagic = 0x5210

// Kind distinguishes what a registered buffer caches.
type Kind uint8

const (
	// KindMeta is a buffer-cache block (directories, inodes, superblock,
	// bitmap). Warm reboot restores these straight to their disk blocks
	// before fsck runs.
	KindMeta Kind = 1
	// KindData is a UBC page of regular-file data. Warm reboot restores
	// these through normal system calls after the system boots.
	KindData Kind = 2
)

// Entry flags.
const (
	// FlagDirty marks the buffer as newer than its disk copy; clean
	// buffers need no restoration.
	FlagDirty = 1 << 0
	// FlagChanging marks a sanctioned write in progress; if the system
	// crashes now the buffer cannot be classified by its checksum.
	FlagChanging = 1 << 1
)

// Entry is one registry record.
type Entry struct {
	Kind  Kind
	Flags uint8
	Frame uint32 // physical frame holding the buffer data
	Ino   uint32 // file inode number (KindData)
	Size  uint32 // valid bytes in the buffer
	Block int64  // disk block number (KindMeta; -1 if unassigned)
	Off   int64  // byte offset within the file (KindData)
	Cksum uint64 // kernel checksum of the buffer contents
}

// marshal serializes e (without the trailing CRC).
func (e Entry) marshal(buf []byte) {
	put16 := func(off int, v uint16) {
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
	}
	put32 := func(off int, v uint32) {
		for i := 0; i < 4; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put16(0, entryMagic)
	buf[2] = byte(e.Kind)
	buf[3] = e.Flags
	put32(4, e.Frame)
	put32(8, e.Ino)
	put32(12, e.Size)
	put64(16, uint64(e.Block))
	put64(24, uint64(e.Off))
	put64(32, e.Cksum)
	// bytes 40..47 reserved (zero)
	crc := kernel.CksumBytes(buf[:48])
	put64(48, crc)
	// bytes 56..63 reserved (zero)
}

// unmarshal parses an entry, validating magic and CRC.
func unmarshal(buf []byte) (Entry, bool) {
	get16 := func(off int) uint16 { return uint16(buf[off]) | uint16(buf[off+1])<<8 }
	get32 := func(off int) uint32 {
		var v uint32
		for i := 0; i < 4; i++ {
			v |= uint32(buf[off+i]) << (8 * i)
		}
		return v
	}
	get64 := func(off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(buf[off+i]) << (8 * i)
		}
		return v
	}
	if get16(0) != entryMagic {
		return Entry{}, false
	}
	if get64(48) != kernel.CksumBytes(buf[:48]) {
		return Entry{}, false
	}
	e := Entry{
		Kind:  Kind(buf[2]),
		Flags: buf[3],
		Frame: get32(4),
		Ino:   get32(8),
		Size:  get32(12),
		Block: int64(get64(16)),
		Off:   int64(get64(24)),
		Cksum: get64(32),
	}
	if e.Kind != KindMeta && e.Kind != KindData {
		return Entry{}, false
	}
	return e, true
}

// Registry manages the registry area during normal operation.
type Registry struct {
	k      *kernel.Kernel
	frames []int
	cap    int
	free   []int
	live   map[int]Entry // slot -> last written entry (in-core mirror)

	// scratch is Mutate's working entry. Handing fn a pointer to a
	// stack local would force the local to the heap (fn is opaque to
	// escape analysis), and the write hot path mutates the registry
	// twice per block; a registry is owned by one machine goroutine,
	// so a single reusable entry is safe.
	scratch Entry

	// Protect: bracket registry stores with frame protection toggles.
	Protect bool
}

// New allocates nframes registry frames from the kernel's pool, zeroes
// them, and (if protect) write-protects them. Registry frames are always
// the first allocations after boot so that warm reboot can find them by
// convention (see Frames).
func New(k *kernel.Kernel, nframes int, protect bool) (*Registry, error) {
	if nframes <= 0 {
		return nil, fmt.Errorf("registry: need at least one frame")
	}
	r := &Registry{k: k, Protect: protect, live: make(map[int]Entry)}
	for i := 0; i < nframes; i++ {
		f := k.AllocFrame(kernel.FrameRegistry)
		if f < 0 {
			return nil, fmt.Errorf("registry: out of frames")
		}
		k.Mem.Frame(f).Registry = true
		// Zero the frame so stale bytes never parse as entries (a raw
		// store, like the boot-time clear it stands for).
		clear(k.Mem.Slice(mem.FrameBase(f), mem.PageSize))
		if protect {
			k.MMU.SetFrameProtection(f, true)
		}
		r.frames = append(r.frames, f)
	}
	r.cap = nframes * (mem.PageSize / EntrySize)
	for s := r.cap - 1; s >= 0; s-- {
		r.free = append(r.free, s)
	}
	return r, nil
}

// Frames returns the physical frames holding the registry, in order.
func (r *Registry) Frames() []int { return r.frames }

// Cap returns the registry capacity in entries.
func (r *Registry) Cap() int { return r.cap }

// LiveCount returns the number of allocated slots.
func (r *Registry) LiveCount() int { return len(r.live) }

// slotAddr returns (frame, KSEG address) of a slot.
func (r *Registry) slotAddr(slot int) (int, uint64) {
	perFrame := mem.PageSize / EntrySize
	f := r.frames[slot/perFrame]
	off := (slot % perFrame) * EntrySize
	return f, mmu.PhysToKSEG(mem.FrameBase(f) + uint64(off))
}

// store writes raw entry bytes through the MMU with the protection
// open/close discipline.
func (r *Registry) store(slot int, buf []byte) error {
	f, addr := r.slotAddr(slot)
	if r.Protect {
		r.k.MMU.SetFrameProtection(f, false)
		defer r.k.MMU.SetFrameProtection(f, true)
	}
	if trap := r.k.MMU.WriteBytes(addr, buf); trap != nil {
		return trap
	}
	return nil
}

// Alloc claims a slot and writes e into it.
func (r *Registry) Alloc(e Entry) (int, error) {
	if len(r.free) == 0 {
		return -1, fmt.Errorf("registry: full (%d entries)", r.cap)
	}
	slot := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	if err := r.Update(slot, e); err != nil {
		r.free = append(r.free, slot)
		return -1, err
	}
	return slot, nil
}

// Update rewrites slot with e.
func (r *Registry) Update(slot int, e Entry) error {
	var buf [EntrySize]byte
	e.marshal(buf[:])
	if err := r.store(slot, buf[:]); err != nil {
		return err
	}
	r.live[slot] = e
	return nil
}

// Get returns the in-core mirror of slot.
func (r *Registry) Get(slot int) (Entry, bool) {
	e, ok := r.live[slot]
	return e, ok
}

// Mutate applies fn to the slot's entry and rewrites it. Typical uses:
// set/clear FlagChanging, update the checksum after a sanctioned write.
func (r *Registry) Mutate(slot int, fn func(*Entry)) error {
	e, ok := r.live[slot]
	if !ok {
		return fmt.Errorf("registry: mutate of free slot %d", slot)
	}
	r.scratch = e
	fn(&r.scratch)
	return r.Update(slot, r.scratch)
}

// Free releases a slot, zeroing its bytes so it can never be mistaken for a
// live entry during warm reboot.
func (r *Registry) Free(slot int) error {
	if _, ok := r.live[slot]; !ok {
		return fmt.Errorf("registry: double free of slot %d", slot)
	}
	delete(r.live, slot)
	if err := r.store(slot, make([]byte, EntrySize)); err != nil {
		return err
	}
	r.free = append(r.free, slot)
	return nil
}

// ParsedEntry is an entry recovered from a memory dump.
type ParsedEntry struct {
	Entry
	Slot int
}

// Parse scans a full-memory dump for registry entries in the given frames
// (the warm-reboot path). Entries that fail the magic or CRC check are
// counted in bad and skipped — a corrupted registry region must never
// cause garbage restoration. The dump and the frame list both come from
// a crashed kernel, so neither is trusted: a truncated dump, a negative
// frame index, or a frame past the dump's end writes off that frame's
// slots as bad instead of panicking mid-recovery.
func Parse(dump []byte, frames []int) (entries []ParsedEntry, bad int) {
	perFrame := mem.PageSize / EntrySize
	for fi, f := range frames {
		// Bounds-check in frame units, not byte offsets: FrameBase of a
		// huge index wraps uint64 and would alias a small offset, slipping
		// past any check phrased as base+PageSize <= len(dump).
		if f < 0 || uint64(len(dump)) < mem.PageSize ||
			uint64(f) > (uint64(len(dump))-mem.PageSize)/mem.PageSize {
			bad += perFrame
			continue
		}
		base := mem.FrameBase(f)
		for s := 0; s < perFrame; s++ {
			off := base + uint64(s*EntrySize)
			raw := dump[off : off+EntrySize]
			if allZero(raw) {
				continue
			}
			e, ok := unmarshal(raw)
			if !ok {
				bad++
				continue
			}
			entries = append(entries, ParsedEntry{Entry: e, Slot: fi*perFrame + s})
		}
	}
	return entries, bad
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
