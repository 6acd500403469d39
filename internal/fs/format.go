// Package fs implements the simulated Unix file system the Rio experiments
// run on: a classic inode/directory/bitmap design with 8 KB blocks, layered
// on the buffer cache + UBC (package cache) and the simulated disk.
//
// The same file system serves every row of Table 2 — the eight
// configurations differ only in their write Policy (when dirty buffers go
// to disk), exactly as in the paper, where UFS variants, AdvFS, MFS and
// Rio differ in write-back behaviour rather than layout.
package fs

import (
	"encoding/binary"
	"fmt"

	"rio/internal/cache"
	"rio/internal/disk"
	"rio/internal/ioretry"
)

// BlockSize is the file-system block size (one page).
const BlockSize = cache.BlockSize

// SectorsPerBlock converts blocks to disk sectors.
const SectorsPerBlock = BlockSize / disk.SectorSize

// Magic identifies a formatted volume.
const Magic uint64 = 0x52494F4653303031 // "RIOFS001"

// Superblock describes the volume layout. Block 0 holds it.
type Superblock struct {
	Magic        uint64
	NBlocks      int64 // total blocks on the volume
	NInodes      int64
	InodeStart   int64 // first inode-table block
	BitmapStart  int64
	DataStart    int64 // first data block
	JournalStart int64 // first journal block (AdvFS policy); end = NBlocks
	RootIno      uint32
}

const sbSize = 8 * 8

func (sb *Superblock) marshal(buf []byte) {
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, sb.Magic)
	put(8, uint64(sb.NBlocks))
	put(16, uint64(sb.NInodes))
	put(24, uint64(sb.InodeStart))
	put(32, uint64(sb.BitmapStart))
	put(40, uint64(sb.DataStart))
	put(48, uint64(sb.JournalStart))
	put(56, uint64(sb.RootIno))
}

func (sb *Superblock) unmarshal(buf []byte) error {
	get := func(off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(buf[off+i]) << (8 * i)
		}
		return v
	}
	sb.Magic = get(0)
	if sb.Magic != Magic {
		return fmt.Errorf("fs: bad superblock magic %#x", sb.Magic)
	}
	sb.NBlocks = int64(get(8))
	sb.NInodes = int64(get(16))
	sb.InodeStart = int64(get(24))
	sb.BitmapStart = int64(get(32))
	sb.DataStart = int64(get(40))
	sb.JournalStart = int64(get(48))
	sb.RootIno = uint32(get(56))
	// Geometry sanity: every derived allocation (inode tables, bitmaps)
	// is bounded by these checks, so a corrupted superblock read off a
	// damaged disk can never drive fsck or mount into absurd allocations.
	const maxBlocks = 1 << 24 // 128 GB volume cap
	if sb.NBlocks <= 0 || sb.NBlocks > maxBlocks ||
		sb.NInodes <= 0 || sb.DataStart <= 0 ||
		sb.InodeStart != 1 ||
		sb.BitmapStart <= sb.InodeStart || sb.DataStart <= sb.BitmapStart ||
		sb.DataStart > sb.NBlocks || sb.JournalStart > sb.NBlocks ||
		sb.JournalStart < sb.DataStart ||
		sb.NInodes > (sb.BitmapStart-sb.InodeStart)*InodesPerBlock ||
		sb.RootIno == 0 || int64(sb.RootIno) >= sb.NInodes {
		return fmt.Errorf("fs: implausible superblock geometry")
	}
	return nil
}

// Inode modes.
const (
	ModeFree    = 0
	ModeFile    = 1
	ModeDir     = 2
	ModeSymlink = 3
)

// NDirect is the number of direct block pointers per inode.
const NDirect = 12

// InodeSize is the on-disk inode size.
const InodeSize = 128

// InodesPerBlock is how many inodes fit one block.
const InodesPerBlock = BlockSize / InodeSize

// PtrsPerBlock is how many block pointers an indirect block holds.
const PtrsPerBlock = BlockSize / 4

// MaxFileBlocks is the largest file in blocks.
const MaxFileBlocks = NDirect + PtrsPerBlock

// MaxFileBytes is the largest file in bytes.
const MaxFileBytes = int64(MaxFileBlocks) * BlockSize

// MaxTargetLen bounds a symbolic link's target: symlinks are "fast" —
// stored inline in the inode's spare bytes, never in data blocks. The
// paper notes symbolic links live in the buffer cache alongside inodes;
// inline targets make that literal.
const MaxTargetLen = InodeSize - (16 + 4*NDirect + 4) - 4

// Inode is the in-core form of an on-disk inode.
type Inode struct {
	Mode     uint32
	Nlink    uint32
	Size     int64
	Direct   [NDirect]int32 // block numbers; 0 = hole/unallocated
	Indirect int32          // indirect block number; 0 = none
	Target   string         // symlink target (ModeSymlink only, inline)
}

func (ino *Inode) marshal(buf []byte) {
	put32 := func(off int, v uint32) {
		for i := 0; i < 4; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put32(0, ino.Mode)
	put32(4, ino.Nlink)
	for i := 0; i < 8; i++ {
		buf[8+i] = byte(uint64(ino.Size) >> (8 * i))
	}
	for i, d := range ino.Direct {
		put32(16+4*i, uint32(d))
	}
	put32(16+4*NDirect, uint32(ino.Indirect))
	// Spare bytes hold the inline symlink target (length-prefixed).
	base := 16 + 4*NDirect + 4
	for i := base; i < InodeSize; i++ {
		buf[i] = 0
	}
	if ino.Mode == ModeSymlink {
		n := len(ino.Target)
		if n > MaxTargetLen {
			n = MaxTargetLen
		}
		put32(base, uint32(n))
		copy(buf[base+4:], ino.Target[:n])
	}
}

func (ino *Inode) unmarshal(buf []byte) {
	get32 := func(off int) uint32 {
		var v uint32
		for i := 0; i < 4; i++ {
			v |= uint32(buf[off+i]) << (8 * i)
		}
		return v
	}
	ino.Mode = get32(0)
	ino.Nlink = get32(4)
	var sz uint64
	for i := 0; i < 8; i++ {
		sz |= uint64(buf[8+i]) << (8 * i)
	}
	ino.Size = int64(sz)
	for i := range ino.Direct {
		ino.Direct[i] = int32(get32(16 + 4*i))
	}
	ino.Indirect = int32(get32(16 + 4*NDirect))
	ino.Target = ""
	if ino.Mode == ModeSymlink {
		base := 16 + 4*NDirect + 4
		n := int(get32(base))
		if n > MaxTargetLen {
			n = MaxTargetLen
		}
		ino.Target = string(buf[base+4 : base+4+n])
	}
}

// Blocks returns the number of blocks the file spans by size.
func (ino *Inode) Blocks() int64 {
	return (ino.Size + BlockSize - 1) / BlockSize
}

// Directory entries: 64 bytes each.
const (
	DirentSize      = 64
	MaxNameLen      = 56
	DirentsPerBlock = BlockSize / DirentSize
)

// direntView is one directory entry read in place: a slot's inode number
// (0 marks a free slot) and its name bytes, which alias the block image
// the slot was read from. A directory scan walks past every live entry of
// every block, so it builds no string per entry: a name is compared as
// string(d.name) == name, which does not allocate, and whoever keeps a name
// copies it (string(d.name)) while the image is still valid.
type direntView struct {
	ino  uint32
	name []byte
}

// direntIno reads the inode number of the directory slot at buf.
func direntIno(buf []byte) uint32 {
	return binary.LittleEndian.Uint32(buf)
}

// viewDirent reads the directory slot at buf. A name length past
// MaxNameLen (a corrupt slot) is clamped, never trusted.
func viewDirent(buf []byte) direntView {
	n := int(binary.LittleEndian.Uint16(buf[4:]))
	if n > MaxNameLen {
		n = MaxNameLen
	}
	return direntView{ino: direntIno(buf), name: buf[8 : 8+n]}
}

// marshalDirent writes the entry (ino, name) into the directory slot at buf.
func marshalDirent(ino uint32, name string, buf []byte) {
	binary.LittleEndian.PutUint32(buf, ino)
	n := len(name)
	buf[4] = byte(n)
	buf[5] = byte(n >> 8)
	buf[6], buf[7] = 0, 0
	copy(buf[8:8+MaxNameLen], name)
	for i := 8 + n; i < DirentSize; i++ {
		buf[i] = 0
	}
}

// Geometry computes the volume layout for a disk of nblocks with ninodes,
// reserving journalBlocks at the end (0 for non-journaling volumes).
func Geometry(nblocks, ninodes, journalBlocks int64) Superblock {
	inodeBlocks := (ninodes + InodesPerBlock - 1) / InodesPerBlock
	bitmapBlocks := (nblocks + BlockSize*8 - 1) / (BlockSize * 8)
	sb := Superblock{
		Magic:        Magic,
		NBlocks:      nblocks,
		NInodes:      ninodes,
		InodeStart:   1,
		BitmapStart:  1 + inodeBlocks,
		DataStart:    1 + inodeBlocks + bitmapBlocks,
		JournalStart: nblocks - journalBlocks,
		RootIno:      1,
	}
	return sb
}

// Mkfs formats the disk: writes the superblock, an empty inode table with
// a root directory, and the block bitmap. This is a boot-time utility; it
// writes the disk directly (no cache, no timing).
func Mkfs(d *disk.Disk, ninodes int64, journalBlocks int64) (Superblock, error) {
	nblocks := int64(d.NumSectors() / SectorsPerBlock)
	sb := Geometry(nblocks, ninodes, journalBlocks)
	if sb.DataStart >= sb.JournalStart {
		return sb, fmt.Errorf("fs: disk too small for geometry")
	}
	d.Format()

	// Format-time writes retry transients but cannot tolerate permanent
	// failure: an unformattable disk is an error, not a degraded volume.
	retry := ioretry.New(ioretry.Policy{MaxRetries: 4}, nil)
	writeBlock := func(block int64, buf []byte) error {
		return retry.Do(func() error {
			return d.Commit(int(block)*SectorsPerBlock, buf)
		})
	}

	// Superblock.
	blk := make([]byte, BlockSize)
	sb.marshal(blk)
	if err := writeBlock(0, blk); err != nil {
		return sb, fmt.Errorf("fs: mkfs superblock: %w", err)
	}

	// Inode table: all free except root (ino 1) = empty directory.
	for b := sb.InodeStart; b < sb.BitmapStart; b++ {
		blk := make([]byte, BlockSize)
		if b == sb.InodeStart {
			root := Inode{Mode: ModeDir, Nlink: 1, Size: 0}
			root.marshal(blk[1*InodeSize : 2*InodeSize]) // ino 1
		}
		if err := writeBlock(b, blk); err != nil {
			return sb, fmt.Errorf("fs: mkfs inode table: %w", err)
		}
	}

	// Bitmap: blocks below DataStart (and the journal region) are "used".
	for b := sb.BitmapStart; b < sb.DataStart; b++ {
		blk := make([]byte, BlockSize)
		first := (b - sb.BitmapStart) * BlockSize * 8
		for i := int64(0); i < BlockSize*8; i++ {
			block := first + i
			if block < sb.DataStart || (block >= sb.JournalStart && block < sb.NBlocks) {
				blk[i/8] |= 1 << (i % 8)
			}
		}
		if err := writeBlock(b, blk); err != nil {
			return sb, fmt.Errorf("fs: mkfs bitmap: %w", err)
		}
	}
	return sb, nil
}

// ReadSuperblock parses the superblock straight off the disk (mount path,
// fsck). Transient read errors are retried; a superblock that stays
// unreadable is reported, since nothing else can proceed without it.
func ReadSuperblock(d *disk.Disk) (Superblock, error) {
	var sb Superblock
	blk := make([]byte, BlockSize)
	retry := ioretry.New(ioretry.Policy{MaxRetries: 4}, nil)
	err := retry.Do(func() error {
		_, err := d.Read(0, blk)
		return err
	})
	if err != nil {
		return sb, fmt.Errorf("fs: reading superblock: %w", err)
	}
	err = sb.unmarshal(blk)
	return sb, err
}
