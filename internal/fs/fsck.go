package fs

import (
	"fmt"

	"rio/internal/disk"
	"rio/internal/ioretry"
)

// FsckReport summarises what the consistency check found and repaired.
type FsckReport struct {
	BadDirents   int // directory entries pointing at free/invalid inodes
	OrphanInodes int // allocated inodes unreachable from the root
	BadPointers  int // block pointers out of range or doubly referenced
	BitmapFixes  int // allocation-bitmap bits that disagreed with reality
	IOErrors     int // block reads/writes that failed even after retries
}

// Clean reports whether the volume needed no repairs. I/O errors are
// tracked separately: a device failure is not a repair, but callers that
// care about completeness should inspect IOErrors too.
func (r FsckReport) Clean() bool {
	return r.BadDirents == 0 && r.OrphanInodes == 0 && r.BadPointers == 0 && r.BitmapFixes == 0
}

func (r FsckReport) String() string {
	return fmt.Sprintf("fsck: %d bad dirents, %d orphan inodes, %d bad pointers, %d bitmap fixes, %d I/O errors",
		r.BadDirents, r.OrphanInodes, r.BadPointers, r.BitmapFixes, r.IOErrors)
}

// Fsck checks and repairs an unmounted volume in place, like fsck(8) at
// boot. It walks the directory tree from the root, removes directory
// entries that reference free or invalid inodes, frees unreachable inodes,
// clears out-of-range or duplicate block pointers, and rebuilds the
// allocation bitmap from the reachable tree.
//
// Fsck guarantees a *consistent* volume, not an *intact* one: data that
// never reached the disk is simply gone, which is why a write-through
// system and Rio's warm reboot both matter.
func Fsck(d *disk.Disk) (FsckReport, error) {
	var rep FsckReport
	sb, err := ReadSuperblock(d)
	if err != nil {
		return rep, err
	}
	if sb.NBlocks != int64(d.NumSectors()/SectorsPerBlock) {
		return rep, fmt.Errorf("fs: superblock claims %d blocks, disk has %d",
			sb.NBlocks, d.NumSectors()/SectorsPerBlock)
	}

	// Boot-time retry loop: transient device errors get a few attempts,
	// but fsck runs before any mount exists, so there is no clock to
	// charge and no budget to degrade — a block that stays unreadable is
	// treated as zeroes (its references will be repaired away), and a
	// repair write that stays rejected is dropped. Both are counted.
	retry := ioretry.New(ioretry.Policy{MaxRetries: 4}, nil)
	readInto := func(buf []byte, block int64) []byte {
		err := retry.Do(func() error {
			_, err := d.Read(blockSector(block), buf)
			return err
		})
		if err != nil {
			rep.IOErrors++
			clear(buf) // a failed read delivers nothing: the block is zeroes
		}
		return buf
	}
	// A directory or indirect block is dead once scanned, so the walk reads
	// each into a scan buffer instead of a fresh 8 KB per block visited.
	// One buffer per role, because the roles nest: a directory's indirect
	// block is held across the scan of the directory blocks it names, and a
	// directory block across claimBlocks of the files it lists, which reads
	// their indirect blocks. (The inode-table images are written back at
	// the end and keep their own.)
	scan := make([]byte, 3*BlockSize)
	scanDirInd, scanDir, scanInd := scan[:BlockSize], scan[BlockSize:2*BlockSize], scan[2*BlockSize:]
	writeBlock := func(block int64, img []byte) {
		err := retry.Do(func() error {
			return d.Commit(blockSector(block), img)
		})
		if err != nil {
			rep.IOErrors++
		}
	}

	// Load the inode table.
	inodeBlocks := sb.BitmapStart - sb.InodeStart
	inodes := make([]Inode, sb.NInodes)
	imgs := make([][]byte, inodeBlocks)
	imgDirty := make([]bool, inodeBlocks)
	for b := int64(0); b < inodeBlocks; b++ {
		imgs[b] = readInto(make([]byte, BlockSize), sb.InodeStart+b)
		for s := 0; s < InodesPerBlock; s++ {
			ino := b*InodesPerBlock + int64(s)
			if ino >= sb.NInodes {
				break
			}
			inodes[ino].unmarshal(imgs[b][s*InodeSize : (s+1)*InodeSize])
		}
	}

	validData := func(block int64) bool {
		return block >= sb.DataStart && block < sb.JournalStart
	}

	// blockOwner tracks which blocks the reachable tree references.
	blockOwner := make(map[int64]uint32)
	// claimBlocks validates an inode's pointers, clearing bad ones.
	claimBlocks := func(ino uint32, n *Inode) bool {
		changed := false
		claim := func(p *int32) {
			if *p == 0 {
				return
			}
			b := int64(*p)
			if !validData(b) {
				rep.BadPointers++
				*p = 0
				changed = true
				return
			}
			if _, dup := blockOwner[b]; dup {
				rep.BadPointers++
				*p = 0
				changed = true
				return
			}
			blockOwner[b] = ino
		}
		for i := range n.Direct {
			claim(&n.Direct[i])
		}
		if n.Indirect != 0 {
			ib := int64(n.Indirect)
			if !validData(ib) {
				rep.BadPointers++
				n.Indirect = 0
				changed = true
			} else if _, dup := blockOwner[ib]; dup {
				rep.BadPointers++
				n.Indirect = 0
				changed = true
			} else {
				blockOwner[ib] = ino
				img := readInto(scanInd, ib)
				indDirty := false
				for e := 0; e < PtrsPerBlock; e++ {
					var ptr uint32
					for i := 0; i < 4; i++ {
						ptr |= uint32(img[e*4+i]) << (8 * i)
					}
					if ptr == 0 {
						continue
					}
					pb := int64(ptr)
					if !validData(pb) {
						rep.BadPointers++
						for i := 0; i < 4; i++ {
							img[e*4+i] = 0
						}
						indDirty = true
						continue
					}
					if _, dup := blockOwner[pb]; dup {
						rep.BadPointers++
						for i := 0; i < 4; i++ {
							img[e*4+i] = 0
						}
						indDirty = true
						continue
					}
					blockOwner[pb] = ino
				}
				if indDirty {
					writeBlock(ib, img)
				}
			}
		}
		return changed
	}

	markInodeDirty := func(ino uint32) {
		b := int64(ino) / InodesPerBlock
		s := int(int64(ino) % InodesPerBlock)
		inodes[ino].marshal(imgs[b][s*InodeSize : (s+1)*InodeSize])
		imgDirty[b] = true
	}

	// Walk the tree.
	reachable := make(map[uint32]bool)
	queue := []uint32{sb.RootIno}
	reachable[sb.RootIno] = true
	if inodes[sb.RootIno].Mode != ModeDir {
		// A destroyed root directory: re-create it empty.
		inodes[sb.RootIno] = Inode{Mode: ModeDir, Nlink: 1}
		markInodeDirty(sb.RootIno)
		rep.OrphanInodes++
	}
	for len(queue) > 0 {
		dirIno := queue[0]
		queue = queue[1:]
		dir := &inodes[dirIno]
		if claimBlocks(dirIno, dir) {
			markInodeDirty(dirIno)
		}
		// Scan entries across the directory's claimed blocks.
		scanBlock := func(db int64) {
			if db == 0 {
				return
			}
			img := readInto(scanDir, db)
			dirty := false
			for s := 0; s < DirentsPerBlock; s++ {
				ino := direntIno(img[s*DirentSize:])
				if ino == 0 {
					continue
				}
				bad := int64(ino) >= sb.NInodes ||
					inodes[ino].Mode == ModeFree ||
					reachable[ino] // second link; we only support one
				if bad {
					rep.BadDirents++
					for i := 0; i < DirentSize; i++ {
						img[s*DirentSize+i] = 0
					}
					dirty = true
					continue
				}
				reachable[ino] = true
				if inodes[ino].Mode == ModeDir {
					queue = append(queue, ino)
				} else {
					if claimBlocks(ino, &inodes[ino]) {
						markInodeDirty(ino)
					}
				}
			}
			if dirty {
				writeBlock(db, img)
			}
		}
		for i := range dir.Direct {
			scanBlock(int64(dir.Direct[i]))
		}
		if dir.Indirect != 0 {
			img := readInto(scanDirInd, int64(dir.Indirect))
			for e := 0; e < PtrsPerBlock; e++ {
				var ptr uint32
				for i := 0; i < 4; i++ {
					ptr |= uint32(img[e*4+i]) << (8 * i)
				}
				scanBlock(int64(ptr))
			}
		}
	}

	// Free unreachable inodes.
	for ino := uint32(1); int64(ino) < sb.NInodes; ino++ {
		if inodes[ino].Mode != ModeFree && !reachable[ino] {
			rep.OrphanInodes++
			inodes[ino] = Inode{Mode: ModeFree}
			markInodeDirty(ino)
		}
	}

	// Flush repaired inode blocks.
	for b := int64(0); b < inodeBlocks; b++ {
		if imgDirty[b] {
			writeBlock(sb.InodeStart+b, imgs[b])
		}
	}

	// Rebuild the bitmap from reachability.
	bitmapBlocks := sb.DataStart - sb.BitmapStart
	for bb := int64(0); bb < bitmapBlocks; bb++ {
		img := readInto(scanDir, sb.BitmapStart+bb) // the walk is over
		fresh := make([]byte, BlockSize)
		first := bb * BlockSize * 8
		for i := int64(0); i < BlockSize*8; i++ {
			block := first + i
			used := block < sb.DataStart ||
				(block >= sb.JournalStart && block < sb.NBlocks)
			if _, ok := blockOwner[block]; ok {
				used = true
			}
			if used {
				fresh[i/8] |= 1 << (i % 8)
			}
		}
		for i := range fresh {
			if fresh[i] != img[i] {
				// Count bit differences.
				diff := fresh[i] ^ img[i]
				for diff != 0 {
					rep.BitmapFixes++
					diff &= diff - 1
				}
			}
		}
		writeBlock(sb.BitmapStart+bb, fresh)
	}
	return rep, nil
}
