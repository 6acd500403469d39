package fs

import (
	"fmt"
	"strings"

	"rio/internal/cache"
)

// Local aliases keep the syscall code terse.
type cacheKind = cache.Kind

const (
	cacheMeta = cache.Meta
	cacheData = cache.Data
)

// File is an open file handle.
type File struct {
	fs   *FS
	Ino  uint32
	Path string

	pos     int64
	closed  bool
	pending int   // bytes written since last async flush (PolicyUFS)
	lastEnd int64 // end offset of the previous write (sequentiality test)
}

// --- path resolution ---

func splitPath(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("fs: unsupported path component %q", p)
		}
		if len(p) > MaxNameLen {
			return nil, ErrNameTooLong
		}
	}
	return parts, nil
}

// dirBlock images a cached directory block into the directory scratch
// (see FS.image). The image is valid until the next dirBlock call:
// metaUpdate copies the image into the kernel's staging area, and the
// dirent views dirScan hands its callback alias it, so a callback copies
// the name it keeps (ReadDir) and reads no directory block while it still
// looks at its view; riolint's bufalias checks both.
func (f *FS) dirBlock(b *cache.Buf) []byte {
	return f.image(&f.dirBuf, b)
}

// dirScan iterates a directory's entries; fn returns true to stop. It
// passes a view of each live entry — valid for that call only — and the
// entry's block and slot.
func (f *FS) dirScan(dirIno uint32, dir *Inode, fn func(d direntView, block int64, slot int) bool) error {
	blocks := dir.Blocks()
	var dirty bool
	for fb := int64(0); fb < blocks; fb++ {
		db, err := f.bmap(dir, fb, false, &dirty)
		if err != nil {
			return err
		}
		if db == 0 {
			continue
		}
		b, err := f.metaBuf(db)
		if err != nil {
			return err
		}
		img := f.dirBlock(b)
		for s := 0; s < DirentsPerBlock; s++ {
			slot := img[s*DirentSize : (s+1)*DirentSize]
			if direntIno(slot) == 0 {
				continue
			}
			if fn(viewDirent(slot), db, s) {
				return nil
			}
		}
	}
	return nil
}

// lookup finds name in the directory dirIno. The dcache answers repeat
// lookups without touching directory blocks; entries only exist for
// names dirInsert wrote or a scan found, so a hit never bypasses the
// not-a-directory check a fresh scan would have made — a cached parent
// was a directory when the entry was added and dirRemove-before-free
// keeps it one for as long as the entry lives.
func (f *FS) lookup(dirIno uint32, name string) (uint32, error) {
	if ino, ok := f.dc.get(dirIno, name); ok {
		f.Stats.DcacheHits++
		return ino, nil
	}
	f.Stats.DcacheMisses++
	dir, err := f.getInode(dirIno)
	if err != nil {
		return 0, err
	}
	if dir.Mode != ModeDir {
		return 0, ErrNotDir
	}
	var found uint32
	err = f.dirScan(dirIno, &dir, func(d direntView, _ int64, _ int) bool {
		if string(d.name) == name {
			found = d.ino
			return true
		}
		return false
	})
	if err != nil {
		return 0, err
	}
	if found == 0 {
		return 0, ErrNotFound
	}
	f.dc.put(dirIno, name, found)
	return found, nil
}

// resolve walks path to an inode, following symbolic links (at most
// maxSymlinkDepth hops, like MAXSYMLINKS).
func (f *FS) resolve(path string) (uint32, error) {
	return f.resolveDepth(path, 0)
}

const maxSymlinkDepth = 8

func (f *FS) resolveDepth(path string, depth int) (uint32, error) {
	if depth > maxSymlinkDepth {
		return 0, ErrSymlinkLoop
	}
	// The walk iterates components in place rather than splitting into a
	// []string: resolve is on every served request's path, and the split
	// was the read path's last unavoidable allocation. The validation
	// prepass keeps splitPath's semantics — every component is checked
	// before the first lookup runs.
	p := strings.Trim(path, "/")
	if p == "" {
		return f.SB.RootIno, nil
	}
	if err := checkPathComponents(p); err != nil {
		return 0, err
	}
	ino := f.SB.RootIno
	for start := 0; start < len(p); {
		stop := len(p)
		if i := strings.IndexByte(p[start:], '/'); i >= 0 {
			stop = start + i
		}
		var err error
		ino, err = f.lookup(ino, p[start:stop])
		if err != nil {
			return 0, err
		}
		n, err := f.getInode(ino)
		if err != nil {
			return 0, err
		}
		if n.Mode == ModeSymlink {
			target := n.Target
			if !strings.HasPrefix(target, "/") {
				// Relative target: resolve against the link's directory.
				prefix := ""
				if start > 0 {
					prefix = p[:start-1]
				}
				target = "/" + prefix + "/" + target
			}
			// p[stop:] is "" for the last component, else "/rest".
			target = target + p[stop:]
			return f.resolveDepth(target, depth+1)
		}
		start = stop + 1
	}
	return ino, nil
}

// checkPathComponents applies splitPath's per-component validation to an
// already-trimmed, non-empty path without allocating the component slice.
func checkPathComponents(p string) error {
	for start := 0; start < len(p); {
		stop := len(p)
		if i := strings.IndexByte(p[start:], '/'); i >= 0 {
			stop = start + i
		}
		name := p[start:stop]
		if name == "" || name == "." || name == ".." {
			return fmt.Errorf("fs: unsupported path component %q", name)
		}
		if len(name) > MaxNameLen {
			return ErrNameTooLong
		}
		start = stop + 1
	}
	return nil
}

// resolveParent returns the parent directory inode and the final name.
func (f *FS) resolveParent(path string) (uint32, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return 0, "", err
	}
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("fs: %q has no parent", path)
	}
	ino := f.SB.RootIno
	for _, p := range parts[:len(parts)-1] {
		ino, err = f.lookup(ino, p)
		if err != nil {
			return 0, "", err
		}
	}
	return ino, parts[len(parts)-1], nil
}

// dirInsert adds (name, ino) to the directory, extending it if needed.
func (f *FS) dirInsert(dirIno uint32, name string, ino uint32) error {
	dir, err := f.getInode(dirIno)
	if err != nil {
		return err
	}
	var dirty bool
	// Find a free slot in existing blocks.
	blocks := dir.Blocks()
	for fb := int64(0); fb < blocks; fb++ {
		db, err := f.bmap(&dir, fb, false, &dirty)
		if err != nil {
			return err
		}
		if db == 0 {
			continue
		}
		b, err := f.metaBuf(db)
		if err != nil {
			return err
		}
		img := f.dirBlock(b)
		for s := 0; s < DirentsPerBlock; s++ {
			if slot := img[s*DirentSize : (s+1)*DirentSize]; direntIno(slot) == 0 {
				marshalDirent(ino, name, slot)
				if err := f.metaUpdate(b, img, true); err != nil {
					return err
				}
				f.dc.put(dirIno, name, ino)
				return nil
			}
		}
	}
	// Extend the directory by one block.
	db, err := f.bmap(&dir, blocks, true, &dirty)
	if err != nil {
		return err
	}
	b, err := f.C.InsertMeta(db, nil)
	if err != nil {
		return err
	}
	img := f.dirBlock(b) // the fresh frame's zeroes
	marshalDirent(ino, name, img[:DirentSize])
	if err := f.metaUpdate(b, img, true); err != nil {
		return err
	}
	dir.Size = (blocks + 1) * BlockSize
	if err := f.putInode(dirIno, &dir, true); err != nil {
		return err
	}
	f.dc.put(dirIno, name, ino)
	return nil
}

// dirRemove deletes name from the directory. The dcache entry goes
// first: once the dirent is gone (or if the removal errors partway) a
// stale mapping must not answer later lookups.
func (f *FS) dirRemove(dirIno uint32, name string) error {
	f.dc.invalidate(dirIno, name)
	dir, err := f.getInode(dirIno)
	if err != nil {
		return err
	}
	var block int64 = -1
	var slot int
	err = f.dirScan(dirIno, &dir, func(d direntView, b int64, s int) bool {
		if string(d.name) == name {
			block, slot = b, s
			return true
		}
		return false
	})
	if err != nil {
		return err
	}
	if block < 0 {
		return ErrNotFound
	}
	b, err := f.metaBuf(block)
	if err != nil {
		return err
	}
	img := f.dirBlock(b)
	for i := 0; i < DirentSize; i++ {
		img[slot*DirentSize+i] = 0
	}
	return f.metaUpdate(b, img, true)
}

func (f *FS) dirEmpty(dirIno uint32) (bool, error) {
	dir, err := f.getInode(dirIno)
	if err != nil {
		return false, err
	}
	empty := true
	err = f.dirScan(dirIno, &dir, func(direntView, int64, int) bool {
		empty = false
		return true
	})
	return empty, err
}

// --- syscalls ---

// Create makes a new regular file and opens it. It fails if the path
// already exists.
func (f *FS) Create(path string) (*File, error) {
	f.beginOp()
	defer f.endOp()
	if err := f.writable(); err != nil {
		return nil, err
	}
	parent, name, err := f.resolveParent(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.lookup(parent, name); err == nil {
		return nil, ErrExists
	} else if err != ErrNotFound {
		return nil, err
	}
	ino, err := f.ialloc(ModeFile)
	if err != nil {
		return nil, err
	}
	if err := f.dirInsert(parent, name, ino); err != nil {
		return nil, err
	}
	return &File{fs: f, Ino: ino, Path: path}, nil
}

// Open opens an existing regular file.
func (f *FS) Open(path string) (*File, error) {
	f.beginOp()
	defer f.endOp()
	ino, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	n, err := f.getInode(ino)
	if err != nil {
		return nil, err
	}
	if n.Mode == ModeDir {
		return nil, ErrIsDir
	}
	return &File{fs: f, Ino: ino, Path: path}, nil
}

// Mkdir creates a directory.
func (f *FS) Mkdir(path string) error {
	f.beginOp()
	defer f.endOp()
	if err := f.writable(); err != nil {
		return err
	}
	parent, name, err := f.resolveParent(path)
	if err != nil {
		return err
	}
	if _, err := f.lookup(parent, name); err == nil {
		return ErrExists
	} else if err != ErrNotFound {
		return err
	}
	ino, err := f.ialloc(ModeDir)
	if err != nil {
		return err
	}
	return f.dirInsert(parent, name, ino)
}

// Symlink creates a symbolic link at linkPath pointing at target. The
// target is stored inline in the inode ("fast symlink"), living in the
// buffer cache alongside the other metadata Rio protects.
func (f *FS) Symlink(target, linkPath string) error {
	f.beginOp()
	defer f.endOp()
	if err := f.writable(); err != nil {
		return err
	}
	if len(target) == 0 || len(target) > MaxTargetLen {
		return ErrNameTooLong
	}
	parent, name, err := f.resolveParent(linkPath)
	if err != nil {
		return err
	}
	if _, err := f.lookup(parent, name); err == nil {
		return ErrExists
	} else if err != ErrNotFound {
		return err
	}
	ino, err := f.ialloc(ModeSymlink)
	if err != nil {
		return err
	}
	n, err := f.getInode(ino)
	if err != nil {
		return err
	}
	n.Target = target
	n.Size = int64(len(target))
	if err := f.putInode(ino, &n, true); err != nil {
		return err
	}
	return f.dirInsert(parent, name, ino)
}

// Readlink returns a symbolic link's target (no following).
func (f *FS) Readlink(path string) (string, error) {
	f.beginOp()
	defer f.endOp()
	parent, name, err := f.resolveParent(path)
	if err != nil {
		return "", err
	}
	ino, err := f.lookup(parent, name)
	if err != nil {
		return "", err
	}
	n, err := f.getInode(ino)
	if err != nil {
		return "", err
	}
	if n.Mode != ModeSymlink {
		return "", ErrNotSymlink
	}
	return n.Target, nil
}

// Lstat describes a path without following a final symlink.
func (f *FS) Lstat(path string) (FileInfo, error) {
	f.beginOp()
	defer f.endOp()
	parent, name, err := f.resolveParent(path)
	if err != nil {
		return FileInfo{}, err
	}
	ino, err := f.lookup(parent, name)
	if err != nil {
		return FileInfo{}, err
	}
	n, err := f.getInode(ino)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: name, Ino: ino, IsDir: n.Mode == ModeDir,
		IsSymlink: n.Mode == ModeSymlink, Size: n.Size}, nil
}

// Unlink removes a regular file or symbolic link, freeing its blocks and
// inode.
func (f *FS) Unlink(path string) error {
	f.beginOp()
	defer f.endOp()
	if err := f.writable(); err != nil {
		return err
	}
	parent, name, err := f.resolveParent(path)
	if err != nil {
		return err
	}
	ino, err := f.lookup(parent, name)
	if err != nil {
		return err
	}
	n, err := f.getInode(ino)
	if err != nil {
		return err
	}
	if n.Mode == ModeDir {
		return ErrIsDir
	}
	if err := f.dirRemove(parent, name); err != nil {
		return err
	}
	if err := f.C.DropFileData(ino, 0); err != nil {
		return err
	}
	if err := f.freeFileBlocks(&n); err != nil {
		return err
	}
	n = Inode{Mode: ModeFree}
	return f.putInode(ino, &n, true)
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(path string) error {
	f.beginOp()
	defer f.endOp()
	if err := f.writable(); err != nil {
		return err
	}
	parent, name, err := f.resolveParent(path)
	if err != nil {
		return err
	}
	ino, err := f.lookup(parent, name)
	if err != nil {
		return err
	}
	n, err := f.getInode(ino)
	if err != nil {
		return err
	}
	if n.Mode != ModeDir {
		return ErrNotDir
	}
	empty, err := f.dirEmpty(ino)
	if err != nil {
		return err
	}
	if !empty {
		return ErrNotEmpty
	}
	if err := f.dirRemove(parent, name); err != nil {
		return err
	}
	// Free the directory's blocks (entries all dead).
	if err := f.freeFileBlocks(&n); err != nil {
		return err
	}
	n = Inode{Mode: ModeFree}
	return f.putInode(ino, &n, true)
}

// ParentDir returns path's parent ("/a/b" -> "/a", "/a" -> "/").
func ParentDir(path string) string {
	for i := len(path) - 1; i > 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "/"
}

// MkdirAll creates path and any missing parents (mkdir -p); a directory
// already there is success. Like Remove it is a sequence of the syscalls
// above, not one of its own: the server's executor, the transaction
// apply and the fleet's snapshot install share it and each is charged
// exactly what issuing the sequence itself would cost.
func (f *FS) MkdirAll(path string) error {
	if path == "" || path == "/" {
		return nil
	}
	if st, err := f.Stat(path); err == nil {
		if st.IsDir {
			return nil
		}
		return ErrNotDir
	}
	if err := f.MkdirAll(ParentDir(path)); err != nil {
		return err
	}
	if err := f.Mkdir(path); err != nil && err != ErrExists {
		return err
	}
	return nil
}

// StatEntry describes the directory entry path names, a link as the link:
// where Stat followed one to a directory, or to nothing it could resolve,
// Lstat is asked about the link itself. Stat stays first because a plain
// file has always been Stat-ed before its removal, and the simulated
// counters of every workload that removes files are held to that.
func (f *FS) StatEntry(path string) (FileInfo, error) {
	st, err := f.Stat(path)
	if err != nil || st.IsDir {
		return f.Lstat(path)
	}
	return st, nil
}

// Remove unlinks a file or symbolic link, or removes an empty directory.
// The entry named is the one removed: a link goes, whatever it points at
// stays.
func (f *FS) Remove(path string) error {
	st, err := f.StatEntry(path)
	if err != nil {
		return err
	}
	if st.IsDir {
		return f.Rmdir(path)
	}
	return f.Unlink(path)
}

// Rename moves oldPath to newPath, replacing a regular file at newPath.
func (f *FS) Rename(oldPath, newPath string) error {
	f.beginOp()
	defer f.endOp()
	if err := f.writable(); err != nil {
		return err
	}
	oldParent, oldName, err := f.resolveParent(oldPath)
	if err != nil {
		return err
	}
	ino, err := f.lookup(oldParent, oldName)
	if err != nil {
		return err
	}
	newParent, newName, err := f.resolveParent(newPath)
	if err != nil {
		return err
	}
	if existing, err := f.lookup(newParent, newName); err == nil {
		en, err := f.getInode(existing)
		if err != nil {
			return err
		}
		if en.Mode == ModeDir {
			return ErrIsDir
		}
		// Replace: unlink the target (inline, not via Unlink to avoid
		// double accounting).
		if err := f.dirRemove(newParent, newName); err != nil {
			return err
		}
		if err := f.C.DropFileData(existing, 0); err != nil {
			return err
		}
		if err := f.freeFileBlocks(&en); err != nil {
			return err
		}
		en = Inode{Mode: ModeFree}
		if err := f.putInode(existing, &en, true); err != nil {
			return err
		}
	} else if err != ErrNotFound {
		return err
	}
	if err := f.dirRemove(oldParent, oldName); err != nil {
		return err
	}
	return f.dirInsert(newParent, newName, ino)
}

// FileInfo is returned by Stat, Lstat, and ReadDir.
type FileInfo struct {
	Name      string
	Ino       uint32
	IsDir     bool
	IsSymlink bool
	Size      int64
}

// Stat describes a path.
func (f *FS) Stat(path string) (FileInfo, error) {
	f.beginOp()
	defer f.endOp()
	ino, err := f.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	n, err := f.getInode(ino)
	if err != nil {
		return FileInfo{}, err
	}
	parts, _ := splitPath(path)
	name := ""
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return FileInfo{Name: name, Ino: ino, IsDir: n.Mode == ModeDir, Size: n.Size}, nil
}

// ReadDir lists a directory.
func (f *FS) ReadDir(path string) ([]FileInfo, error) {
	f.beginOp()
	defer f.endOp()
	ino, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	dir, err := f.getInode(ino)
	if err != nil {
		return nil, err
	}
	if dir.Mode != ModeDir {
		return nil, ErrNotDir
	}
	var out []FileInfo
	err = f.dirScan(ino, &dir, func(d direntView, _ int64, _ int) bool {
		name := string(d.name) // copied out of the directory image
		n, gerr := f.getInode(d.ino)
		if gerr != nil {
			err = gerr
			return true
		}
		out = append(out, FileInfo{Name: name, Ino: d.ino,
			IsDir: n.Mode == ModeDir, IsSymlink: n.Mode == ModeSymlink, Size: n.Size})
		return false
	})
	return out, err
}

// --- file I/O ---

// WriteAt writes data at offset off.
func (fl *File) WriteAt(data []byte, off int64) (int, error) {
	f := fl.fs
	if fl.closed {
		return 0, ErrClosed
	}
	if err := f.writable(); err != nil {
		return 0, err
	}
	f.beginOp()
	defer f.endOp()

	written, err := f.writeBlocks(fl.Ino, data, off)
	if err != nil {
		return written, err
	}

	// Policy-driven data write-back.
	switch {
	case f.Pol.dataWriteThrough():
		if err := f.fsyncData(fl.Ino, true); err != nil {
			return written, err
		}
	case f.Pol.asyncDataOnThreshold():
		nonSeq := fl.lastEnd != 0 && off != fl.lastEnd
		fl.pending += len(data)
		if nonSeq || fl.pending >= f.Pol.AsyncDataThreshold {
			f.asyncFlushData(fl.Ino)
			fl.pending = 0
		}
	}
	fl.lastEnd = off + int64(len(data))
	return written, nil
}

// writeBlocks is the write core shared by the handle path (WriteAt) and
// the handle-free serving path (WriteInoAt): fault in or allocate each
// touched block, write through the cache, and extend the inode size.
// The caller holds beginOp and has checked writability.
func (f *FS) writeBlocks(ino uint32, data []byte, off int64) (int, error) {
	n, err := f.getInode(ino)
	if err != nil {
		return 0, err
	}
	newSize := n.Size
	if off+int64(len(data)) > newSize {
		newSize = off + int64(len(data))
	}
	if newSize > int64(MaxFileBlocks)*BlockSize {
		return 0, ErrTooBig
	}
	inodeDirty := newSize != n.Size

	written := 0
	for written < len(data) {
		o := off + int64(written)
		fb := o / BlockSize
		bo := int(o % BlockSize)
		chunk := BlockSize - bo
		if chunk > len(data)-written {
			chunk = len(data) - written
		}
		buf := f.C.LookupData(ino, fb)
		if buf == nil {
			db, err := f.bmap(&n, fb, true, &inodeDirty)
			if err != nil {
				return written, err
			}
			var content []byte
			// Fault in the old contents only for a partial overwrite of a
			// block that already has data.
			if (bo != 0 || chunk != BlockSize) && fb < n.Blocks() {
				content = f.readBlockSync(db)
			}
			valid := 0
			if end := n.Size - fb*BlockSize; end > 0 {
				if end > BlockSize {
					end = BlockSize
				}
				valid = int(end)
			}
			buf, err = f.C.InsertData(ino, fb, db, content, valid)
			if err != nil {
				return written, err
			}
		}
		valid := int64(BlockSize)
		if end := newSize - fb*BlockSize; end < valid {
			valid = end
		}
		if err := f.C.Write(buf, bo, data[written:written+chunk], int(valid)); err != nil {
			return written, err
		}
		written += chunk
	}

	if inodeDirty || newSize != n.Size {
		n.Size = newSize
		if err := f.putInode(ino, &n, false); err != nil {
			return written, err
		}
	}
	return written, nil
}

// WriteInoAt writes data at off to an inode returned by Lookup, without
// constructing a handle. Policy write-back matches the serving layer's
// old open-write-close sequence exactly: write-through policies sync
// after the write, the async threshold compares against this write
// alone (a fresh handle has no pending count), and sync-on-close
// policies get the flush Close would have issued.
func (f *FS) WriteInoAt(ino uint32, data []byte, off int64) (int, error) {
	if err := f.writable(); err != nil {
		return 0, err
	}
	f.beginOp()
	defer f.endOp()

	written, err := f.writeBlocks(ino, data, off)
	if err != nil {
		return written, err
	}
	switch {
	case f.Pol.dataWriteThrough():
		if err := f.fsyncData(ino, true); err != nil {
			return written, err
		}
	case f.Pol.asyncDataOnThreshold():
		if len(data) >= f.Pol.AsyncDataThreshold {
			f.asyncFlushData(ino)
		}
	}
	if f.Pol.fsyncOnClose() {
		return written, f.fsyncData(ino, true)
	}
	return written, nil
}

// Write appends at the file position.
func (fl *File) Write(data []byte) (int, error) {
	n, err := fl.WriteAt(data, fl.pos)
	fl.pos += int64(n)
	return n, err
}

// ReadAt reads up to len(buf) bytes from offset off.
func (fl *File) ReadAt(buf []byte, off int64) (int, error) {
	f := fl.fs
	if fl.closed {
		return 0, ErrClosed
	}
	f.beginOp()
	defer f.endOp()
	return f.readInoAt(fl.Ino, buf, off, false)
}

// Lookup resolves a path in one walk and returns the fields the serving
// path needs — inode number, size, directory bit — without constructing
// a handle. A follow-up ReadInoAt on the returned inode replaces the
// Stat+Open+ReadAt+Close sequence (three resolutions, one allocation)
// with a single resolution and none.
func (f *FS) Lookup(path string) (ino uint32, size int64, isDir bool, err error) {
	f.beginOp()
	defer f.endOp()
	ino, err = f.resolve(path)
	if err != nil {
		return 0, 0, false, err
	}
	n, err := f.getInode(ino)
	if err != nil {
		return 0, 0, false, err
	}
	return ino, n.Size, n.Mode == ModeDir, nil
}

// ReadInoAt reads up to len(buf) bytes at off from an inode returned by
// Lookup, copying cache frames directly into buf (Cache.ReadDirect's
// one-copy path) instead of bouncing through the kernel staging area.
func (f *FS) ReadInoAt(ino uint32, buf []byte, off int64) (int, error) {
	f.beginOp()
	defer f.endOp()
	return f.readInoAt(ino, buf, off, true)
}

// readInoAt is the block loop shared by File.ReadAt and FS.ReadInoAt;
// direct selects Cache.ReadDirect over the staged ReadInto.
func (f *FS) readInoAt(ino uint32, buf []byte, off int64, direct bool) (int, error) {
	n, err := f.getInode(ino)
	if err != nil {
		return 0, err
	}
	if off >= n.Size {
		return 0, nil
	}
	want := int64(len(buf))
	if off+want > n.Size {
		want = n.Size - off
	}
	read := 0
	var inodeDirty bool
	for int64(read) < want {
		o := off + int64(read)
		fb := o / BlockSize
		bo := int(o % BlockSize)
		chunk := BlockSize - bo
		if int64(chunk) > want-int64(read) {
			chunk = int(want - int64(read))
		}
		b := f.C.LookupData(ino, fb)
		if b == nil {
			db, err := f.bmap(&n, fb, false, &inodeDirty)
			if err != nil {
				return read, err
			}
			var content []byte
			if db != 0 {
				content = f.readBlockSync(db)
			}
			valid := 0
			if end := n.Size - fb*BlockSize; end > 0 {
				if end > BlockSize {
					end = BlockSize
				}
				valid = int(end)
			}
			b, err = f.C.InsertData(ino, fb, db, content, valid)
			if err != nil {
				return read, err
			}
		}
		dst := buf[read : read+chunk]
		if direct {
			err = f.C.ReadDirect(b, bo, dst)
		} else {
			err = f.C.ReadInto(b, bo, dst)
		}
		if err != nil {
			return read, err
		}
		read += chunk
	}
	return read, nil
}

// Read reads from the file position.
func (fl *File) Read(buf []byte) (int, error) {
	n, err := fl.ReadAt(buf, fl.pos)
	fl.pos += int64(n)
	return n, err
}

// Pos returns the current file position.
func (fl *File) Pos() int64 { return fl.pos }

// Size returns the current file size.
func (fl *File) Size() (int64, error) {
	n, err := fl.fs.getInode(fl.Ino)
	return n.Size, err
}

// Close closes the handle, applying the policy's close semantics.
func (fl *File) Close() error {
	if fl.closed {
		return ErrClosed
	}
	f := fl.fs
	f.beginOp()
	defer f.endOp()
	fl.closed = true
	if f.Pol.fsyncOnClose() {
		return f.fsyncData(fl.Ino, true)
	}
	return nil
}

// fsyncData flushes an inode's dirty data pages (and inode block) to disk.
func (f *FS) fsyncData(ino uint32, syncWait bool) error {
	if f.Pol.neverWrite() {
		return nil
	}
	for _, b := range f.C.DirtyBufs(cacheData) {
		if b.Ino != ino || b.Block < 0 {
			continue
		}
		if syncWait {
			f.writeBufSync(b.Block, b)
		} else {
			f.writeBufAsync(b.Block, b, nil)
		}
		if err := f.C.MarkClean(b); err != nil {
			return err
		}
	}
	// Push the inode block too.
	ib := f.C.LookupMeta(f.inodeBlock(ino))
	if ib != nil && ib.Dirty {
		if syncWait {
			f.writeBufSync(ib.Block, ib)
		} else {
			f.writeBufAsync(ib.Block, ib, nil)
		}
		if err := f.C.MarkClean(ib); err != nil {
			return err
		}
	}
	return nil
}

// asyncFlushData pushes an inode's dirty data pages asynchronously,
// sequentially pricing runs of consecutive blocks (the 64 KB UFS chunks).
func (f *FS) asyncFlushData(ino uint32) {
	for _, b := range f.C.DirtyBufs(cacheData) {
		if b.Ino != ino || b.Block < 0 {
			continue
		}
		f.writeBufAsync(b.Block, b, nil)
		_ = f.C.MarkClean(b)
	}
}

// Fsync makes a file durable. Under Rio it returns immediately: every
// write is already as permanent as disk.
func (f *FS) Fsync(fl *File) error {
	f.beginOp()
	defer f.endOp()
	f.Stats.Fsyncs++
	if f.Pol.syncIsNoop() {
		return nil
	}
	return f.fsyncData(fl.Ino, true)
}

// Sync schedules all dirty buffers for write-back (asynchronously, like
// sync(2)). A no-op under Rio and MFS.
func (f *FS) Sync() {
	f.beginOp()
	defer f.endOp()
	if f.Pol.syncIsNoop() {
		return
	}
	f.flushAllAsync()
}

// Unmount flushes everything synchronously and stops the daemon. Used by
// tests and verification flows; performance runs measure workloads without
// unmounting, as the paper did.
func (f *FS) Unmount() {
	if !f.mounted {
		return
	}
	f.mounted = false
	if f.daemonEv != nil {
		f.Eng.Cancel(f.daemonEv)
	}
	if !f.Pol.neverWrite() {
		for _, kind := range []cacheKind{cacheMeta, cacheData} {
			for _, b := range f.C.DirtyBufs(kind) {
				if b.Block >= 0 {
					f.writeBufSync(b.Block, b)
					_ = f.C.MarkClean(b)
				}
			}
		}
	}
	f.drainPending()
}
