package rio

import (
	iofs "io/fs"

	"rio/internal/fs"
)

// File is an open file handle on the simulated file system.
type File struct {
	f   *fs.File
	sys *System
}

// Create makes a new file, failing if the path exists.
func (s *System) Create(path string) (*File, error) {
	f, err := s.m.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &File{f: f, sys: s}, nil
}

// Open opens an existing file.
func (s *System) Open(path string) (*File, error) {
	f, err := s.m.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return &File{f: f, sys: s}, nil
}

// Lookup resolves a path in one directory walk and returns its inode
// number, size, and directory bit without allocating a handle. Paired
// with ReadInoAt it forms the server's zero-copy read path.
func (s *System) Lookup(path string) (ino uint32, size int64, isDir bool, err error) {
	return s.m.FS.Lookup(path)
}

// ReadInoAt reads up to len(p) bytes at off from an inode returned by
// Lookup, copying cache frames directly into p (one copy, no staging
// bounce, no handle).
func (s *System) ReadInoAt(ino uint32, p []byte, off int64) (int, error) {
	return s.m.FS.ReadInoAt(ino, p, off)
}

// WriteInoAt writes p at off to an inode returned by Lookup, without
// allocating a handle — the serving layer's write analogue of
// ReadInoAt. Policy write-back behaves as a freshly opened handle
// would.
func (s *System) WriteInoAt(ino uint32, p []byte, off int64) (int, error) {
	return s.m.FS.WriteInoAt(ino, p, off)
}

// Write appends at the file position.
func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// WriteAt writes at an absolute offset.
func (f *File) WriteAt(p []byte, off int64) (int, error) { return f.f.WriteAt(p, off) }

// Read reads from the file position.
func (f *File) Read(p []byte) (int, error) { return f.f.Read(p) }

// ReadAt reads from an absolute offset.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

// Size returns the file's current size.
func (f *File) Size() (int64, error) { return f.f.Size() }

// Sync makes the file durable. Under Rio this returns immediately: the
// write already was durable.
func (f *File) Sync() error { return f.sys.m.FS.Fsync(f.f) }

// Close closes the handle (under write-through-on-close policies this
// flushes).
func (f *File) Close() error { return f.f.Close() }

// WriteFile creates (or replaces) path with data.
func (s *System) WriteFile(path string, data []byte) error {
	if _, err := s.m.FS.Stat(path); err == nil {
		if err := s.m.FS.Unlink(path); err != nil {
			return err
		}
	}
	f, err := s.m.FS.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile returns the full contents of path.
func (s *System) ReadFile(path string) ([]byte, error) {
	st, err := s.m.FS.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := s.m.FS.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, st.Size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// Mkdir creates a directory.
func (s *System) Mkdir(path string) error { return s.m.FS.Mkdir(path) }

// Remove unlinks a file or symbolic link, or removes an empty directory.
func (s *System) Remove(path string) error { return s.m.FS.Remove(path) }

// Rename moves a file, replacing any regular file at the destination.
func (s *System) Rename(oldPath, newPath string) error {
	return s.m.FS.Rename(oldPath, newPath)
}

// DirEntry describes one directory entry.
type DirEntry struct {
	Name      string
	IsDir     bool
	IsSymlink bool
	Size      int64
}

// ReadDir lists a directory.
func (s *System) ReadDir(path string) ([]DirEntry, error) {
	ents, err := s.m.FS.ReadDir(path)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, len(ents))
	for i, e := range ents {
		out[i] = DirEntry{Name: e.Name, IsDir: e.IsDir, IsSymlink: e.IsSymlink, Size: e.Size}
	}
	return out, nil
}

// Stat describes a path, following symbolic links.
func (s *System) Stat(path string) (DirEntry, error) {
	st, err := s.m.FS.Stat(path)
	if err != nil {
		return DirEntry{}, err
	}
	return DirEntry{Name: st.Name, IsDir: st.IsDir, IsSymlink: st.IsSymlink, Size: st.Size}, nil
}

// Lstat describes a path without following a final symbolic link.
func (s *System) Lstat(path string) (DirEntry, error) {
	st, err := s.m.FS.Lstat(path)
	if err != nil {
		return DirEntry{}, err
	}
	return DirEntry{Name: st.Name, IsDir: st.IsDir, IsSymlink: st.IsSymlink, Size: st.Size}, nil
}

// Symlink creates a symbolic link at linkPath pointing at target.
func (s *System) Symlink(target, linkPath string) error {
	return s.m.FS.Symlink(target, linkPath)
}

// Readlink returns a symbolic link's target.
func (s *System) Readlink(path string) (string, error) {
	return s.m.FS.Readlink(path)
}

// Sync schedules all dirty buffers for write-back; a no-op under Rio and
// MFS.
func (s *System) Sync() { s.m.FS.Sync() }

// IsNotExist reports whether err means the path does not exist, in the
// manner of os.IsNotExist.
func IsNotExist(err error) bool {
	return err == fs.ErrNotFound || err == iofs.ErrNotExist
}
