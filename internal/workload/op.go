package workload

import (
	"fmt"

	"rio/internal/fs"
)

// OpKind names the file-system operation an Op performs.
type OpKind uint8

// The zero OpKind is no op: the zero Op is "nothing in flight".
const (
	OpCreate   OpKind = iota + 1 // Create Path, write Data, Close
	OpPut                        // Open Path (Create it if missing), write Data, Close
	OpWrite                      // Open Path, write Data at Off, Close
	OpAppend                     // Open Path, Stat it, write Data at its size, Close
	OpReadN                      // Open Path, read N bytes at 0, Close
	OpReadFile                   // read the whole of Path
	OpUnlink
	OpMkdir
	OpRmdir
	OpRename  // Path to Path2
	OpSymlink // Path becomes a link to Path2
	OpStat
	OpReadDir
)

// Op is one workload operation on the file system: what Apply runs, and
// the record of the op in flight that a workload's Check masks after a
// crash.
type Op struct {
	Kind  OpKind
	Path  string
	Path2 string // OpRename's destination, OpSymlink's target
	Off   int64  // where OpWrite writes
	Data  []byte // what the write kinds write
	N     int    // how many bytes OpReadN reads
	Sync  bool   // fsync the written file before Close
	// Chunk writes Data Chunk bytes at a time (0: in one write): a block
	// at a time as cp(1) does, which separates write-through-on-write (a
	// sync per chunk) from write-through-on-close (one batched flush), or
	// the small pieces compilers emit, which make the "sync" mount so
	// painful on Andrew.
	Chunk int
}

// Result is what an Op read.
type Result struct {
	Data []byte        // OpReadN, OpReadFile
	Info fs.FileInfo   // OpStat, OpAppend
	Ents []fs.FileInfo // OpReadDir
}

// Apply performs op on fsys; it is every workload's way into the file
// system. On an error a file it opened is left open: a Close there would
// be one more simulated syscall, a flush under the fsync-on-close
// policies.
func Apply(fsys *fs.FS, op Op) (Result, error) {
	var r Result
	var f *fs.File
	var err error
	switch op.Kind {
	case OpCreate:
		f, err = fsys.Create(op.Path)
	case OpPut:
		if f, err = fsys.Open(op.Path); err == fs.ErrNotFound {
			f, err = fsys.Create(op.Path)
		}
	case OpWrite:
		f, err = fsys.Open(op.Path)
	case OpAppend:
		if f, err = fsys.Open(op.Path); err == nil {
			r.Info, err = fsys.Stat(op.Path)
			op.Off = r.Info.Size
		}
	case OpReadN:
		if f, err = fsys.Open(op.Path); err != nil {
			return r, err
		}
		r.Data = make([]byte, op.N)
		if _, err = f.ReadAt(r.Data, 0); err != nil {
			return r, err
		}
		return r, f.Close()
	case OpReadFile:
		r.Data, err = fsys.ReadFile(op.Path)
		return r, err
	case OpUnlink:
		return r, fsys.Unlink(op.Path)
	case OpMkdir:
		return r, fsys.Mkdir(op.Path)
	case OpRmdir:
		return r, fsys.Rmdir(op.Path)
	case OpRename:
		return r, fsys.Rename(op.Path, op.Path2)
	case OpSymlink:
		return r, fsys.Symlink(op.Path2, op.Path)
	case OpStat:
		r.Info, err = fsys.Stat(op.Path)
		return r, err
	case OpReadDir:
		r.Ents, err = fsys.ReadDir(op.Path)
		return r, err
	default:
		return r, fmt.Errorf("workload: op kind %d", op.Kind)
	}
	if err != nil {
		return r, err
	}
	return r, writeClose(fsys, f, op)
}

// writeClose writes op.Data to the open file f at op.Off, in op.Chunk
// pieces when that is set, fsyncs when op.Sync is set, and closes f. On
// an error f is left open.
func writeClose(fsys *fs.FS, f *fs.File, op Op) error {
	var err error
	if op.Chunk == 0 {
		_, err = f.WriteAt(op.Data, op.Off)
	}
	for o := 0; op.Chunk > 0 && o < len(op.Data) && err == nil; o += op.Chunk {
		_, err = f.WriteAt(op.Data[o:min(o+op.Chunk, len(op.Data))], op.Off+int64(o))
	}
	if err == nil && op.Sync {
		err = fsys.Fsync(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// do runs op as the workload's op in flight: *fl holds op while it runs
// and is cleared when it succeeds, so after a crash *fl names the one op
// whose effects Check may find half done.
func do(fsys *fs.FS, fl *Op, op Op) (Result, error) {
	*fl = op
	r, err := Apply(fsys, op)
	if err == nil {
		*fl = Op{}
	}
	return r, err
}

// mkdirs creates dirs in order; a directory that exists already is fine.
func mkdirs(fsys *fs.FS, dirs ...string) error {
	for _, d := range dirs {
		if _, err := Apply(fsys, Op{Kind: OpMkdir, Path: d}); err != nil && err != fs.ErrExists {
			return err
		}
	}
	return nil
}
