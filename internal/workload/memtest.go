// Package workload implements the paper's workloads: memTest (the
// crash-test oracle workload of §3.2), and the three performance workloads
// of Table 2 — cp+rm, Sdet, and Andrew.
package workload

import (
	"bytes"
	"fmt"
	"sort"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/sim"
)

// Corruption describes one verified mismatch between the oracle and the
// recovered file system.
type Corruption struct {
	Path   string
	Detail string
}

func (c Corruption) String() string { return c.Path + ": " + c.Detail }

// MemTest is the repeatable oracle workload: a PRNG-driven stream of file
// and directory creations, deletions, reads, and writes whose correct
// state is known at every instant.
type MemTest struct {
	// WriteThrough makes memTest call fsync after every write, as the
	// paper's disk-based baseline runs do.
	WriteThrough bool
	// MaxBytes bounds the file-set size (the paper used 100 MB; scaled
	// here).
	MaxBytes int

	rng       *sim.Rand
	oracle    map[string][]byte
	names     []string // deterministic ordering of oracle keys
	links     map[string]string
	linkNames []string
	dirs      []string
	steps     int
	total     int

	// inFlight is the op that was executing when the last Step returned
	// an error (the zero Op after every successful Step).
	inFlight Op

	// ReadMismatches counts online read verification failures (data
	// returned to the "application" that disagreed with the oracle).
	ReadMismatches int
}

// NewMemTest returns a memTest stream for the given seed.
func NewMemTest(seed uint64, maxBytes int) *MemTest {
	return &MemTest{
		MaxBytes: maxBytes,
		rng:      sim.NewRand(seed),
		oracle:   make(map[string][]byte),
		links:    make(map[string]string),
		dirs:     []string{""},
	}
}

// Steps returns the number of completed operations.
func (mt *MemTest) Steps() int { return mt.steps }

// FileCount returns the current oracle file count.
func (mt *MemTest) FileCount() int { return len(mt.oracle) }

func (mt *MemTest) dirPath() string {
	return mt.dirs[mt.rng.Intn(len(mt.dirs))]
}

// pickFile returns a uniformly random live file. Selection uses the names
// slice, never map iteration, so a given seed always produces the same
// stream — crash runs must be replayable from their seed.
func (mt *MemTest) pickFile() string {
	if len(mt.names) == 0 {
		return ""
	}
	return mt.names[mt.rng.Intn(len(mt.names))]
}

func (mt *MemTest) addName(p string) { mt.names = append(mt.names, p) }
func (mt *MemTest) removeName(p string) {
	for i, n := range mt.names {
		if n == p {
			mt.names[i] = mt.names[len(mt.names)-1]
			mt.names = mt.names[:len(mt.names)-1]
			return
		}
	}
}

// Step executes the next operation against fsys. On a crash the error is
// returned and inFlight records the interrupted op.
func (mt *MemTest) Step(fsys *fs.FS) error {
	mt.steps++
	r := mt.rng.Float64()
	switch {
	case r < 0.22 || len(mt.oracle) == 0:
		return mt.doCreate(fsys)
	case r < 0.45:
		return mt.doAppend(fsys)
	case r < 0.60:
		return mt.doOverwrite(fsys)
	case r < 0.75:
		return mt.doRead(fsys)
	case r < 0.85:
		return mt.doDelete(fsys)
	case r < 0.90:
		return mt.doMkdir(fsys)
	case r < 0.95:
		return mt.doSymlink(fsys)
	default:
		return mt.doStat(fsys)
	}
}

// noteBytes enforces MaxBytes by deleting a file when over budget.
func (mt *MemTest) overBudget() bool { return mt.total > mt.MaxBytes }

func (mt *MemTest) content(n int) []byte {
	return kernel.FillBytes(n, mt.rng.Uint64()|1)
}

func (mt *MemTest) doCreate(fsys *fs.FS) error {
	if mt.overBudget() {
		return mt.doDelete(fsys)
	}
	name := fmt.Sprintf("%s/mt%06d", mt.dirPath(), mt.steps)
	data := mt.content(mt.pickSize())
	if _, err := do(fsys, &mt.inFlight, Op{Kind: OpCreate, Path: name, Data: data, Sync: mt.WriteThrough}); err != nil {
		return err
	}
	mt.oracle[name] = data
	mt.addName(name)
	mt.total += len(data)
	return nil
}

// pickSize draws a file/write size skewed towards small files with an
// occasional multi-block one, echoing real file-size distributions.
func (mt *MemTest) pickSize() int {
	switch p := mt.rng.Float64(); {
	case p < 0.5:
		return mt.rng.Range(1, 2048)
	case p < 0.85:
		return mt.rng.Range(2048, fs.BlockSize)
	default:
		return mt.rng.Range(fs.BlockSize, 3*fs.BlockSize)
	}
}

func (mt *MemTest) doAppend(fsys *fs.FS) error {
	path := mt.pickFile()
	if path == "" {
		return mt.doCreate(fsys)
	}
	return mt.write(fsys, path, len(mt.oracle[path]), mt.content(mt.pickSize()))
}

func (mt *MemTest) doOverwrite(fsys *fs.FS) error {
	path := mt.pickFile()
	if path == "" {
		return mt.doCreate(fsys)
	}
	old := mt.oracle[path]
	if len(old) == 0 {
		return mt.doAppend(fsys)
	}
	off := mt.rng.Intn(len(old))
	return mt.write(fsys, path, off, mt.content(mt.rng.Range(1, len(old)-off)))
}

// write writes data at off of path and folds it into the oracle.
func (mt *MemTest) write(fsys *fs.FS, path string, off int, data []byte) error {
	op := Op{Kind: OpWrite, Path: path, Off: int64(off), Data: data, Sync: mt.WriteThrough}
	if _, err := do(fsys, &mt.inFlight, op); err != nil {
		return err
	}
	old := mt.oracle[path]
	fresh := make([]byte, max(len(old), off+len(data)))
	copy(fresh, old)
	copy(fresh[off:], data)
	mt.total += len(fresh) - len(old)
	mt.oracle[path] = fresh
	return nil
}

func (mt *MemTest) doRead(fsys *fs.FS) error {
	path := mt.pickFile()
	if path == "" {
		return mt.doCreate(fsys)
	}
	want := mt.oracle[path]
	r, err := do(fsys, &mt.inFlight, Op{Kind: OpReadN, Path: path, N: len(want)})
	if err != nil {
		return err
	}
	if !bytes.Equal(r.Data, want) {
		mt.ReadMismatches++
	}
	return nil
}

func (mt *MemTest) doDelete(fsys *fs.FS) error {
	path := mt.pickFile()
	if path == "" {
		return mt.doCreate(fsys)
	}
	if _, err := do(fsys, &mt.inFlight, Op{Kind: OpUnlink, Path: path}); err != nil {
		return err
	}
	mt.total -= len(mt.oracle[path])
	delete(mt.oracle, path)
	mt.removeName(path)
	return nil
}

func (mt *MemTest) doMkdir(fsys *fs.FS) error {
	if len(mt.dirs) >= 8 {
		return mt.doStat(fsys)
	}
	name := fmt.Sprintf("%s/d%03d", mt.dirPath(), len(mt.dirs))
	if _, err := do(fsys, &mt.inFlight, Op{Kind: OpMkdir, Path: name}); err != nil {
		return err
	}
	mt.dirs = append(mt.dirs, name)
	return nil
}

// doSymlink creates a link to a live file (and occasionally retires one),
// exercising the symbolic-link metadata the paper notes lives in the
// buffer cache.
func (mt *MemTest) doSymlink(fsys *fs.FS) error {
	if len(mt.linkNames) > 12 {
		link := mt.linkNames[mt.rng.Intn(len(mt.linkNames))]
		if _, err := do(fsys, &mt.inFlight, Op{Kind: OpUnlink, Path: link}); err != nil {
			return err
		}
		delete(mt.links, link)
		for i, n := range mt.linkNames {
			if n == link {
				mt.linkNames[i] = mt.linkNames[len(mt.linkNames)-1]
				mt.linkNames = mt.linkNames[:len(mt.linkNames)-1]
				break
			}
		}
		return nil
	}
	target := mt.pickFile()
	if target == "" {
		return mt.doCreate(fsys)
	}
	name := fmt.Sprintf("%s/mtln%06d", mt.dirPath(), mt.steps)
	if _, err := do(fsys, &mt.inFlight, Op{Kind: OpSymlink, Path: name, Path2: target}); err != nil {
		return err
	}
	mt.links[name] = target
	mt.linkNames = append(mt.linkNames, name)
	// Online check: read through the link and compare to the oracle.
	want := mt.oracle[target]
	r, err := Apply(fsys, Op{Kind: OpReadN, Path: name, N: len(want)})
	if err != nil {
		return err
	}
	if !bytes.Equal(r.Data, want) {
		mt.ReadMismatches++
	}
	return nil
}

func (mt *MemTest) doStat(fsys *fs.FS) error {
	path := mt.pickFile()
	if path == "" {
		return mt.doCreate(fsys)
	}
	r, err := do(fsys, &mt.inFlight, Op{Kind: OpStat, Path: path})
	if err != nil {
		return err
	}
	if r.Info.Size != int64(len(mt.oracle[path])) {
		mt.ReadMismatches++
	}
	return nil
}

// Check implements Workload: it compares the recovered file system
// against the oracle, excluding the byte range (and existence) touched by
// the in-flight op. It mirrors the paper's procedure of replaying memTest
// to the crash point and diffing the reconstructed directory against the
// restored one. Every mismatch is a detected corruption.
func (mt *MemTest) Check(fsys *fs.FS) Verdict {
	var out []Corruption
	fl := mt.inFlight
	inflight := func(path string) OpKind { // the kind of the op in flight on path
		if fl.Path == path {
			return fl.Kind
		}
		return 0
	}

	// Verification reads go through the real cache and I/O stack, so
	// their order is simulation state; walk the oracle in sorted path
	// order, not map order.
	paths := make([]string, 0, len(mt.oracle))
	for path := range mt.oracle {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		want := mt.oracle[path]
		kind := inflight(path)
		if kind == OpUnlink {
			continue // may be gone or present; both fine
		}
		got, err := fsys.ReadFile(path)
		if err != nil {
			out = append(out, Corruption{path, "unreadable: " + err.Error()})
			continue
		}
		// An in-flight write masks its byte range, and the file may end
		// anywhere from its acked size to the end of the write.
		size := int64(len(got))
		okSize := size == int64(len(want))
		var lo, hi int64 = -1, -1
		if kind == OpWrite {
			lo, hi = fl.Off, fl.Off+int64(len(fl.Data))
			okSize = size >= int64(len(want)) && size <= max(int64(len(want)), hi)
		}
		if !okSize {
			out = append(out, Corruption{path,
				fmt.Sprintf("size %d, want %d", size, len(want))})
			continue
		}
		n := min(size, int64(len(want)))
		for i := int64(0); i < n; i++ {
			if i >= lo && i < hi {
				continue
			}
			if got[i] != want[i] {
				out = append(out, Corruption{path,
					fmt.Sprintf("byte %d: got %#x, want %#x", i, got[i], want[i])})
				break
			}
		}
	}

	// Symbolic links: each recorded link must still point at its target
	// (sorted order, for the same reason as above).
	links := make([]string, 0, len(mt.links))
	for link := range mt.links {
		links = append(links, link)
	}
	sort.Strings(links)
	for _, link := range links {
		target := mt.links[link]
		if inflight(link) != 0 {
			continue // creation or deletion was in flight; either state is fine
		}
		got, err := fsys.Readlink(link)
		if err != nil {
			out = append(out, Corruption{link, "link lost: " + err.Error()})
			continue
		}
		if got != target {
			out = append(out, Corruption{link,
				fmt.Sprintf("link target %q, want %q", got, target)})
		}
	}

	// Files that exist but shouldn't.
	seen := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range ents {
			p := dir + "/" + e.Name
			if dir == "/" {
				p = "/" + e.Name
			}
			if e.IsDir {
				walk(p)
				continue
			}
			if e.IsSymlink {
				if _, ok := mt.links[p]; ok {
					continue
				}
				if k := inflight(p); k == OpSymlink || k == OpUnlink {
					continue
				}
				if isMemTestPath(p) {
					out = append(out, Corruption{p, "unexpected symlink"})
				}
				continue
			}
			seen[p] = true
			if _, ok := mt.oracle[p]; !ok {
				if inflight(p) == OpCreate {
					continue // create was in flight; existing is fine
				}
				if !isMemTestPath(p) {
					continue // not ours (static files etc.)
				}
				out = append(out, Corruption{p, "unexpected file"})
			}
		}
	}
	walk("/")
	return Verdict{Checked: len(mt.oracle) + len(mt.links), Corruptions: out}
}

// isMemTestPath reports whether memTest owns the path.
func isMemTestPath(p string) bool {
	for i := 0; i+2 < len(p); i++ {
		if p[i] == '/' && p[i+1] == 'm' && p[i+2] == 't' {
			return true
		}
	}
	return false
}
