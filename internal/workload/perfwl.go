package workload

import (
	"fmt"
	"strings"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/sim"
)

// The three performance workloads of Table 2. Each runs against a mounted
// machine and reports the simulated elapsed time of its timed phases.
// Sizes are scaled down from the paper (whose cp+rm tree was the 40 MB
// Digital Unix source); Scale multiplies the defaults.
//
// "User CPU" — the time the benchmark processes themselves burn between
// system calls (cp's read/write loop, the compiler, shell script
// interpretation) — is charged directly to the clock. It is what keeps the
// memory-resident configurations from looking infinitely fast and sets the
// floor that Table 2's MFS row represents.

// Tree describes a synthetic source tree.
type Tree struct {
	Dirs  []string
	Files []TreeFile
}

// TreeFile is one file of a synthetic tree.
type TreeFile struct {
	Path string
	Size int
	Seed uint64
}

// TotalBytes sums the tree's file sizes.
func (t *Tree) TotalBytes() int {
	n := 0
	for _, f := range t.Files {
		n += f.Size
	}
	return n
}

// MakeTree builds a deterministic source-tree description of roughly
// targetBytes under root. File sizes follow a source-code-like mix of
// small headers and larger sources.
func MakeTree(root string, targetBytes int, seed uint64) *Tree {
	rng := sim.NewRand(seed)
	t := &Tree{Dirs: []string{root}}
	ndirs := 8
	for d := 0; d < ndirs; d++ {
		t.Dirs = append(t.Dirs, fmt.Sprintf("%s/dir%02d", root, d))
	}
	total := 0
	for i := 0; total < targetBytes; i++ {
		var size int
		switch p := rng.Float64(); {
		case p < 0.4:
			size = rng.Range(200, 2000) // headers, makefiles
		case p < 0.85:
			size = rng.Range(2000, 20000) // typical sources
		default:
			size = rng.Range(20000, 80000) // big generated files
		}
		dir := t.Dirs[1+rng.Intn(ndirs)]
		t.Files = append(t.Files, TreeFile{
			Path: fmt.Sprintf("%s/f%04d.c", dir, i),
			Size: size,
			Seed: rng.Uint64() | 1,
		})
		total += size
	}
	return t
}

// BuildTree materialises the tree on the file system.
func BuildTree(fsys *fs.FS, t *Tree) error {
	if err := mkdirs(fsys, t.Dirs...); err != nil {
		return err
	}
	for _, tf := range t.Files {
		op := Op{Kind: OpCreate, Path: tf.Path, Data: kernel.FillBytes(tf.Size, tf.Seed), Chunk: fs.BlockSize}
		if _, err := Apply(fsys, op); err != nil {
			return err
		}
	}
	return nil
}

// CpRm is the paper's cp+rm workload: recursively copy a source tree, then
// recursively remove the copy.
type CpRm struct {
	// TreeBytes is the source-tree size (the paper used the 40 MB Digital
	// Unix source; default 4 MB).
	TreeBytes int
	Seed      uint64
	// UserCPUPerFile and UserCPUPerByte model cp/rm process time.
	UserCPUPerFile sim.Duration
	UserCPUPerByte sim.Duration
}

// DefaultCpRm returns the standard configuration.
func DefaultCpRm() *CpRm {
	return &CpRm{
		TreeBytes:      4 << 20,
		Seed:           1996,
		UserCPUPerFile: 2 * sim.Millisecond,
		UserCPUPerByte: 90, // ~11 MB/s user-side processing
	}
}

func (w *CpRm) userCPU(m *machine.Machine, files, bytes int) {
	m.Clock.Advance(sim.Duration(files)*w.UserCPUPerFile +
		sim.Duration(bytes)*w.UserCPUPerByte)
}

// Run executes the workload; the returned durations are (copy, remove).
// The source tree is built untimed, as the paper's tree pre-existed. For
// disk-backed configurations the caches are then dropped: the benchmark
// starts on a freshly booted machine whose tree lives on disk. MFS keeps
// the tree in memory (it has nowhere else), and so does Rio — its file
// cache *survives* reboots, which is part of why it matches MFS here.
func (w *CpRm) Run(m *machine.Machine) (cp, rm sim.Duration, err error) {
	tree := MakeTree("/src", w.TreeBytes, w.Seed)
	if err := BuildTree(m.FS, tree); err != nil {
		return 0, 0, fmt.Errorf("cp+rm setup: %w", err)
	}
	if err := m.FS.DropCaches(); err != nil {
		return 0, 0, err
	}

	// cp walks directory by directory (find order), not creation order —
	// which is what scatters the read pattern across the disk.
	byDir := map[string][]TreeFile{}
	for _, tf := range tree.Files {
		d := tf.Path[:strings.LastIndex(tf.Path, "/")]
		byDir[d] = append(byDir[d], tf)
	}
	var walk []TreeFile
	for _, d := range tree.Dirs[1:] {
		walk = append(walk, byDir[d]...)
	}

	// Timed phase 1: recursive copy (tree.Dirs[0] is the root).
	t0 := m.Clock.Now()
	for _, d := range tree.Dirs {
		if _, err := Apply(m.FS, Op{Kind: OpMkdir, Path: "/dst" + d[len("/src"):]}); err != nil {
			return 0, 0, err
		}
	}
	for _, tf := range walk {
		r, err := Apply(m.FS, Op{Kind: OpReadFile, Path: tf.Path})
		if err != nil {
			return 0, 0, err
		}
		dst := Op{Kind: OpCreate, Path: "/dst" + tf.Path[len("/src"):], Data: r.Data, Chunk: fs.BlockSize}
		if _, err := Apply(m.FS, dst); err != nil {
			return 0, 0, err
		}
		w.userCPU(m, 1, len(r.Data))
	}
	t1 := m.Clock.Now()

	// Timed phase 2: recursive remove of the copy.
	for _, tf := range walk {
		if _, err := Apply(m.FS, Op{Kind: OpUnlink, Path: "/dst" + tf.Path[len("/src"):]}); err != nil {
			return 0, 0, err
		}
		w.userCPU(m, 1, 0)
	}
	for i := len(tree.Dirs) - 1; i >= 0; i-- {
		if _, err := Apply(m.FS, Op{Kind: OpRmdir, Path: "/dst" + tree.Dirs[i][len("/src"):]}); err != nil {
			return 0, 0, err
		}
	}
	t2 := m.Clock.Now()
	return t1.Sub(t0), t2.Sub(t1), nil
}

// Sdet models SPEC SDM's Sdet: concurrent scripts of shell-like software
// development activity (creates, edits, reads, scans, deletes), heavily
// metadata-bound.
type Sdet struct {
	Scripts      int // the paper ran 5 scripts
	OpsPerScript int
	Seed         uint64
	// ThinkTime is user/shell CPU per script operation.
	ThinkTime sim.Duration
}

// DefaultSdet returns the 5-script configuration.
func DefaultSdet() *Sdet {
	return &Sdet{
		Scripts:      5,
		OpsPerScript: 220,
		Seed:         5309,
		ThinkTime:    1 * sim.Millisecond,
	}
}

// Run executes the scripts round-robin (the time-sliced interleaving of a
// multi-user system) and returns the makespan.
func (w *Sdet) Run(m *machine.Machine) (sim.Duration, error) {
	rng := sim.NewRand(w.Seed)
	t0 := m.Clock.Now()
	type script struct {
		dir   string
		files []string
		n     int
	}
	scripts := make([]*script, w.Scripts)
	for i := range scripts {
		dir := fmt.Sprintf("/sdet%d", i)
		if _, err := Apply(m.FS, Op{Kind: OpMkdir, Path: dir}); err != nil {
			return 0, err
		}
		scripts[i] = &script{dir: dir}
	}
	for done := 0; done < w.Scripts; {
		done = 0
		for _, s := range scripts {
			if s.n >= w.OpsPerScript {
				done++
				continue
			}
			s.n++
			m.Clock.Advance(w.ThinkTime)
			if err := w.step(m, rng, s.dir, &s.files); err != nil {
				return 0, err
			}
		}
	}
	return m.Clock.Now().Sub(t0), nil
}

func (w *Sdet) step(m *machine.Machine, rng *sim.Rand, dir string, files *[]string) error {
	switch p := rng.Float64(); {
	case p < 0.30 || len(*files) == 0: // create a file
		// Create on its own: the size and seed are drawn only once it
		// succeeds, so a name that exists draws nothing.
		name := fmt.Sprintf("%s/w%05d", dir, rng.Intn(1<<20))
		f, err := m.FS.Create(name)
		if err == fs.ErrExists {
			return nil
		}
		if err != nil {
			return err
		}
		op := Op{Data: kernel.FillBytes(rng.Range(500, 12000), rng.Uint64()|1), Chunk: fs.BlockSize}
		if err := writeClose(m.FS, f, op); err != nil {
			return err
		}
		*files = append(*files, name)
	case p < 0.50: // edit: append to a file
		name := (*files)[rng.Intn(len(*files))]
		op := Op{Kind: OpAppend, Path: name, Data: kernel.FillBytes(rng.Range(100, 4000), rng.Uint64()|1)}
		if _, err := Apply(m.FS, op); err != nil {
			return err
		}
	case p < 0.70: // read a file
		name := (*files)[rng.Intn(len(*files))]
		if _, err := Apply(m.FS, Op{Kind: OpReadFile, Path: name}); err != nil {
			return err
		}
	case p < 0.85: // scan the directory (ls -l)
		r, err := Apply(m.FS, Op{Kind: OpReadDir, Path: dir})
		if err != nil {
			return err
		}
		for _, e := range r.Ents {
			if _, err := Apply(m.FS, Op{Kind: OpStat, Path: dir + "/" + e.Name}); err != nil {
				return err
			}
		}
	default: // delete a file
		i := rng.Intn(len(*files))
		name := (*files)[i]
		if _, err := Apply(m.FS, Op{Kind: OpUnlink, Path: name}); err != nil {
			return err
		}
		(*files)[i] = (*files)[len(*files)-1]
		*files = (*files)[:len(*files)-1]
	}
	return nil
}

// Andrew models the Andrew benchmark's five phases: make directories, copy
// the sources, stat every file, read every file, and compile — the last
// dominated by CPU, as the paper notes.
type Andrew struct {
	TreeBytes int
	Seed      uint64
	// CompileCPUPerByte is compiler CPU charged per source byte.
	CompileCPUPerByte sim.Duration
	// UserCPUPerFile covers the non-compile phases' tool overhead.
	UserCPUPerFile sim.Duration
}

// DefaultAndrew returns the standard configuration.
func DefaultAndrew() *Andrew {
	return &Andrew{
		TreeBytes:         600 << 10, // the Andrew tree is small
		Seed:              1988,
		CompileCPUPerByte: 5 * sim.Microsecond, // ~200 KB/s compile rate
		UserCPUPerFile:    1 * sim.Millisecond,
	}
}

// Run executes the five phases and returns the total elapsed time.
func (w *Andrew) Run(m *machine.Machine) (sim.Duration, error) {
	tree := MakeTree("/andrew-src", w.TreeBytes, w.Seed)
	if err := BuildTree(m.FS, tree); err != nil {
		return 0, err
	}
	if err := m.FS.DropCaches(); err != nil {
		return 0, err
	}
	if _, err := Apply(m.FS, Op{Kind: OpMkdir, Path: "/tmp"}); err != nil {
		return 0, err
	}
	t0 := m.Clock.Now()
	dst := func(src string) string { return "/andrew" + src[len("/andrew-src"):] }

	// Phase 1: mkdir (tree.Dirs[0] is the root).
	for _, d := range tree.Dirs {
		if _, err := Apply(m.FS, Op{Kind: OpMkdir, Path: dst(d)}); err != nil {
			return 0, err
		}
	}
	// Phase 2: copy.
	for _, tf := range tree.Files {
		r, err := Apply(m.FS, Op{Kind: OpReadFile, Path: tf.Path})
		if err != nil {
			return 0, err
		}
		if _, err := Apply(m.FS, Op{Kind: OpCreate, Path: dst(tf.Path), Data: r.Data, Chunk: fs.BlockSize}); err != nil {
			return 0, err
		}
		m.Clock.Advance(w.UserCPUPerFile)
	}
	// Phase 3: stat everything (find/ls/du).
	for pass := 0; pass < 2; pass++ {
		for _, tf := range tree.Files {
			if _, err := Apply(m.FS, Op{Kind: OpStat, Path: dst(tf.Path)}); err != nil {
				return 0, err
			}
			m.Clock.Advance(w.UserCPUPerFile / 4)
		}
	}
	// Phase 4: read everything (grep/wc).
	for _, tf := range tree.Files {
		if _, err := Apply(m.FS, Op{Kind: OpReadFile, Path: dst(tf.Path)}); err != nil {
			return 0, err
		}
		m.Clock.Advance(w.UserCPUPerFile / 2)
	}
	// Phase 5: compile — CPU-heavy, but also I/O-chatty: each cc run
	// emits preprocessor and assembler temporaries (written in small
	// chunks, as real tool pipelines do), then the object, then unlinks
	// the temporaries.
	var objs []string
	for i, tf := range tree.Files {
		r, err := Apply(m.FS, Op{Kind: OpReadFile, Path: dst(tf.Path)})
		if err != nil {
			return 0, err
		}
		n := len(r.Data)
		m.Clock.Advance(sim.Duration(n) * w.CompileCPUPerByte)

		tmpI := fmt.Sprintf("/tmp/cc%04d.i", i)
		tmpS := fmt.Sprintf("/tmp/cc%04d.s", i)
		obj := fmt.Sprintf("/andrew/obj%04d.o", i)
		for _, op := range []Op{
			{Kind: OpCreate, Path: tmpI, Data: kernel.FillBytes(n+n/4, sim.Mix(tf.Seed, uint64(len(tmpI)))), Chunk: 2048},
			{Kind: OpCreate, Path: tmpS, Data: kernel.FillBytes(n/2, sim.Mix(tf.Seed, uint64(len(tmpS)))), Chunk: 2048},
			{Kind: OpCreate, Path: obj, Data: kernel.FillBytes(n*6/10, sim.Mix(tf.Seed, 0xb1)), Chunk: 2048},
			{Kind: OpUnlink, Path: tmpI},
			{Kind: OpUnlink, Path: tmpS},
		} {
			if _, err := Apply(m.FS, op); err != nil {
				return 0, err
			}
		}
		objs = append(objs, obj)
	}
	// Link.
	totalObj := 0
	for _, o := range objs {
		r, err := Apply(m.FS, Op{Kind: OpReadFile, Path: o})
		if err != nil {
			return 0, err
		}
		totalObj += len(r.Data)
	}
	m.Clock.Advance(sim.Duration(totalObj) * w.CompileCPUPerByte / 4)
	out := Op{Kind: OpCreate, Path: "/andrew/a.out", Data: kernel.FillBytes(totalObj/2, 0xa0a7), Chunk: fs.BlockSize}
	if _, err := Apply(m.FS, out); err != nil {
		return 0, err
	}
	return m.Clock.Now().Sub(t0), nil
}
