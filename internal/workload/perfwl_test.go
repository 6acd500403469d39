package workload

import (
	"testing"

	"rio/internal/fs"
	"rio/internal/machine"
)

func perfMachine(t *testing.T, kind fs.PolicyKind) *machine.Machine {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(kind))
	opt.FastPath = true
	opt.MemPages = 1536
	opt.DataCap = 768
	opt.MetaCap = 256
	opt.DiskBlocks = 4096
	opt.NInodes = 2048
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCpRmRuns(t *testing.T) {
	w := DefaultCpRm()
	w.TreeBytes = 512 << 10
	m := perfMachine(t, fs.PolicyRio)
	cp, rm, err := w.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if cp <= 0 || rm <= 0 {
		t.Fatalf("cp=%v rm=%v", cp, rm)
	}
	// After rm, the destination tree is gone; the source remains.
	if _, err := m.FS.Stat("/dst"); err != fs.ErrNotFound {
		t.Fatalf("/dst survived rm: %v", err)
	}
	if _, err := m.FS.Stat("/src"); err != nil {
		t.Fatalf("/src destroyed: %v", err)
	}
}

func TestCpRmCopiesFaithfully(t *testing.T) {
	w := DefaultCpRm()
	w.TreeBytes = 256 << 10
	m := perfMachine(t, fs.PolicyUFS)
	tree := MakeTree("/src", w.TreeBytes, w.Seed)
	// Run builds its own tree with the same seed, so spot-check a file's
	// copy before the rm phase by re-running the copy manually.
	if err := BuildTree(m.FS, tree); err != nil {
		t.Fatal(err)
	}
	src, err := m.FS.ReadFile(tree.Files[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(src) != tree.Files[0].Size {
		t.Fatalf("tree file size %d want %d", len(src), tree.Files[0].Size)
	}
}

func TestSdetRuns(t *testing.T) {
	w := DefaultSdet()
	w.OpsPerScript = 40
	m := perfMachine(t, fs.PolicyUFS)
	d, err := w.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no elapsed time")
	}
	// The five script directories exist.
	for i := 0; i < w.Scripts; i++ {
		if _, err := m.FS.Stat("/sdet" + itoa(i)); err != nil {
			t.Fatalf("script dir %d missing: %v", i, err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestAndrewRuns(t *testing.T) {
	w := DefaultAndrew()
	w.TreeBytes = 100 << 10
	m := perfMachine(t, fs.PolicyRio)
	d, err := w.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no elapsed time")
	}
	// The linked binary exists; the temporaries are gone.
	if _, err := m.FS.Stat("/andrew/a.out"); err != nil {
		t.Fatalf("a.out missing: %v", err)
	}
	ents, err := m.FS.ReadDir("/tmp")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d compiler temporaries leaked", len(ents))
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	run := func() [3]int64 {
		w := DefaultCpRm()
		w.TreeBytes = 256 << 10
		m := perfMachine(t, fs.PolicyUFS)
		cp, rm, err := w.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		s := DefaultSdet()
		s.OpsPerScript = 25
		m2 := perfMachine(t, fs.PolicyUFS)
		sd, err := s.Run(m2)
		if err != nil {
			t.Fatal(err)
		}
		return [3]int64{int64(cp), int64(rm), int64(sd)}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("workloads not deterministic: %v vs %v", a, b)
	}
}

func TestMakeTreeShape(t *testing.T) {
	tr := MakeTree("/x", 1<<20, 3)
	if len(tr.Dirs) < 2 {
		t.Fatal("no subdirectories")
	}
	if tr.TotalBytes() < 1<<20 {
		t.Fatal("under target")
	}
	small, big := 0, 0
	for _, f := range tr.Files {
		if f.Size < 2000 {
			small++
		}
		if f.Size > 20000 {
			big++
		}
	}
	if small == 0 || big == 0 {
		t.Fatalf("size mix wrong: %d small, %d big of %d", small, big, len(tr.Files))
	}
}
