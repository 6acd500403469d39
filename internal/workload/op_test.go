package workload

import (
	"testing"

	"rio/internal/fs"
)

// TestApplyScript runs one op of every kind and checks what each left
// behind, and that a chunked write is one syscall per chunk.
func TestApplyScript(t *testing.T) {
	m := newRio(t)
	apply := func(op Op) Result {
		t.Helper()
		r, err := Apply(m.FS, op)
		if err != nil {
			t.Fatalf("%+v: %v", op, err)
		}
		return r
	}
	apply(Op{Kind: OpMkdir, Path: "/d"})
	before := m.FS.Stats.Syscalls
	apply(Op{Kind: OpCreate, Path: "/d/a", Data: []byte("0123456789"), Chunk: 3})
	if n := m.FS.Stats.Syscalls - before; n != 6 {
		t.Fatalf("create with four chunks took %d syscalls, want 6", n)
	}
	apply(Op{Kind: OpWrite, Path: "/d/a", Off: 2, Data: []byte("XY"), Sync: true})
	apply(Op{Kind: OpAppend, Path: "/d/a", Data: []byte("abcdef")})
	apply(Op{Kind: OpPut, Path: "/d/b", Data: []byte("new")})
	apply(Op{Kind: OpPut, Path: "/d/b", Data: []byte("N")})
	apply(Op{Kind: OpRename, Path: "/d/b", Path2: "/d/c"})
	apply(Op{Kind: OpSymlink, Path: "/d/l", Path2: "/d/a"})

	if got := string(apply(Op{Kind: OpReadFile, Path: "/d/a"}).Data); got != "01XY456789abcdef" {
		t.Fatalf("/d/a = %q", got)
	}
	if got := string(apply(Op{Kind: OpReadN, Path: "/d/l", N: 4}).Data); got != "01XY" {
		t.Fatalf("read through the link = %q", got)
	}
	if got := string(apply(Op{Kind: OpReadFile, Path: "/d/c"}).Data); got != "New" {
		t.Fatalf("/d/c = %q", got)
	}
	if got := apply(Op{Kind: OpStat, Path: "/d/c"}).Info.Size; got != 3 {
		t.Fatalf("stat /d/c: size %d", got)
	}
	if got := len(apply(Op{Kind: OpReadDir, Path: "/d"}).Ents); got != 3 {
		t.Fatalf("/d lists %d entries, want 3", got)
	}
	for _, p := range []string{"/d/a", "/d/c", "/d/l"} {
		apply(Op{Kind: OpUnlink, Path: p})
	}
	apply(Op{Kind: OpRmdir, Path: "/d"})
	if _, err := Apply(m.FS, Op{Kind: OpStat, Path: "/d"}); err != fs.ErrNotFound {
		t.Fatalf("stat after rmdir: %v", err)
	}
	if _, err := Apply(m.FS, Op{}); err == nil {
		t.Fatal("the zero Op applied")
	}
}
