package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// A seed is one canonical ordering bug, written as a one-hunk edit of the
// real function an analyzer guards. old must occur exactly once in file.
type seed struct {
	name               string
	file, old, new     string
	analyzer, function string
	substring          string
}

// The apply loop and the erase block of server.(*shard).serve, verbatim:
// seed 4 swaps them.
const (
	serveApplyLoop = `	resolved := 0
	for i := range results {
		d := &results[i]
		switch {
		case d.staged: // answered at stage time
		case d.commit >= 0:
			var outcome commitOutcome
			d.resp, outcome = sh.applyCommit(&d.t.req, &sealed[d.commit], published, pubErr)
			if outcome != commitPending {
				resolved++
			}
		default:
			d.frame, d.resp, d.dataLen = sh.handle(&d.t.req, d.t.wantFrame)
		}
	}
`
	serveEraseBlock = `	if published && resolved == len(sealed) && !sh.isDown() {
		if err := sh.txnLog().Erase(); err == nil {
			sh.logDirty = false
		} else {
			sh.crashed()
		}
	}
`
	serveEraseComment = `
	// Erase: drop the log only when every published record has resolved
	// — fully applied, or terminally refused; anything short of that
	// leaves it in protected memory for warm reboot to roll forward.
`
	// The write path of fleet.(*Node).serveClient from its Exec to its
	// persist, verbatim: seed 8 moves the second half above the first.
	clientExec = `	resp := server.Exec(r.sys, req)
	if crashed, why := r.sys.Crashed(); crashed {
		r.down = true
		return fail(wire.StatusAgain, fmt.Sprintf("node %s shard %d crashed: %s", n.cfg.ID, shard, why))
	}
	if resp.Status != wire.StatusOK {
		return resp // refused deterministically; nothing to replicate
	}

`
	clientPersist = `	r.seq++
	if err := r.persistSeq(); err != nil {
		return fail(wire.StatusIO, "persist seq: "+err.Error())
	}
`
)

var seeds = []seed{
	{name: "1 early return inside the write window",
		file: "internal/cache/cache.go", function: "Write", analyzer: "protpair", substring: "escapes before the re-protection",
		old: "len(data), src, off); err != nil {\n\t\treturn err\n\t}\n\tif c.Protect {\n\t\tc.K.MMU.SetFrameProtection(b.Frame, false)\n\t}\n\twerr := c.K.WriteBlock(b.Hdr)\n",
		new: "len(data), src, off); err != nil {\n\t\treturn err\n\t}\n\tif c.Protect {\n\t\tc.K.MMU.SetFrameProtection(b.Frame, false)\n\t}\n\twerr := c.K.WriteBlock(b.Hdr)\n\tif werr != nil {\n\t\treturn werr\n\t}\n"},
	{name: "2 ack before publish",
		file: "internal/server/server.go", function: "serve", analyzer: "commitorder", substring: "acked before its record was published",
		old: "\tif len(sealed) > 0 && pubErr == nil {\n",
		new: "\tsh.ackCommit(&batch[0], wire.Response{})\n\tif len(sealed) > 0 && pubErr == nil {\n"},
	{name: "3 ack between publish and apply",
		file: "internal/server/server.go", function: "serve", analyzer: "commitorder", substring: "acked before its record was applied",
		old: "\tresolved := 0\n",
		new: "\tsh.ackCommit(&batch[0], wire.Response{})\n\tresolved := 0\n"},
	{name: "4 erase above the apply loop",
		file: "internal/server/server.go", function: "serve", analyzer: "commitorder", substring: "erased before its record was applied",
		old: serveApplyLoop + serveEraseComment + serveEraseBlock,
		new: "\tresolved := 0\n" + serveEraseBlock + strings.TrimPrefix(serveApplyLoop, "\tresolved := 0\n")},
	{name: "5 adopted epoch not persisted",
		file: "internal/fleet/node.go", function: "applyView", analyzer: "replorder", substring: "adopted epoch is never persisted",
		old: "\t\t\t\t_ = r.persistSeq()\n", new: ""},
	{name: "6 read fence removed",
		file: "internal/fleet/node.go", function: "serveClient", analyzer: "replorder", substring: "never calls readFence",
		old: "\t\tif resp := n.readFence(r, req); resp != nil {\n\t\t\treturn resp\n\t\t}\n", new: ""},
	{name: "7 ack before replication",
		file: "internal/fleet/node.go", function: "serveClient", analyzer: "replorder", substring: "acked before every active backup confirmed",
		old: "\tr.tailAppend(r.seq, frame)\n",
		new: "\tr.tailAppend(r.seq, frame)\n\tif len(r.backups) == 0 {\n\t\treturn resp\n\t}\n"},
	{name: "8 persist before exec",
		file: "internal/fleet/node.go", function: "serveClient", analyzer: "replorder", substring: "persisted before the op executed",
		old: clientExec + clientPersist, new: clientPersist + clientExec},
}

// TestSeededProtocolBugsConvict tests the gate on what it guards: each
// canonical ordering bug is seeded, in memory, into the real function its
// analyzer exists for, and the full suite must convict it there. Seeds in
// different functions share a round; a round is one module type-check.
func TestSeededProtocolBugsConvict(t *testing.T) {
	root := moduleRoot(t)
	pending := seeds
	for round := 1; len(pending) > 0; round++ {
		overlay := make(map[string]string)
		busy := make(map[string]bool) // file:function already seeded this round
		var now, later []seed
		for _, s := range pending {
			if busy[s.file+":"+s.function] {
				later = append(later, s)
				continue
			}
			busy[s.file+":"+s.function] = true
			full := filepath.Join(root, s.file)
			src, ok := overlay[full]
			if !ok {
				data, err := os.ReadFile(full)
				if err != nil {
					t.Fatal(err)
				}
				src = string(data)
			}
			if n := strings.Count(src, s.old); n != 1 {
				t.Errorf("seed %q: its old text occurs %d times in %s, want exactly once — the guarded function changed; rewrite the seed", s.name, n, s.file)
				continue
			}
			overlay[full] = strings.Replace(src, s.old, s.new, 1)
			now = append(now, s)
		}
		pending = later

		ld := loader.overlaid(overlay)
		pkgs, err := ld.LoadModule(root)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		diags := Run(ld.Fset, pkgs, All())
		for _, s := range now {
			full := filepath.Join(root, s.file)
			var seededPkg *Package
			for _, pkg := range pkgs {
				if _, ok := pkg.Sources[full]; ok {
					seededPkg = pkg
				}
			}
			var found, inPkg []string
			for _, d := range diags {
				if d.Pos.Filename == full && d.Analyzer == s.analyzer && strings.Contains(d.Message, s.substring) &&
					funcAt(ld, seededPkg, d) == s.function {
					found = append(found, d.String())
				}
				if filepath.Dir(d.Pos.Filename) == seededPkg.Dir {
					inPkg = append(inPkg, d.String())
				}
			}
			if len(found) == 0 {
				t.Errorf("seed %q: no %s finding containing %q in %s; the round's findings:\n\t%v", s.name, s.analyzer, s.substring, s.function, diags)
			}
			// Asking about the seeded package alone finds what ./... finds there.
			var alone []string
			for _, d := range reportOn(ld.Fset, pkgs, seededPkg) {
				alone = append(alone, d.String())
			}
			if !slices.Equal(alone, inPkg) {
				t.Errorf("seed %q: linting %s alone reports\n\t%v\nbut ./... reports for it\n\t%v", s.name, seededPkg.Path, alone, inPkg)
			}
		}
	}
}

// overlaid returns a Loader that reads the named files from overlay
// instead of the disk. It shares l's FileSet and standard-library importer
// — a load through it re-checks the module, not GOROOT — and none of l's
// cached packages.
func (l *Loader) overlaid(overlay map[string]string) *Loader {
	o := NewLoader()
	o.Fset, o.std, o.overlay = l.Fset, l.std, overlay
	return o
}

// funcAt names the function declaration enclosing a diagnostic.
func funcAt(ld *Loader, pkg *Package, d Diagnostic) string {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || ld.Fset.Position(fd.Pos()).Filename != d.Pos.Filename {
				continue
			}
			if ld.Fset.Position(fd.Pos()).Line <= d.Pos.Line && d.Pos.Line <= ld.Fset.Position(fd.End()).Line {
				return fd.Name.Name
			}
		}
	}
	return ""
}
