// Package lint is riolint's engine: a stdlib-only static-analysis
// framework (go/ast + go/types; no x/tools, honoring the repo's
// stdlib-only rule) plus the seven analyzers that encode invariants this
// codebase has been burned by. The compiler cannot see Rio's safety
// arguments — that every file-cache store happens inside a brief
// write-permission window (the paper's §3 protection discipline), that
// every simulated outcome is a pure function of seeds, that a
// transaction commit is published and applied before it is acked, and
// that the fleet replicates before acking — so riolint enforces them as
// a tier-1 gate instead of leaving them to reviewer vigilance.
//
// Three kinds of analyzer share the engine. maporder, walltime and
// seedflow pattern-match one body at a time. protpair, commitorder and
// replorder are rows of one typestate table (typestate.go): verbs, the
// rules that order them, one event walk and one evaluator. bufalias
// follows values. The last two kinds consult a Program — the
// call graph of every package loaded plus per-function dataflow summaries
// (interproc.go) — so a pooled buffer leaked three calls from the pool is
// still seen, and a helper that reaches one verb is that verb at its call.
//
// Analyzers (see their files for the precise rules):
//
//   - maporder: order-sensitive effects inside range-over-map loops in
//     determinism-critical packages (the PR-2 DropFileData/FramesOf bug
//     class).
//   - walltime: time.Now/Sleep/... and math/rand in simulation packages;
//     time must flow through the sim clock, randomness through sim.Mix
//     and sim.Rand.
//   - protpair: every SetFrameProtection(f, false) must be re-protected
//     on all return paths of the same function (the paper's sanctioned-
//     write window).
//   - seedflow: seeds derived by arithmetic on a shared counter
//     (seed++, seed+i) instead of sim.Mix (the PR-1 bug class).
//   - commitorder: the transaction layer's publish -> apply -> erase ->
//     ack protocol; acking a commit before its record is published and
//     applied — directly or through a helper — is a torn-commit window.
//   - bufalias: pooled and frame-aliased buffers (kernel scratch, the fs
//     block pool, Into-style destinations) must not escape their
//     sanctioned window — no heap stores, channel sends, goroutine
//     hand-offs, or use after release, tracked interprocedurally.
//   - replorder: the fleet's exec -> persist -> replicate -> ack
//     ordering on the write path, fenced reads, and persisted epoch
//     adoption (the PR-7 review bug class).
//
// Decode bounds need no analyzer: wire.Cursor checks every length
// against the bytes left and, in Str16/Bytes32, the protocol maximum,
// and each decoder's hostile-input tests refuse the inputs that would
// break either check.
//
// A finding is silenced with a suppression comment naming the
// analyzer's directive and a mandatory reason:
//
//	//riolint:ordered  <why iteration order is benign here>
//	//riolint:walltime <why this site may read the host clock>
//	//riolint:protpair <why the frame legitimately stays writable>
//	//riolint:seedflow <why this arithmetic is not seed derivation>
//	//riolint:commitorder <why this protocol verb legitimately runs early>
//	//riolint:bufalias <why this custody transfer of a pooled buffer is sanctioned>
//	//riolint:replorder <why this replication verb legitimately reorders>
//
// The comment attaches to the line it sits on, or, as a standalone
// comment, to the line directly below it. A reason is required: a bare
// directive is itself a diagnostic, as is a suppression that no longer
// suppresses anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// A Diagnostic is one finding, printable as "file:line:col: analyzer: message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// An Analyzer checks one invariant over one type-checked package.
type Analyzer struct {
	Name string
	// Directive is the suppression name accepted after "//riolint:"
	// (the analyzer name is always accepted as an alias).
	Directive string
	Doc       string
	Run       func(*Pass)
}

// All returns the full riolint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Maporder, Walltime, Protpair, Seedflow, Commitorder, Bufalias, Replorder}
}

// A Pass hands one analyzer one package plus a reporting callback.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Prog is the interprocedural view over every package loaded for this
	// Run, reported on or not (call graph + summaries), shared across
	// analyzers and packages.
	Prog *Program

	diags *[]Diagnostic
	supp  *suppressions
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Reportf records a diagnostic at pos unless a suppression comment for
// this analyzer covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.supp.covers(p.Analyzer, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//riolint:"

// suppression is one parsed //riolint: comment.
type suppression struct {
	directive string
	reason    string
	pos       token.Position
	used      bool
}

// suppressions indexes a package's directives by (file, line): a comment
// covers its own line and, when it stands alone, the line below it.
type suppressions struct {
	byLine map[string]map[int]*suppression
	all    []*suppression
}

func parseSuppressions(fset *token.FileSet, pkg *Package) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int]*suppression)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				directive, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				sup := &suppression{
					directive: directive,
					reason:    strings.TrimSpace(reason),
					pos:       pos,
				}
				s.all = append(s.all, sup)
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]*suppression)
					s.byLine[pos.Filename] = lines
				}
				// The comment always covers its own line; a standalone
				// comment (nothing but whitespace before it on its line)
				// also covers the next line, the annotated statement.
				lines[pos.Line] = sup
				if standsAlone(pkg, pos) {
					lines[pos.Line+1] = sup
				}
			}
		}
	}
	return s
}

// standsAlone reports whether the comment at pos is the first token on
// its source line (an annotation above a statement rather than trailing
// one).
func standsAlone(pkg *Package, pos token.Position) bool {
	lines := pkg.Sources[pos.Filename]
	if pos.Line-1 >= len(lines) || pos.Column < 1 {
		return false
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 < len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) == ""
}

// covers reports (and marks used) a matching suppression at position.
func (s *suppressions) covers(a *Analyzer, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	sup := lines[pos.Line]
	if sup == nil {
		return false
	}
	if sup.directive != a.Directive && sup.directive != a.Name {
		return false
	}
	if sup.reason == "" {
		// An unreasoned directive never suppresses; lintDirectives flags it.
		return false
	}
	sup.used = true
	return true
}

// lintDirectives validates the package's //riolint: comments themselves:
// unknown directives, missing reasons, and suppressions that no longer
// suppress anything (only for analyzers that actually ran).
func lintDirectives(supp *suppressions, ran []*Analyzer, diags *[]Diagnostic) {
	known := make(map[string]*Analyzer)
	var directives []string
	for _, a := range All() {
		known[a.Name] = a
		known[a.Directive] = a
		directives = append(directives, a.Directive)
	}
	ranSet := make(map[*Analyzer]bool)
	for _, a := range ran {
		ranSet[a] = true
	}
	for _, sup := range supp.all {
		a := known[sup.directive]
		switch {
		case a == nil:
			*diags = append(*diags, Diagnostic{Pos: sup.pos, Analyzer: "riolint",
				Message: fmt.Sprintf("unknown suppression directive %q (known: %s)", sup.directive, strings.Join(directives, ", "))})
		case sup.reason == "":
			*diags = append(*diags, Diagnostic{Pos: sup.pos, Analyzer: "riolint",
				Message: fmt.Sprintf("suppression %q needs a reason: //riolint:%s <why this is safe>", sup.directive, sup.directive)})
		case !sup.used && ranSet[a]:
			*diags = append(*diags, Diagnostic{Pos: sup.pos, Analyzer: "riolint",
				Message: fmt.Sprintf("suppression %q no longer suppresses anything; delete it", sup.directive)})
		}
	}
}

// Run executes the given analyzers over the packages, which are also the
// whole program, and returns all diagnostics sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(fset, pkgs, pkgs, analyzers)
	return diags
}

// An AnalyzerTime is one analyzer's total wall time across a Run, for
// the CLI's -json output.
type AnalyzerTime struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed is Run plus per-analyzer wall time, in the order the
// analyzers were given (the interprocedural Program build is charged to
// the first analyzer that forces it). It reports on pkgs only, but builds
// the Program from program — every package loaded — so what a call reaches
// does not depend on which packages were asked about.
func RunTimed(fset *token.FileSet, program, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTime) {
	var diags []Diagnostic
	prog := buildProgram(fset, program)
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		supp := parseSuppressions(fset, pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, Prog: prog, diags: &diags, supp: supp}
			start := time.Now()
			a.Run(pass)
			elapsed[a.Name] += time.Since(start)
		}
		lintDirectives(supp, analyzers, &diags)
	}
	times := make([]AnalyzerTime, 0, len(analyzers))
	for _, a := range analyzers {
		times = append(times, AnalyzerTime{Name: a.Name, Elapsed: elapsed[a.Name]})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, times
}

// detPackages are the determinism-critical package names: simulation
// state, the storage stack, and everything a crash campaign's byte-
// identical-report guarantee flows through. maporder and walltime apply
// only here; protpair and seedflow apply module-wide. fleet, txn and wire
// are here because their bytes reach the scenario reports `make
// scenarios` diffs across worker counts; server is not: it owns real
// deadlines.
var detPackages = map[string]bool{
	"sim": true, "disk": true, "fs": true, "cache": true,
	"kernel": true, "mmu": true, "machine": true, "warmreboot": true,
	"ioretry": true, "crashtest": true, "fleet": true, "txn": true, "wire": true,
	"registry": true, "workload": true, "fault": true, "scenario": true,
}

// baseIdent unwraps selectors, indexing, stars, and parens down to the
// leftmost identifier: c.Stats.Evictions -> c, seeds[i] -> seeds.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
