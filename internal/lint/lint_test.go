package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loader is shared by every test in the package: the source importer
// type-checks stdlib dependencies from GOROOT sources, which is slow on
// first touch and cached per Loader.
var loader = NewLoader()

// wantRe matches a fixture expectation: `// want <analyzer> "<substr>"`
// trailing the line a diagnostic must land on.
var wantRe = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

type wantDiag struct {
	file     string
	line     int
	analyzer string
	substr   string
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// moduleRoot finds the real tree the package under test lives in.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	return root
}

// loadTree loads (once per test binary) every package of the real tree.
func loadTree(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := loader.LoadModule(moduleRoot(t))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	return pkgs
}

func wantsOf(pkg *Package) []wantDiag {
	var wants []wantDiag
	for file, lines := range pkg.Sources {
		for i, src := range lines {
			for _, m := range wantRe.FindAllStringSubmatch(src, -1) {
				wants = append(wants, wantDiag{file: file, line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over one fixture package and asserts an
// exact bidirectional match between diagnostics and want comments: every
// want is hit, and every diagnostic was wanted.
func checkFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	checkFixtureWith(t, []*Analyzer{a}, name)
}

func checkFixtureWith(t *testing.T, analyzers []*Analyzer, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
	diags := Run(loader.Fset, []*Package{pkg}, analyzers)
	wants := wantsOf(pkg)
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
				w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("%s: unexpected diagnostic: %s", name, d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: %s:%d: missing %s diagnostic containing %q",
				name, filepath.Base(w.file), w.line, w.analyzer, w.substr)
		}
	}
}

func TestMaporderFixtures(t *testing.T) {
	checkFixture(t, Maporder, "maporder_bad")
	checkFixture(t, Maporder, "maporder_clean")
}

func TestWalltimeFixtures(t *testing.T) {
	checkFixture(t, Walltime, "walltime_bad")
	checkFixture(t, Walltime, "walltime_clean")
}

func TestProtpairFixtures(t *testing.T) {
	checkFixture(t, Protpair, "protpair_bad")
	checkFixture(t, Protpair, "protpair_clean")
}

func TestSeedflowFixtures(t *testing.T) {
	checkFixture(t, Seedflow, "seedflow_bad")
	checkFixture(t, Seedflow, "seedflow_clean")
}

func TestCommitorderFixtures(t *testing.T) {
	checkFixture(t, Commitorder, "commitorder_bad")
	checkFixture(t, Commitorder, "commitorder_clean")
}

func TestBufaliasFixtures(t *testing.T) {
	checkFixture(t, Bufalias, "bufalias_bad")
	checkFixture(t, Bufalias, "bufalias_clean")
}

func TestReplorderFixtures(t *testing.T) {
	checkFixture(t, Replorder, "replorder_bad")
	checkFixture(t, Replorder, "replorder_clean")
}

// TestDirectiveFixtures locks the diagnostics riolint raises about its
// own //riolint: comments (the "riolint" pseudo-analyzer): an unknown
// directive, a directive with no reason, a suppression that suppresses
// nothing.
func TestDirectiveFixtures(t *testing.T) {
	checkFixtureWith(t, All(), "directives_bad")
}

// TestAnalyzersAreDocumented keeps the fixtures and the docs in step with
// All(): every analyzer has a violating and a clean fixture, a DESIGN §5b
// table row opening with its name, a mention in README's analyzer
// paragraph, and its directive in both suppression lists — so an analyzer
// added or deleted fails here until its row and fixtures follow.
func TestAnalyzersAreDocumented(t *testing.T) {
	root := moduleRoot(t)
	read := func(rel, from, to string) string {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(data), from)
		section, _, ok2 := strings.Cut(rest, to)
		if !ok || !ok2 {
			t.Fatalf("%s: no section from %q to %q", rel, from, to)
		}
		return section
	}
	design := read("DESIGN.md", "## 5b. Enforced invariants", "\n## ")
	_, designDirectives, _ := strings.Cut(design, "Suppression is per-site")
	readme := read("README.md", "## riolint", "```sh")
	pkgDoc := read("internal/lint/lint.go", "suppression comment naming", "package lint")
	for _, a := range All() {
		for _, suffix := range []string{"_bad", "_clean"} {
			if _, err := os.Stat(filepath.Join("testdata", a.Name+suffix)); err != nil {
				t.Errorf("%s: no fixture directory testdata/%s%s", a.Name, a.Name, suffix)
			}
		}
		if !strings.Contains(design, "\n| `"+a.Name+"` |") {
			t.Errorf("%s: no DESIGN.md §5b table row opens with `%s`", a.Name, a.Name)
		}
		if !strings.Contains(readme, "**"+a.Name+"**") {
			t.Errorf("%s: README.md's riolint paragraph does not mention **%s**", a.Name, a.Name)
		}
		if !strings.Contains(designDirectives, "`"+a.Directive+"`") {
			t.Errorf("%s: DESIGN.md §5b's directive list lacks `%s`", a.Name, a.Directive)
		}
		if !strings.Contains(pkgDoc, "//riolint:"+a.Directive+" ") {
			t.Errorf("%s: lint.go's suppression list lacks //riolint:%s", a.Name, a.Directive)
		}
	}
}

// reportOn runs the full suite over program and reports on pkg alone, as
// `riolint <one package>` does.
func reportOn(fset *token.FileSet, program []*Package, pkg *Package) []Diagnostic {
	diags, _ := RunTimed(fset, program, []*Package{pkg}, All())
	return diags
}

// TestOnePackageSeesTheWholeProgram pins what `riolint ./internal/server`
// means: the named package is reported on, but a call reaches whatever it
// reaches in the module. Built from the one package, the Program cannot
// see server.Exec alias its frame, the bufalias suppression in tcp.go goes
// stale, and a clean tree fails.
func TestOnePackageSeesTheWholeProgram(t *testing.T) {
	pkgs := loadTree(t)
	for _, path := range []string{"rio/internal/server", "rio/internal/fleet"} {
		found := false
		for _, pkg := range pkgs {
			if pkg.Path != path {
				continue
			}
			found = true
			for _, d := range reportOn(loader.Fset, pkgs, pkg) {
				t.Errorf("reporting on %s alone: %s", path, d)
			}
		}
		if !found {
			t.Errorf("package %s is not in the module", path)
		}
	}
}

// TestTreeClean is the gate the CLI enforces in scripts/check.sh: the
// full suite reports nothing on the real tree. Any true positive must be
// fixed (or annotated with a reasoned //riolint: comment) in the same
// change that introduces it.
func TestTreeClean(t *testing.T) {
	pkgs := loadTree(t)
	diags := Run(loader.Fset, pkgs, All())
	for _, d := range diags {
		t.Errorf("riolint finding on the tree: %s", d)
	}
}

// TestNoStaleSuppressions sweeps the tree's //riolint: comments: every
// directive must name a known analyzer, carry a reason, and still
// suppress a live finding (the engine reports violations under the
// "riolint" pseudo-analyzer). It also pins that the tree has at least
// one suppression, so the sweep cannot vacuously pass.
func TestNoStaleSuppressions(t *testing.T) {
	pkgs := loadTree(t)
	total := 0
	for _, pkg := range pkgs {
		total += len(parseSuppressions(loader.Fset, pkg).all)
	}
	if total == 0 {
		t.Fatalf("no //riolint: suppressions found in the tree; the stale-suppression sweep is vacuous")
	}
	for _, d := range Run(loader.Fset, pkgs, All()) {
		if d.Analyzer == "riolint" {
			t.Errorf("suppression hygiene: %s", d)
		}
	}
}
