package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package of the module (or a
// standalone fixture directory).
type Package struct {
	Path  string // import path ("rio/internal/cache")
	Name  string // package name ("cache")
	Dir   string // absolute directory
	Files []*ast.File
	// Sources holds each file's raw lines, for suppression-comment
	// placement (filename as reported by the FileSet).
	Sources map[string][]string
	Types   *types.Package
	Info    *types.Info

	imports []string // module-internal import paths (load order)
}

// A Loader parses and type-checks packages with a shared FileSet and a
// shared source importer for the standard library (go/importer "source":
// stdlib dependencies are type-checked from GOROOT sources — slow on
// first touch, cached after — keeping riolint free of x/tools and of the
// go command).
type Loader struct {
	Fset *token.FileSet

	std    types.Importer
	byPath map[string]*Package
	// Type-checked results are cached so repeated loads — every
	// analyzer pass of a riolint run, every fixture test sharing the
	// package loader — parse and type-check each package once.
	modCache map[string][]*Package
	dirCache map[string]*Package
	// overlay maps absolute file names to contents that stand in for the
	// file on disk (the seeded-bug test edits guarded functions in memory).
	overlay map[string]string
}

// NewLoader returns a Loader with an empty package cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		byPath:   make(map[string]*Package),
		modCache: make(map[string][]*Package),
		dirCache: make(map[string]*Package),
	}
}

// modImporter resolves module-internal imports from the loader's cache
// (already type-checked, thanks to topological order) and everything
// else from the standard library.
type modImporter struct {
	l          *Loader
	modulePath string
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	if path == m.modulePath || strings.HasPrefix(path, m.modulePath+"/") {
		p := m.l.byPath[path]
		if p == nil || p.Types == nil {
			return nil, fmt.Errorf("internal package %s not loaded (import cycle?)", path)
		}
		return p.Types, nil
	}
	return m.l.std.Import(path)
}

// LoadModule discovers, parses, and type-checks every package under the
// module rooted at root (the directory holding go.mod), in dependency
// order. testdata, hidden, and underscore-prefixed directories are
// skipped, as the go tool does.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if cached, ok := l.modCache[root]; ok {
		return cached, nil
	}
	modulePath, err := modulePathOf(root)
	if err != nil {
		return nil, err
	}

	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		pkg, err := l.parseDir(path, importPathFor(modulePath, root, path))
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ordered, err := topoSort(pkgs, modulePath)
	if err != nil {
		return nil, err
	}
	for _, pkg := range ordered {
		if err := l.check(pkg, modulePath); err != nil {
			return nil, err
		}
	}
	l.modCache[root] = ordered
	return ordered, nil
}

// LoadDir parses and type-checks a single directory as a standalone
// package (fixture directories under testdata, which LoadModule skips).
// Module-internal imports are not resolvable from here; fixtures import
// only the standard library.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if cached, ok := l.dirCache[dir]; ok {
		return cached, nil
	}
	pkg, err := l.parseDir(dir, "fixture/"+filepath.Base(dir))
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if err := l.check(pkg, "\x00no-module"); err != nil {
		return nil, err
	}
	l.dirCache[dir] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of one directory, or returns
// (nil, nil) if it holds none. Mixed package names are an error.
func (l *Loader) parseDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Dir: dir, Sources: make(map[string][]string)}
	importSet := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue // tests are out of scope: no gate lints them
		}
		full := filepath.Join(dir, name)
		src, ok := l.overlay[full]
		if !ok {
			data, err := os.ReadFile(full)
			if err != nil {
				return nil, err
			}
			src = string(data)
		}
		f, err := parser.ParseFile(l.Fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
		if f.Name.Name != pkg.Name {
			return nil, fmt.Errorf("lint: %s: mixed package names %q and %q", dir, pkg.Name, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Sources[l.Fset.Position(f.Pos()).Filename] = strings.Split(src, "\n")
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	for imp := range importSet {
		pkg.imports = append(pkg.imports, imp)
	}
	sort.Strings(pkg.imports)
	return pkg, nil
}

// check type-checks one package; its module-internal imports must
// already be in the cache.
func (l *Loader) check(pkg *Package, modulePath string) error {
	var errs []error
	conf := types.Config{
		Importer: &modImporter{l: l, modulePath: modulePath},
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(pkg.Path, l.Fset, pkg.Files, pkg.Info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return fmt.Errorf("lint: type errors in %s:\n\t%s", pkg.Path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return fmt.Errorf("lint: %s: %v", pkg.Path, err)
	}
	pkg.Types = tpkg
	l.byPath[pkg.Path] = pkg
	return nil
}

// modulePathOf reads the module path from root/go.mod.
func modulePathOf(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

func importPathFor(modulePath, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}

// topoSort orders packages so that every module-internal import precedes
// its importer.
func topoSort(pkgs []*Package, modulePath string) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	const (
		white = iota
		grey
		black
	)
	state := make(map[*Package]int)
	var ordered []*Package
	var visit func(p *Package, chain []string) error
	visit = func(p *Package, chain []string) error {
		switch state[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(chain, " -> "), p.Path)
		}
		state[p] = grey
		for _, imp := range p.imports {
			if imp != modulePath && !strings.HasPrefix(imp, modulePath+"/") {
				continue
			}
			dep := byPath[imp]
			if dep == nil {
				return fmt.Errorf("lint: %s imports %s, which was not found in the module", p.Path, imp)
			}
			if err := visit(dep, append(chain, p.Path)); err != nil {
				return err
			}
		}
		state[p] = black
		ordered = append(ordered, p)
		return nil
	}
	// Deterministic order regardless of WalkDir quirks.
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	for _, p := range pkgs {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
