package rio

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealCommands keeps the docs' command lines honest: every
// ./cmd/<x> or ./examples/<x> that README.md, DESIGN.md, EXPERIMENTS.md
// or the verify skill names must exist, and every -flag a `go run` of one is shown with
// must be a flag that binary's source defines. A binary that registers
// flags under computed names (riolint: one per analyzer) is checked for
// existence only.
func TestDocsNameRealCommands(t *testing.T) {
	computed := regexp.MustCompile(`flag\.\w+\([A-Za-z]`)
	mention := regexp.MustCompile(`(go run )?\./((?:cmd|examples)/[a-z0-9]+)([^` + "`" + `|#>;&\n]*)`)
	flagTok := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	sources := map[string]string{} // dir -> its concatenated .go source
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllStringSubmatch(string(text), -1) {
			run, dir, args := m[1] != "", m[2], m[3]
			src, seen := sources[dir]
			if !seen {
				files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
				for _, f := range files {
					b, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					src += string(b)
				}
				sources[dir] = src
			}
			if src == "" {
				t.Errorf("%s names ./%s, which does not exist", doc, dir)
				continue
			}
			if !run || computed.MatchString(src) {
				continue
			}
			for _, tok := range strings.Fields(args) {
				f := flagTok.FindStringSubmatch(tok)
				if f == nil {
					continue
				}
				if def := regexp.MustCompile(`flag\.\w+\([^"\n]*"` + f[1] + `"`); !def.MatchString(src) {
					t.Errorf("%s runs ./%s with -%s, a flag its source never defines", doc, dir, f[1])
				}
			}
		}
	}
}

// docsLineCeiling bounds the lines of DESIGN.md, EXPERIMENTS.md and
// README.md together. Like the allocation budgets it only ever goes down:
// a change that adds doc lines deletes as many elsewhere.
const docsLineCeiling = 2145

// TestDocsLineCeiling fails when the three docs grow past docsLineCeiling.
func TestDocsLineCeiling(t *testing.T) {
	total := 0
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		total += strings.Count(string(text), "\n")
	}
	if total > docsLineCeiling {
		t.Fatalf("DESIGN + EXPERIMENTS + README are %d lines, over the ceiling of %d", total, docsLineCeiling)
	}
}

// TestDocsNameRealIdentifiers keeps the docs' Go names honest: every
// backticked pkg.Name or pkg.Name.Member in README.md, DESIGN.md,
// EXPERIMENTS.md or the verify skill, where pkg is rio or a package under
// internal/, must be declared in that package, test files included: Name
// at package level or as a method, Member as a field or method of Name.
// Only exported Names are checked; a lowercase pkg.name span in the docs is
// usually a bench metric (fs.allocs_per_create).
func TestDocsNameRealIdentifiers(t *testing.T) {
	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`([^`\n]+)`")
	ref := regexp.MustCompile(`(?:^|[^\w./*(])(([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?)`)
	declared := map[string]map[string]bool{} // dir -> "Name", "Type.Member", ".Method"
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(text), ""), -1) {
			for _, m := range ref.FindAllStringSubmatch(s[1], -1) {
				pkg, name, member := m[2], m[3], m[4]
				dir := filepath.Join("internal", pkg)
				if pkg == "rio" {
					dir = "."
				} else if st, err := os.Stat(dir); err != nil || !st.IsDir() {
					continue
				}
				if declared[dir] == nil {
					declared[dir] = goDecls(t, dir)
				}
				d := declared[dir]
				ok := d[name] || d["."+name]
				if member != "" {
					ok = d[name+"."+member]
				}
				if !ok {
					t.Errorf("%s names `%s`, which package %s does not declare", doc, m[1], pkg)
				}
			}
		}
	}
}

// goDecls parses dir's Go files and returns what they declare: each
// package-level name, each Type.Field and Type.Method, and each method
// name as .Method.
func goDecls(t *testing.T, dir string) map[string]bool {
	out := make(map[string]bool)
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					out[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				out[recv.(*ast.Ident).Name+"."+decl.Name.Name] = true
				out["."+decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						out[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									out[spec.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							out[n.Name] = true
						}
					}
				}
			}
		}
	}
	return out
}
