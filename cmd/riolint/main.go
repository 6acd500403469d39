// Command riolint runs the repo's static-analysis suite: eight analyzers
// enforcing the determinism, protection-discipline, commit-ordering,
// buffer-aliasing, replication-ordering, and wire-bounds invariants the
// compiler cannot see (see internal/lint and DESIGN.md "Enforced
// invariants"). The three ordering analyzers (protpair, commitorder,
// replorder) are rows of one typestate table; they and bufalias and
// wirebounds share a call graph and per-function dataflow summaries built
// once per run from the whole module, whatever the patterns select: the
// patterns choose which packages are reported on, not what a call reaches.
//
// Usage:
//
//	riolint [flags] [patterns]
//
// Patterns are package directories relative to the module root:
// "./..." (default) lints every package, "./internal/..." a subtree,
// "./internal/cache" one package. A pattern naming a directory outside
// the module's package graph (e.g. a fixture under testdata) is loaded
// as a standalone package.
//
// Flags:
//
//	-json        emit findings plus per-analyzer wall time as JSON
//	-maporder, -walltime, -protpair, -seedflow, -commitorder,
//	-bufalias, -replorder, -wirebounds
//	             enable/disable individual analyzers (all default true)
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"rio/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	enabled := map[string]*bool{}
	for _, a := range lint.All() {
		enabled[a.Name] = flag.Bool(a.Name, true, "run the "+a.Name+" analyzer ("+a.Doc+")")
	}
	flag.Parse()

	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return fail(err)
	}

	loader := lint.NewLoader()
	pkgs, err := loader.LoadModule(root)
	if err != nil {
		return fail(err)
	}

	selected, err := selectPackages(loader, root, cwd, pkgs, patterns)
	if err != nil {
		return fail(err)
	}

	// The program is everything loaded: the module, plus any fixture
	// directory a pattern named.
	program := slices.Clone(pkgs)
	for _, p := range selected {
		if !slices.Contains(pkgs, p) {
			program = append(program, p)
		}
	}
	diags, times := lint.RunTimed(loader.Fset, program, selected, analyzers)
	// Print file paths relative to the working directory, as go vet does.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	if *jsonOut {
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		type jsonTime struct {
			Analyzer string  `json:"analyzer"`
			Millis   float64 `json:"millis"`
		}
		type jsonReport struct {
			Findings []jsonDiag `json:"findings"`
			Timings  []jsonTime `json:"timings"`
		}
		out := jsonReport{Findings: make([]jsonDiag, 0, len(diags)), Timings: make([]jsonTime, 0, len(times))}
		for _, d := range diags {
			out.Findings = append(out.Findings, jsonDiag{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
		}
		for _, tm := range times {
			out.Timings = append(out.Timings, jsonTime{tm.Name, float64(tm.Elapsed.Microseconds()) / 1000})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "riolint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// selectPackages resolves the CLI patterns against the loaded module
// packages, falling back to standalone directory loads for paths outside
// the module graph (testdata fixtures).
func selectPackages(loader *lint.Loader, root, cwd string, pkgs []*lint.Package, patterns []string) ([]*lint.Package, error) {
	byDir := make(map[string]*lint.Package, len(pkgs))
	for _, p := range pkgs {
		byDir[p.Dir] = p
	}
	var out []*lint.Package
	seen := make(map[*lint.Package]bool)
	add := func(p *lint.Package) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			for _, p := range pkgs {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			base, err := filepath.Abs(filepath.Join(cwd, strings.TrimSuffix(pat, "/...")))
			if err != nil {
				return nil, err
			}
			n := 0
			for _, p := range pkgs {
				if p.Dir == base || strings.HasPrefix(p.Dir, base+string(filepath.Separator)) {
					add(p)
					n++
				}
			}
			if n == 0 {
				return nil, fmt.Errorf("riolint: pattern %q matches no packages", pat)
			}
		default:
			dir, err := filepath.Abs(filepath.Join(cwd, pat))
			if err != nil {
				return nil, err
			}
			if p, ok := byDir[dir]; ok {
				add(p)
				continue
			}
			if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
				p, err := loader.LoadDir(dir)
				if err != nil {
					return nil, err
				}
				add(p)
				continue
			}
			return nil, fmt.Errorf("riolint: pattern %q matches no package directory", pat)
		}
	}
	return out, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}
