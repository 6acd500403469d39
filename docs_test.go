package rio

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealCommands keeps the docs' command lines honest: every
// ./cmd/<x> or ./examples/<x> that README.md, DESIGN.md or the verify
// skill names must exist, and every -flag a `go run` of one is shown with
// must be a flag that binary's source defines. A binary that registers
// flags under computed names (riolint: one per analyzer) is checked for
// existence only.
func TestDocsNameRealCommands(t *testing.T) {
	computed := regexp.MustCompile(`flag\.\w+\([A-Za-z]`)
	mention := regexp.MustCompile(`(go run )?\./((?:cmd|examples)/[a-z0-9]+)([^` + "`" + `|#>;&\n]*)`)
	flagTok := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	sources := map[string]string{} // dir -> its concatenated .go source
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
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
