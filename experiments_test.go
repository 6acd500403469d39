package rio_test

// This test lives outside package rio because internal/scenario reaches
// rio through internal/fleet.

import (
	"os"
	"regexp"
	"testing"

	"rio/internal/scenario"
)

// TestExperimentsTable2 keeps EXPERIMENTS.md's measured Table 2 honest:
// the first fenced block of its Table 2 section must be exactly what
// rioscn prints for scenarios/table2.json.
func TestExperimentsTable2(t *testing.T) {
	data, err := os.ReadFile("scenarios/table2.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&scenario.Runner{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile("(?ms)^## Table 2 .*?^```\n(.*?)^```").FindSubmatch(doc)
	if block == nil {
		t.Fatal("EXPERIMENTS.md has no fenced block in a \"## Table 2\" section")
	}
	if got := res.Table(); got != string(block[1]) {
		t.Errorf("EXPERIMENTS.md's Table 2 block differs from what scenarios/table2.json prints; replace it with:\n%s", got)
	}
}
