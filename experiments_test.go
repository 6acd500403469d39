package rio_test

// This test lives outside package rio because internal/scenario reaches
// rio through internal/fleet.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"rio/internal/crashtest"
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

// TestExperimentsScenarioTotals keeps EXPERIMENTS.md's per-scenario
// totals table honest: each row must read its scenario's checked-in
// report (scenario-reports/, which `make scenarios` pins to a fresh run)
// and every crash, server and fleet report must have a row; the total
// row, the run and crash counts under it and the txn-hunt sentence's
// interrupted recoveries must be the reports' totals too.
func TestExperimentsScenarioTotals(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	section := regexp.MustCompile(`(?s)Per-scenario corruption totals.*?\n\n(.*?)\n\n`).FindSubmatch(doc)
	if section == nil {
		t.Fatal(`EXPERIMENTS.md has no "Per-scenario corruption totals" table`)
	}
	rows := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^\| ([a-z0-9-]+) \| [^|]* \| (\d.*) \|$`).FindAllSubmatch(section[1], -1) {
		rows[string(m[1])] = string(m[2])
	}
	files, err := filepath.Glob("scenario-reports/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no reports in scenario-reports/ (%v)", err)
	}
	var sum crashtest.Tally
	var stale int
	var hunt *scenario.Totals
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var res scenario.Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if res.Totals == nil {
			continue // the perf kind counts no crashes
		}
		tot, s := res.Totals, 0
		if tot.StaleReads != nil {
			s = tot.Stale
		}
		want := fmt.Sprintf("%d | %d | %d | %d | %d | %d | %d | %d | %d | %d", res.Runs, tot.Attempts,
			tot.Crashes, tot.Discarded, tot.Checked, tot.Corruptions, tot.Lost, tot.Torn, s, tot.Errors)
		if got, ok := rows[res.Name]; !ok {
			t.Errorf("EXPERIMENTS.md's totals table has no %s row; its columns from runs on are: %s", res.Name, want)
		} else if got != want {
			t.Errorf("EXPERIMENTS.md's %s row reads %q, its report %q", res.Name, got, want)
		}
		delete(rows, res.Name)
		sum.Add(tot.Tally)
		stale += s
		if res.Name == "txn-hunt" {
			hunt = tot
		}
	}
	for name := range rows {
		t.Errorf("EXPERIMENTS.md's totals table has a %s row but scenario-reports/ no such crash, server or fleet report", name)
	}
	if hunt == nil {
		t.Fatal("scenario-reports/ has no txn-hunt report")
	}
	want := fmt.Sprintf("| **total** | | | **%d** | **%d** | **%d** | **%d** | **%d** | **%d** | **%d** | **%d** | **%d** |",
		sum.Attempts, sum.Crashes, sum.Discarded, sum.Checked, sum.Corruptions, sum.Lost, sum.Torn, stale, sum.Errors)
	if !bytes.Contains(section[1], []byte(want)) {
		t.Errorf("EXPERIMENTS.md's total row is not the reports' sum:\n%s", want)
	}
	prose := bytes.Join(bytes.Fields(doc), []byte(" "))
	for _, c := range []string{
		fmt.Sprintf("across %d runs (%d crashes)", sum.Attempts, sum.Crashes),
		fmt.Sprintf("`txn-hunt`'s %d crashes had %d warm reboots and %d txn roll-forwards",
			hunt.Crashes, hunt.Interrupted, hunt.TxnInterrupted),
	} {
		if !bytes.Contains(prose, []byte(c)) {
			t.Errorf("EXPERIMENTS.md does not say %q, which the reports total", c)
		}
	}
}
