package scenario

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rio/internal/crashtest"
)

// TestReplayGivesTheReportedVerdict replays, traced and on fresh
// storage, every conviction the checked-in crash-scan report records
// (rio-noprot/kernel heap's corrupted run): each must convict again with
// the very record the campaign folded, so a replay that drifts from the
// campaign's run fails here.
func TestReplayGivesTheReportedVerdict(t *testing.T) {
	data, err := os.ReadFile("../../scenarios/crash-scan.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile("../../scenario-reports/crash-scan.json"); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Cells []struct {
			Label       string                 `json:"label"`
			Corrupted   int                    `json:"corrupted"`
			Convictions []crashtest.Conviction `json:"convictions"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, c := range rep.Cells {
		if len(c.Convictions) < c.Corrupted {
			t.Fatalf("%s: %d corrupted runs but %d records", c.Label, c.Corrupted, len(c.Convictions))
		}
		for _, want := range c.Convictions {
			o, pm, err := Replay(spec, c.Label, want.Attempt)
			if err != nil {
				t.Fatal(err)
			}
			if got := crashtest.Convict(o); !reflect.DeepEqual(got, &want) {
				t.Fatalf("%s attempt %d: replay convicts %+v, the report records %+v", c.Label, want.Attempt, got, want)
			}
			if pm == nil || pm.CrashKind != want.CrashKind {
				t.Fatalf("%s attempt %d: post-mortem %+v for a %q crash", c.Label, want.Attempt, pm, want.CrashKind)
			}
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("the crash-scan report records no conviction to replay")
	}
}

// TestReplayRejectsInput: a spec, cell or attempt that names no crash
// run of the spec is an error, not a run.
func TestReplayRejectsInput(t *testing.T) {
	crash, err := Parse([]byte(`{"name":"r","kind":"crash","seed":1,"runs":2,
		"faults":{"types":["pointer"]},"topology":{"systems":["rio-prot"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	server, err := Parse([]byte(`{"name":"s","kind":"server","seed":1,"runs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec    *Spec
		cell    string
		attempt int
	}{
		{server, "rio-prot/pointer", 0},
		{crash, "rio-noprot/pointer", 0},     // a system the spec does not run
		{crash, "rio-prot/kernel text", 0},   // a fault the spec does not run
		{crash, "rio-prot", 0},               // no fault at all
		{crash, "rio-prot/no such fault", 0}, // not a fault type
		{crash, "rio-prot/pointer", -1},
		{crash, "rio-prot/pointer", 2 * 6}, // runs × the attempts factor
	} {
		if _, _, err := Replay(tc.spec, tc.cell, tc.attempt); err == nil {
			t.Errorf("%s %q attempt %d: replayed", tc.spec.Name, tc.cell, tc.attempt)
		}
	}
	if _, _, err := Replay(crash, "rio-prot/pointer", 2*6-1); err != nil {
		t.Fatalf("last attempt of the cell: %v", err)
	}
}

// TestEveryCheckedInSpecParses walks scenarios/ with its sub-directories
// (the full-sized campaigns and the corpus, which rioscn's directory walk
// does not enter) and parses every spec.
func TestEveryCheckedInSpecParses(t *testing.T) {
	n := 0
	err := filepath.WalkDir("../../scenarios", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, err := Parse(data); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		n++
		return nil
	})
	if err != nil || n == 0 {
		t.Fatalf("walked %d specs: %v", n, err)
	}
}
