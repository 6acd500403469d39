package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary:
// runAll re-execs os.Executable() for each workload, which under `go
// test` is this binary, marked by childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSpecMatchesBenchmarkJSON keeps the root BENCHMARK.json and the
// program's own table (spec.go) one vocabulary.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := specJSON(); !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `go run ./bench -spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
	}
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
	}
}

// TestStreamHash is the seed discipline: one seed, one request stream;
// another seed, another stream.
func TestStreamHash(t *testing.T) {
	for _, w := range []string{wlRW8K, wlMeta, wlSpill, wlRecover} {
		a, err := streamHash(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamHash(w, 1)
		c, _ := streamHash(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x, then to %x", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hash to %x", w, a)
		}
	}
}

// TestSmoke runs every workload for about a second, traced run and all,
// each in a child process exactly as `go run ./bench` does, and checks
// the result file against the spec. It measures nothing; it keeps the
// benchmark from rotting.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark briefly (about 15 s)")
	}
	dir := t.TempDir()
	ok, err := runAll(options{smoke: true, seed: 1, seconds: 1, repeat: 1, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a workload reported failed ops, lost writes or a broken invariant")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result.json is not well-formed: %v", err)
	}
	if res.Env.GoVersion == "" || res.Env.NumCPU == 0 || res.Env.Conns == 0 {
		t.Errorf("environment record incomplete: %+v", res.Env)
	}
	if len(res.Runs) != len(workloads) {
		t.Fatalf("%d runs for %d workloads", len(res.Runs), len(workloads))
	}
	sameNames := func(what string, set metricSet, defs []metricDef) {
		if len(set) != len(defs) {
			t.Errorf("%s: %d metrics, spec has %d", what, len(set), len(defs))
		}
		for _, d := range defs {
			if v, ok := set[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, spec says %q", what, d.Name, v.Unit, d.Unit)
			}
		}
	}
	for i, r := range res.Runs {
		if r.Workload != workloads[i].Name {
			t.Errorf("run %d is %q, spec says %q", i, r.Workload, workloads[i].Name)
		}
		sameNames(r.Workload+" end_to_end", r.EndToEnd, endToEnd)
		sameNames(r.Workload+" per_layer", r.PerLayer, perLayer)
		if !r.Correct || r.Attempted == 0 || r.FailFrac != 0 || r.AckedLost != 0 {
			t.Errorf("%s: correct=%v attempted=%d fail_frac=%v acked_lost=%d problems=%v",
				r.Workload, r.Correct, r.Attempted, r.FailFrac, r.AckedLost, r.Problems)
		}
		for _, d := range endToEnd {
			// Not "> 0": half a second on a machine shared with the rest
			// of `go test ./...` may not complete one crash cycle pair.
			if v := r.EndToEnd[d.Name].Value; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s is %v", r.Workload, d.Name, v)
			}
		}
		if r.Workload != wlCampaign {
			if _, err := os.Stat(filepath.Join(dir, "trace-"+r.Workload+".json")); err != nil {
				t.Errorf("%s: no span file: %v", r.Workload, err)
			}
		}
	}

	// The comparison tool on a file against itself: every row ok.
	var buf bytes.Buffer
	worse, err := compareFiles(&buf, filepath.Join(dir, "result.json"), filepath.Join(dir, "result.json"))
	if err != nil || worse {
		t.Errorf("comparing a result with itself: worse=%v err=%v\n%s", worse, err, buf.String())
	}
}
