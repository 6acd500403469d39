// Command rioscn executes scenario files: declarative workload ×
// fault × topology specs (internal/scenario) whose plans — single-machine
// crash runs, crash-under-load runs against the sharded riod server, or
// replicated-fleet runs — are issued into the one campaign scheduler
// (internal/crashtest).
//
// Usage:
//
//	rioscn [-workers N] [-json-dir DIR] [-quiet] [-no-timing] path...
//
// Each path is a scenario file or a directory of *.json scenarios
// (run in sorted name order; sub-directories are not entered, which is
// where scenarios/full keeps the full-sized txn hunt and fleet campaign
// that `make crash-txn` / `make crash-fleet` name explicitly). For every
// scenario rioscn prints the aligned corruption table and a wall-clock
// latency table, and — with -json-dir — writes the canonical JSON report
// to DIR/<name>.json.
// The JSON bytes are a pure function of the spec: identical at any
// -workers value, which scripts/check.sh verifies by diffing -workers
// 1 against -workers 4. Timing never enters the JSON artifact.
//
// Exit status is non-zero when any scenario fails its zero gates:
// silently lost acked writes, torn commits, stale reads, aborted
// recoveries, or harness errors. Detected corruption does not fail the
// gate — measuring it is the experiment. Two scenarios with one name
// would write one report file: rioscn exits 2 before running either.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rio/internal/scenario"
)

// collect expands the argument list into a sorted scenario file list.
func collect(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, arg)
			continue
		}
		ents, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				files = append(files, filepath.Join(arg, e.Name()))
			}
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario files found in %v", args)
	}
	return files, nil
}

func main() {
	workers := flag.Int("workers", 0, "worker goroutines per scenario (0 = all cores)")
	jsonDir := flag.String("json-dir", "", "write each scenario's canonical JSON report to this directory")
	quiet := flag.Bool("quiet", false, "suppress per-plan progress")
	noTiming := flag.Bool("no-timing", false, "skip the wall-clock latency table")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: rioscn [-workers N] [-json-dir DIR] <scenario.json | dir>...")
		os.Exit(2)
	}
	files, err := collect(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rioscn:", err)
		os.Exit(1)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rioscn:", err)
			os.Exit(1)
		}
	}

	r := &scenario.Runner{Workers: *workers}
	if !*noTiming {
		r.Now = time.Now
	}
	if !*quiet {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	// Parse everything before running anything: a bad spec, or two specs
	// that would write one report file, should cost no campaign time.
	specs := make([]*scenario.Spec, len(files))
	fileOf := make(map[string]string, len(files))
	for i, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rioscn:", err)
			os.Exit(1)
		}
		if specs[i], err = scenario.Parse(data); err != nil {
			fmt.Fprintf(os.Stderr, "rioscn: %s: %v\n", file, err)
			os.Exit(1)
		}
		if prev, dup := fileOf[specs[i].Name]; dup {
			fmt.Fprintf(os.Stderr, "rioscn: %s and %s are both named %q: one report would overwrite the other\n",
				prev, file, specs[i].Name)
			os.Exit(2)
		}
		fileOf[specs[i].Name] = file
	}

	failed := 0
	for i, spec := range specs {
		file := files[i]
		res, err := r.Run(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rioscn: %s: %v\n", file, err)
			os.Exit(1)
		}
		fmt.Print(res.Table())
		if lt := res.LatencyTable(); lt != "" {
			fmt.Println()
			fmt.Print(lt)
		}
		fmt.Println()
		if *jsonDir != "" {
			js, err := res.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "rioscn:", err)
				os.Exit(1)
			}
			out := filepath.Join(*jsonDir, res.Name+".json")
			if err := os.WriteFile(out, js, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "rioscn:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", out)
		}
		if err := res.Gate(); err != nil {
			fmt.Fprintln(os.Stderr, "rioscn: FAIL:", err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "rioscn: %d of %d scenarios breached their zero gates\n", failed, len(files))
		os.Exit(1)
	}
	fmt.Printf("%d scenarios: zero acked-write loss, zero torn commits, zero stale reads, zero aborted recoveries\n", len(files))
}
