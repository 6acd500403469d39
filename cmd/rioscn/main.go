// Command rioscn executes scenario files: declarative workload ×
// fault × topology specs (internal/scenario) whose plans — single-machine
// crash runs, crash-under-load runs against the sharded riod server, or
// replicated-fleet runs — are issued into the one campaign scheduler
// (internal/crashtest), or Table 2's performance runs (perf kind).
//
// Usage:
//
//	rioscn [-workers N] [-json-dir DIR] [-quiet] [-no-timing] path...
//	rioscn -cell 'system/fault' -attempt N spec.json
//
// Each path is a scenario file or a directory of *.json scenarios
// (run in sorted name order; sub-directories are not entered, which is
// where scenarios/full keeps the full-sized Table 1 campaigns, txn hunt
// and fleet campaign that `make crash-table1` / `make crash-txn` / `make
// crash-fleet` name explicitly). For every scenario rioscn prints the
// aligned corruption table and a wall-clock latency table, and — with
// -json-dir — writes the canonical JSON report to DIR/<name>.json. A
// memtest crash scenario is a cut of the paper's Table 1 campaign, so
// rioscn also prints it in Table 1's layout: the table, MTTF, protection
// traps, the recovery table under disk_faults and the protected system's
// crash kinds. A perf scenario (scenarios/table2.json) has no crash
// columns: rioscn prints it in Table 2's layout instead, with Rio's
// speedups, protection's cost and the code-patching ablation.
// The JSON bytes are a pure function of the spec: identical at any
// -workers value, which `make scenarios` checks at -workers 1 and 4
// against the checked-in scenario-reports/. Timing never enters them.
//
// Exit status is non-zero when any scenario fails its zero gates:
// silently lost acked writes, torn commits, stale reads, aborted
// recoveries, or harness errors; stderr then names a -cell replay per
// breaching crash cell. Detected corruption does not fail the gate —
// measuring it is the experiment. Two scenarios with one name would
// write one report file: rioscn exits 2 before running either. -cell
// instead re-runs one crash run, traced (crashtest.Replay), and prints
// its post-mortem and verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"rio/internal/crashtest"
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
	cell := flag.String("cell", "", "replay one run of this `system/fault` cell of the one crash spec given, traced")
	attempt := flag.Int("attempt", 0, "the attempt within -cell to replay")
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
	if *cell != "" || *attempt != 0 {
		os.Exit(replay(specs, *cell, *attempt))
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
		if res.Campaign != nil && res.Workload == "memtest" {
			fmt.Println()
			printTable1(res.Campaign, r.Now != nil)
		}
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
			for _, c := range res.Cells {
				if i := slices.IndexFunc(c.Convictions, crashtest.Conviction.Breaches); i >= 0 {
					fmt.Fprintf(os.Stderr, "rioscn: replay with: go run ./cmd/rioscn -cell '%s' -attempt %d %s\n",
						c.Label, c.Convictions[i].Attempt, file)
				}
			}
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "rioscn: %d of %d scenarios breached their zero gates\n", failed, len(files))
		os.Exit(1)
	}
	fmt.Printf("%d scenarios: zero acked-write loss, zero torn commits, zero stale reads, zero aborted recoveries\n", len(files))
}

// replay re-runs one crash run of the one spec given and prints its
// post-mortem and verdict; input that names no run exits 2.
func replay(specs []*scenario.Spec, cell string, attempt int) int {
	if len(specs) != 1 {
		fmt.Fprintln(os.Stderr, "rioscn: -cell replays a run of exactly one spec")
		return 2
	}
	o, pm, err := scenario.Replay(specs[0], cell, attempt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rioscn:", err)
		return 2
	}
	fmt.Printf("%s %s attempt %d: run seed %d, crashed %v\n", specs[0].Name, cell, attempt, o.Res.Seed, o.Res.Crashed)
	if pm != nil {
		fmt.Printf("\npost-mortem at the crash, before recovery:\n%s\n", pm.Format())
	}
	js, _ := json.MarshalIndent(crashtest.Convict(o), "", "  ")
	fmt.Printf("conviction (null: none): %s\n", js)
	return 0
}

// printTable1 prints a memtest crash campaign in the layout of the
// paper's Table 1, with the paper's figures for reference. The
// campaign: line carries wall time and is printed only with timing.
func printTable1(rep *crashtest.Report, timing bool) {
	fmt.Println("Table 1: Comparing Disk and Memory Reliability")
	fmt.Println("(corruptions per cell; blank = none)")
	fmt.Println()
	fmt.Print(rep.Table())
	fmt.Println()
	for _, sys := range crashtest.Systems {
		t := rep.Sum(sys)
		rate := 0.0
		if t.Crashes > 0 {
			rate = 100 * float64(t.Corrupted) / float64(t.Crashes)
		}
		mttf := "unbounded at this sample size"
		if y := crashtest.MTTFYears(t.Corrupted, t.Crashes); y > 0 {
			mttf = fmt.Sprintf("%.1f years", y)
		}
		fmt.Printf("%-12s %d of %d crashes corrupted data (%.1f%%); MTTF at 1 crash/2 months: %s\n",
			sys, t.Corrupted, t.Crashes, rate, mttf)
	}
	fmt.Println()
	fmt.Printf("Rio protection trapped an illegal file-cache store in %d crashes\n",
		rep.Sum(crashtest.RioProt).Protection)
	fmt.Println()
	if rep.Config.Run.DiskFaults {
		fmt.Println("Recovery under storage faults + second crash (totals per system):")
		fmt.Print(rep.RecoveryTable())
		fmt.Println()
	}
	fmt.Println("Crash manifestations (Rio with protection):")
	fmt.Print(rep.CrashKindBreakdown(crashtest.RioProt))
	fmt.Println()
	if sum := rep.Summary; timing {
		fmt.Printf("campaign: %d runs (%d crashes, %d discarded, %d errors) on %d workers in %v — %.1f runs/s, %.0f%% discard rate, %d speculative\n",
			sum.Runs, sum.Crashes, sum.Discarded, sum.Errors, sum.Workers,
			sum.WallTime.Round(10*time.Millisecond), sum.RunsPerSec, 100*sum.DiscardRate, sum.SpeculativeRuns)
	}
	fmt.Println()
	fmt.Println("Paper reference: disk 7/650 (1.1%), Rio w/o protection 10/650 (1.5%),")
	fmt.Println("Rio w/ protection 4/650 (0.6%); 8 protection invocations; MTTF 15y / 11y.")
}
