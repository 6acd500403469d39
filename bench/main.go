// Command bench is the repository's benchmark: five workloads that
// isolate layers, end-to-end metrics with regression bounds, and a traced
// run that attributes a request's time to layers. BENCHMARK.json (the
// output of -spec) is its contract; README.md explains every number.
//
//	go run ./bench -seed 1                 all workloads, each in its own child process
//	go run ./bench -seed 1 -trace 1        ... and the traced run of each
//	go run ./bench -workload serve-meta -seed 7 -seconds 20 -trace 0
//	go run ./bench -compare A.json B.json  apply the bounds to two result files
//	go run ./bench -smoke                  every workload for about a second
//
// The last line a single-workload run prints is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// runRecord is one run of one workload, as stored in result files.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      int                `json:"trace"`
	StreamHash string             `json:"stream_hash"`
	Correct    bool               `json:"correct"`
	Attempted  uint64             `json:"attempted"`
	Failed     uint64             `json:"failed"`
	FailFrac   float64            `json:"fail_frac"`
	AckedLost  uint64             `json:"acked_lost"`
	Problems   []string           `json:"problems,omitempty"`
	Samples    map[string]uint64  `json:"samples,omitempty"`
	EndToEnd   metricSet          `json:"end_to_end,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
	PerLayer   metricSet          `json:"per_layer,omitempty"`
	Env        envRecord          `json:"env"`
}

// resultFile is what `go run ./bench` writes to <outdir>/result.json.
type resultFile struct {
	Env  envRecord   `json:"env"`
	Runs []runRecord `json:"runs"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	repeat   int
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process (default: all, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated request stream")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1: run the traced run (per-layer metrics) instead of / as well as the measured one")
	flag.BoolVar(&o.smoke, "smoke", false, "about one second per workload, traced run included: checks the benchmark, measures nothing")
	flag.IntVar(&o.repeat, "repeat", 1, "all-workloads mode: run the whole set this many times")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "directory for result and trace files")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *spec:
		os.Stdout.Write(specJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "bench: -compare needs exactly two result files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(1, "bench: %v", err)
		}
		if worse {
			os.Exit(1)
		}
	case o.workload != "":
		rec, err := runOne(o)
		if err != nil {
			fatal(1, "bench: %s: %v", o.workload, err)
		}
		if !rec.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runAll(o)
		if err != nil {
			fatal(1, "bench: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// phases returns the warm-up and measured durations, the number of timed
// set-ups, and the traced run's replay length.
func (o options) phases() (warm, measure time.Duration, setups, ladderOps int) {
	measure = time.Duration(o.seconds * float64(time.Second))
	if o.smoke {
		return 100 * time.Millisecond, time.Second / 2, 1, 500
	}
	return warmUp, measure, setupRepeats, hashOps
}

// runOne runs one workload in this process, prints its metrics, writes
// its record under outDir, and ends with the one-line JSON result.
func runOne(o options) (*runRecord, error) {
	known := false
	for _, w := range workloads {
		known = known || w.Name == o.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload (see -spec)")
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	rec := &runRecord{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Env: readEnv()}
	var err error
	if o.trace == 0 {
		err = measured(o, rec)
	} else {
		err = traced(o, rec)
	}
	if err != nil {
		return nil, err
	}
	if rec.Attempted > 0 {
		rec.FailFrac = float64(rec.Failed) / float64(rec.Attempted)
	}
	rec.Correct = rec.Failed == 0 && rec.AckedLost == 0 && rec.Attempted > 0 && len(rec.Problems) == 0

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	name := o.workload + ".json"
	if o.trace != 0 {
		name = o.workload + ".traced.json"
	}
	if err := writeJSON(filepath.Join(o.outDir, name), rec); err != nil {
		return nil, err
	}
	printRecord(rec)
	metrics := rec.EndToEnd
	if o.trace != 0 {
		metrics = rec.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted uint64    `json:"attempted"`
		Failed    uint64    `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed + rec.AckedLost, metrics})
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s\n", line)
	return rec, nil
}

// measured is the untraced run: the end-to-end metrics.
func measured(o options, rec *runRecord) error {
	warm, measure, setups, _ := o.phases()
	var out *outcome
	if o.workload == wlCampaign {
		var err error
		if out, err = runCampaign(o.seed, measure, setups); err != nil {
			return err
		}
	} else {
		l, err := runLive(o.workload, o.seed, warm, measure, setups)
		if err != nil {
			return err
		}
		out = liveOutcome(o.workload, l, measure)
	}
	rec.absorb(out)
	rec.EndToEnd = fill(endToEnd, out.e2e)
	rec.Extra = out.extra
	return nil
}

// traced is the traced run: a short full-depth run for the server's
// queue counters (the ladder runs at depth 1, where nothing queues), the
// ladder, and the scratch-machine unit times.
func traced(o options, rec *runRecord) error {
	warm, measure, _, ladderOps := o.phases()
	if !o.smoke {
		warm, measure = time.Second, measure/4
	}
	vals := map[string]float64{}
	merge := func(m map[string]float64) {
		for k, v := range m {
			vals[k] = v
		}
	}
	var out *outcome
	if o.workload == wlCampaign {
		var err error
		if out, err = runCampaign(o.seed, time.Second, 1); err != nil {
			return err
		}
		merge(out.extra)
		if vals["crashtest.run_ms_p50"], err = crashOnceP50(o.seed, o.smoke); err != nil {
			return err
		}
	} else {
		l, err := runLive(o.workload, o.seed, warm, measure, 1)
		if err != nil {
			return err
		}
		out = liveOutcome(o.workload, l, measure)
		merge(out.extra)

		tr := &tracer{t0: time.Now()}
		lad, err := runLadder(o.workload, o.seed, ladderOps, tr)
		if err != nil {
			return err
		}
		merge(lad.vals)
		rec.Failed += uint64(lad.failed)
		rec.Attempted += uint64(4 * ladderOps)
		rec.Problems = append(rec.Problems, lad.problems...)
		if !o.smoke {
			// The smoke test shares the machine with the rest of `go
			// test ./...`; a timing order can invert there.
			rec.Problems = append(rec.Problems, lad.orderProblems...)
		}
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(o.outDir, "trace-"+o.workload+".json")); err != nil {
			return err
		}
	}
	rec.absorb(out)
	// The short run's end-to-end numbers go into the record for the
	// smoke test's sake; they are not the benchmark's (-compare and the
	// result line ignore them).
	rec.EndToEnd = fill(endToEnd, out.e2e)
	merge(out.counters)
	units, err := unitTimes(o.seed, o.smoke)
	if err != nil {
		return err
	}
	merge(units)
	rec.PerLayer = fill(perLayer, vals)
	return nil
}

func (rec *runRecord) absorb(out *outcome) {
	rec.Attempted += out.attempted
	rec.Failed += out.failed
	rec.AckedLost += out.lost
	rec.StreamHash = fmt.Sprintf("%016x", out.hash)
	rec.Samples = out.samples
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRecord prints every metric of the run by name, with its unit.
func printRecord(rec *runRecord) {
	fmt.Printf("workload %s seed %d trace %d conns %d stream_hash %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Env.Conns, rec.StreamHash)
	if rec.Env.NoisyHost {
		fmt.Printf("  noisy_host: load average %.2f exceeds %d cpus\n", rec.Env.Load1, rec.Env.NumCPU)
	}
	show := func(defs []metricDef, set metricSet) {
		for _, d := range defs {
			if v, ok := set[d.Name]; ok {
				fmt.Printf("  %-34s %16.4f %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	show(endToEnd, rec.EndToEnd)
	show(perLayer, rec.PerLayer)
	extras := make([]string, 0, len(rec.Extra))
	for k := range rec.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Printf("  %-34s %16.4f (extra)\n", k, rec.Extra[k])
	}
	fmt.Printf("  attempted %d failed %d fail_frac %g acked_lost %d correct %v\n",
		rec.Attempted, rec.Failed, rec.FailFrac, rec.AckedLost, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
}

// runAll runs every workload, each in a freshly exec'd child so that no
// workload inherits another's heap, caches or peak RSS, and gathers the
// children's records into result.json.
func runAll(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	res := resultFile{Env: readEnv()}
	ok := true
	traces := []int{0}
	switch {
	case o.smoke:
		// The traced run contains a short measured run, so it alone
		// exercises every code path.
		traces = []int{1}
	case o.trace != 0:
		traces = []int{0, 1}
	}
	for r := 0; r < o.repeat; r++ {
		for _, w := range workloads {
			for _, tr := range traces {
				args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed),
					"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(tr), "-outdir", o.outDir}
				if o.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Env = append(os.Environ(), childEnv+"=1")
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				name := w.Name + ".json"
				if tr != 0 {
					name = w.Name + ".traced.json"
				}
				os.Remove(filepath.Join(o.outDir, name)) // never read a stale record
				runErr := cmd.Run()
				var rec runRecord
				if b, err := os.ReadFile(filepath.Join(o.outDir, name)); err != nil {
					return false, fmt.Errorf("%s: child left no record (%v; %v)", w.Name, runErr, err)
				} else if err := json.Unmarshal(b, &rec); err != nil {
					return false, fmt.Errorf("%s: %w", name, err)
				}
				if runErr != nil || !rec.Correct {
					ok = false
				}
				res.Runs = append(res.Runs, rec)
			}
		}
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s (%d runs, all correct: %v)\n", path, len(res.Runs), ok)
	return ok, nil
}

// childEnv marks a child process. The smoke test's binary is the test
// binary, which must know to act as the benchmark when re-exec'd.
const childEnv = "RIO_BENCH_CHILD"
