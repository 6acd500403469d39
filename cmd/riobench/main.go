// Command riobench is the core-op microbenchmark harness: it measures
// the simulator's per-operation hot-path cost (host wall-clock and host
// allocations — the simulator's own speed, not the simulated 1996 disk)
// for create, deep-path lookup, read, write, and unlink, at a
// configurable directory depth and fanout, plus the served read/write
// round trip, the two whole-cache paths (warm reboot, read miss on a
// full data cache), and what a crash campaign is made of: the kernel
// interpreter on an 8 KB bcopy and one whole crash run.
//
// Usage:
//
//	riobench [-depth 6] [-fanout 64] [-iters 4000] [-size 8192]
//	         [-filesize 262144] [-policy rio] [-seed 1]
//	         [-out BENCH_core.json] [-baseline old.json]
//	         [-cpuprofile cpu.out]
//	riobench -diff OLD.json NEW.json
//
// Each op reports ns/op, allocs/op, B/op (host), and simulated µs/op.
// -baseline embeds a previous run's results in the report and computes
// speedups (old-ns / new-ns) and allocation ratios, so BENCH_core.json
// carries its own before/after story. -diff compares two report files
// and prints the deltas (scripts/benchdiff.sh wraps it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rio"
	"rio/internal/crashtest"
	"rio/internal/fault"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/server"
	"rio/internal/sim"
	"rio/internal/wire"
)

type benchConfig struct {
	Depth    int    `json:"depth"`
	Fanout   int    `json:"fanout"`
	Iters    int    `json:"iters"`
	Size     int    `json:"chunk_bytes"`
	FileSize int    `json:"file_bytes"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
}

type opResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	SimUsPerOp  float64 `json:"sim_us_per_op"`
	// StepsPerOp is the kernel instructions interpreted per op, on rows
	// that time the interpreter: ns_per_op over it is host ns per step.
	StepsPerOp float64 `json:"steps_per_op,omitempty"`
}

type baselineBlock struct {
	Results []opResult         `json:"results"`
	Speedup map[string]float64 `json:"speedup_ns"`  // old ns/op over new ns/op
	Allocs  map[string]float64 `json:"alloc_ratio"` // new allocs/op over old allocs/op
}

type benchReport struct {
	Bench    string         `json:"bench"`
	Config   benchConfig    `json:"config"`
	Results  []opResult     `json:"results"`
	Baseline *baselineBlock `json:"baseline,omitempty"`
}

func main() {
	var cfg benchConfig
	flag.IntVar(&cfg.Depth, "depth", 6, "directory depth of the lookup path")
	flag.IntVar(&cfg.Fanout, "fanout", 64, "files per leaf directory")
	flag.IntVar(&cfg.Iters, "iters", 4000, "measured iterations per op")
	flag.IntVar(&cfg.Size, "size", 8192, "bytes per read/write op")
	flag.IntVar(&cfg.FileSize, "filesize", 262144, "read/write target file size")
	flag.StringVar(&cfg.Policy, "policy", "rio", "file-system policy")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "machine seed")
	out := flag.String("out", "BENCH_core.json", "JSON report path (empty = skip)")
	baseline := flag.String("baseline", "", "previous BENCH_core.json to embed and compare against")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured loops")
	diff := flag.Bool("diff", false, "compare two report files (riobench -diff OLD NEW) and exit")
	gate := flag.String("gate-allocs", "", "comma list of op=max allocs/op budgets to enforce (e.g. served-read=1)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "riobench: -diff needs exactly two report files")
			os.Exit(2)
		}
		cur, err := printDiff(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "riobench:", err)
			os.Exit(1)
		}
		if err := gateAllocs(cur.Results, *gate); err != nil {
			fmt.Fprintln(os.Stderr, "riobench:", err)
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "riobench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "riobench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	report := benchReport{Bench: "riobench-core", Config: cfg}
	results, err := runAll(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riobench:", err)
		os.Exit(1)
	}
	served, err := runServed(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riobench:", err)
		os.Exit(1)
	}
	results = append(results, served...)
	recovery, err := runRecovery(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riobench:", err)
		os.Exit(1)
	}
	results = append(results, recovery...)
	campaign, err := runCampaignCost(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riobench:", err)
		os.Exit(1)
	}
	results = append(results, campaign...)
	report.Results = results

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "riobench: baseline:", err)
			os.Exit(1)
		}
		report.Baseline = compare(base.Results, results)
	}

	printReport(&report)

	if err := gateAllocs(results, *gate); err != nil {
		fmt.Fprintln(os.Stderr, "riobench:", err)
		os.Exit(1)
	}

	if *out != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "riobench: write report:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// bench measures fn over n iterations: wall ns/op, host allocs/op and
// B/op (ReadMemStats deltas), and simulated µs/op. A GC runs first so
// the allocation counters measure the loop, not the setup's garbage.
func bench(name string, sys *rio.System, n int, fn func(i int) error) (opResult, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	simStart := sys.Elapsed()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return opResult{}, fmt.Errorf("%s op %d: %w", name, i, err)
		}
	}
	wall := time.Since(start)
	simWall := sys.Elapsed() - simStart
	runtime.ReadMemStats(&after)
	return opResult{
		Name:        name,
		Ops:         n,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		SimUsPerOp:  float64(simWall.Microseconds()) / float64(n),
	}, nil
}

// runAll boots one machine and measures the five core ops against it.
func runAll(cfg benchConfig) ([]opResult, error) {
	sys, err := rio.New(rio.Config{Policy: rio.Policy(cfg.Policy), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	// Build the deep directory chain /b0/b1/.../b{depth-1} and the leaf
	// file population the lookup benchmark will resolve through.
	deep := ""
	for d := 0; d < cfg.Depth; d++ {
		deep = fmt.Sprintf("%s/b%d", deep, d)
		if err := sys.Mkdir(deep); err != nil {
			return nil, err
		}
	}
	leafFiles := make([]string, cfg.Fanout)
	for i := range leafFiles {
		leafFiles[i] = fmt.Sprintf("%s/f%03d", deep, i)
		if err := sys.WriteFile(leafFiles[i], []byte("x")); err != nil {
			return nil, err
		}
	}

	// Read/write target: one warm multi-block file.
	rw, err := sys.Create("/rwbench")
	if err != nil {
		return nil, err
	}
	defer rw.Close()
	payload := make([]byte, cfg.Size)
	for i := range payload {
		payload[i] = byte(i)
	}
	for off := 0; off < cfg.FileSize; off += cfg.Size {
		if _, err := rw.WriteAt(payload, int64(off)); err != nil {
			return nil, err
		}
	}
	chunks := cfg.FileSize / cfg.Size
	rbuf := make([]byte, cfg.Size)

	var results []opResult
	add := func(r opResult, err error) error {
		if err != nil {
			return err
		}
		results = append(results, r)
		return nil
	}

	// create/unlink run in rounds of `fanout` files so the inode table
	// never fills; the per-op figures aggregate across rounds.
	if err := sys.Mkdir("/churn"); err != nil {
		return nil, err
	}
	rounds := (cfg.Iters + cfg.Fanout - 1) / cfg.Fanout
	var createNs, unlinkNs time.Duration
	var createAllocs, unlinkAllocs, createBytes, unlinkBytes uint64
	var createSim, unlinkSim time.Duration
	total := 0
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var m0, m1, m2 runtime.MemStats
		names := make([]string, cfg.Fanout)
		for i := range names {
			names[i] = fmt.Sprintf("/churn/f%03d", i)
		}
		runtime.ReadMemStats(&m0)
		sim0 := sys.Elapsed()
		t0 := time.Now()
		for _, p := range names {
			f, err := sys.Create(p)
			if err != nil {
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		sim1 := sys.Elapsed()
		runtime.ReadMemStats(&m1)
		for _, p := range names {
			if err := sys.Remove(p); err != nil {
				return nil, err
			}
		}
		t2 := time.Now()
		sim2 := sys.Elapsed()
		runtime.ReadMemStats(&m2)
		createNs += t1.Sub(t0)
		unlinkNs += t2.Sub(t1)
		createSim += sim1 - sim0
		unlinkSim += sim2 - sim1
		createAllocs += m1.Mallocs - m0.Mallocs
		unlinkAllocs += m2.Mallocs - m1.Mallocs
		createBytes += m1.TotalAlloc - m0.TotalAlloc
		unlinkBytes += m2.TotalAlloc - m1.TotalAlloc
		total += cfg.Fanout
	}
	results = append(results,
		opResult{Name: "create", Ops: total,
			NsPerOp:     float64(createNs.Nanoseconds()) / float64(total),
			AllocsPerOp: float64(createAllocs) / float64(total),
			BytesPerOp:  float64(createBytes) / float64(total),
			SimUsPerOp:  float64(createSim.Microseconds()) / float64(total)},
		opResult{Name: "unlink", Ops: total,
			NsPerOp:     float64(unlinkNs.Nanoseconds()) / float64(total),
			AllocsPerOp: float64(unlinkAllocs) / float64(total),
			BytesPerOp:  float64(unlinkBytes) / float64(total),
			SimUsPerOp:  float64(unlinkSim.Microseconds()) / float64(total)})

	// Deep-path lookup: every component re-resolves through the chain.
	if err := add(bench("lookup-deep", sys, cfg.Iters, func(i int) error {
		_, err := sys.Stat(leafFiles[i%len(leafFiles)])
		return err
	})); err != nil {
		return nil, err
	}

	// Warm read path: every chunk is a cache hit.
	if err := add(bench("read", sys, cfg.Iters, func(i int) error {
		_, err := rw.ReadAt(rbuf, int64(i%chunks)*int64(cfg.Size))
		return err
	})); err != nil {
		return nil, err
	}

	// Warm write path: overwrites of cached blocks.
	if err := add(bench("write", sys, cfg.Iters, func(i int) error {
		_, err := rw.WriteAt(payload, int64(i%chunks)*int64(cfg.Size))
		return err
	})); err != nil {
		return nil, err
	}

	return results, nil
}

// benchHost measures fn over n iterations with host-side counters only
// (no simulated clock — served ops cross a shard goroutine, so the op
// cost is wall time plus whatever every goroutine allocated). A GC runs
// first so the counters measure the loop, not setup garbage; a short
// re-warm follows it, because the GC empties sync.Pools and the refill
// allocations belong to the pools' steady state, not to the ops.
func benchHost(name string, n int, fn func(i int) error) (opResult, error) {
	runtime.GC()
	for i := 0; i < 16; i++ {
		if err := fn(i); err != nil {
			return opResult{}, fmt.Errorf("%s warmup op %d: %w", name, i, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return opResult{}, fmt.Errorf("%s op %d: %w", name, i, err)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return opResult{
		Name:        name,
		Ops:         n,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// runServed boots a one-shard in-process server and measures the served
// hot paths end to end: the zero-copy frame read (DoFrame, data copied
// once from the cache frame into the pooled wire frame) and the write
// path through the shard queue. Host allocations are counted across
// every goroutine — caller, shard, and pool bookkeeping together — so
// served-read allocs/op is exactly the figure scripts/benchdiff.sh
// gates at <= 1.
func runServed(cfg benchConfig) ([]opResult, error) {
	srv, err := server.New(server.Config{Shards: 1, Policy: rio.Policy(cfg.Policy), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	payload := make([]byte, cfg.Size)
	for i := range payload {
		payload[i] = byte(i)
	}
	wreq := &wire.Request{ID: 1, Op: wire.OpWrite, Path: "/served/bench", Data: payload}
	if r := srv.Do(wreq); r.Status != wire.StatusOK {
		return nil, fmt.Errorf("served seed write: status %d: %s", r.Status, r.Msg)
	}

	rreq := &wire.Request{ID: 2, Op: wire.OpRead, Path: "/served/bench"}
	for i := 0; i < 64; i++ { // warm the frame pool, reply channels, dcache
		frame, resp := srv.DoFrame(rreq)
		if resp.Status != wire.StatusOK {
			return nil, fmt.Errorf("served warm read: status %d: %s", resp.Status, resp.Msg)
		}
		srv.ReleaseFrame(frame)
	}

	var results []opResult
	r, err := benchHost("served-read", cfg.Iters, func(i int) error {
		frame, resp := srv.DoFrame(rreq)
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("status %d: %s", resp.Status, resp.Msg)
		}
		srv.ReleaseFrame(frame)
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	r, err = benchHost("served-write", cfg.Iters, func(i int) error {
		if resp := srv.Do(wreq); resp.Status != wire.StatusOK {
			return fmt.Errorf("status %d: %s", resp.Status, resp.Msg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)
	return results, nil
}

// runRecovery measures the two paths that cross the whole cache rather
// than one buffer of it, on a machine whose data cache is full:
// warm-reboot is crash → warm reboot with every data frame dirty (Rio
// never writes back, so that is a full cache's steady state: dump, parse,
// fsck, boot, one open/write/close per page), and evict-insert is a block
// read that misses (disk read, eviction of the LRU page, insert of the
// new one — the cyclic scan of a file set 5/4 the cache makes every read
// that miss).
func runRecovery(cfg benchConfig) ([]opResult, error) {
	const block = 8192 // the file-system block and cache page size
	sys, err := rio.New(rio.Config{Policy: rio.Policy(cfg.Policy), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	cachePages := sys.Machine().Opt.DataCap
	page := make([]byte, block)
	fill := func(path string, pages int) (*rio.File, error) {
		f, err := sys.Create(path)
		if err != nil {
			return nil, err
		}
		for i := 0; i < pages; i++ {
			for j := range page {
				page[j] = byte(i + j)
			}
			if _, err := f.WriteAt(page, int64(i)*block); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	full, err := fill("/full", cachePages)
	if err != nil {
		return nil, err
	}
	if err := full.Close(); err != nil {
		return nil, err
	}

	var results []opResult
	r, err := benchHost("warm-reboot", 16, func(int) error {
		sys.Crash("riobench")
		rep, err := sys.WarmReboot()
		if err == nil && rep.DataRestored != cachePages {
			err = fmt.Errorf("restored %d data pages, want %d", rep.DataRestored, cachePages)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	results = append(results, r)

	extra := cachePages / 4
	spill, err := fill("/spill", extra)
	if err != nil {
		return nil, err
	}
	defer spill.Close()
	if full, err = sys.Open("/full"); err != nil {
		return nil, err
	}
	defer full.Close()
	miss := func(i int) error {
		i %= cachePages + extra
		if i < cachePages {
			_, err := full.ReadAt(page, int64(i)*block)
			return err
		}
		_, err := spill.ReadAt(page, int64(i-cachePages)*block)
		return err
	}
	for i := 0; i < cachePages+extra; i++ { // first lap: dirty victims are written back once
		if err := miss(i); err != nil {
			return nil, err
		}
	}
	before := sys.Machine().Cache.Stats.DataMisses
	r, err = bench("evict-insert", sys, cfg.Iters, miss)
	if err != nil {
		return nil, err
	}
	if got := sys.Machine().Cache.Stats.DataMisses - before; got != uint64(cfg.Iters) {
		return nil, fmt.Errorf("evict-insert: %d of %d reads missed", got, cfg.Iters)
	}
	return append(results, r), nil
}

// runCampaignCost measures what a crash campaign spends its time on.
// interp-bcopy8k is the kernel interpreter alone: an 8 KB bcopy from the
// staging region into the heap on a bare kernel, as BenchmarkKVMInterpreter
// runs it (half of its accesses miss the TLB), reported per copy with the
// steps it took. crash-run is crashtest.RunOne whole — boot, warm-up,
// injection, crash, recovery, verification — over the three systems and
// four fault types, every run on the storage the run before it left, as a
// campaign worker's runs are.
func runCampaignCost(cfg benchConfig) ([]opResult, error) {
	km := mem.New(kernel.MinMemory)
	k := kernel.New(km, mmu.New(km), kernel.BuildText())
	src := k.StageIn(make([]byte, 8192))
	before := k.VM.Steps
	interp, err := benchHost("interp-bcopy8k", cfg.Iters, func(int) error {
		return k.BCopy(kernel.HeapBase+4096, src, 8192)
	})
	if err != nil {
		return nil, err
	}
	// benchHost's 16 warm-up copies are interpreted too.
	interp.StepsPerOp = float64(k.VM.Steps-before) / float64(cfg.Iters+16)

	faults := []fault.Type{fault.TextFlip, fault.HeapFlip, fault.CopyOverrun, fault.Pointer}
	st := new(machine.Storage)
	run, err := benchHost("crash-run", 2*len(crashtest.Systems)*len(faults), func(i int) error {
		sys := crashtest.Systems[i%len(crashtest.Systems)]
		ft := faults[i/len(crashtest.Systems)%len(faults)]
		_, err := crashtest.RunOne(st, sys, ft, crashtest.DefaultRunConfig(sim.Mix(cfg.Seed, uint64(i))))
		return err
	})
	if err != nil {
		return nil, err
	}
	return []opResult{interp, run}, nil
}

// gateAllocs enforces a comma list of op=max allocs/op budgets (e.g.
// "served-read=1,write=1") against results. A named op missing from the
// results is an error too — a silently skipped gate is no gate. The gate
// judges the value it prints, rounded to 0.01: one stray runtime
// allocation in a 4000-op sample reads 1.00025 and is not a regression,
// while a real extra allocation per op is +1.0.
func gateAllocs(results []opResult, spec string) error {
	if spec == "" {
		return nil
	}
	byName := map[string]opResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	for _, clause := range strings.Split(spec, ",") {
		name, maxStr, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return fmt.Errorf("bad -gate-allocs clause %q (want op=max)", clause)
		}
		max, err := strconv.ParseFloat(maxStr, 64)
		if err != nil {
			return fmt.Errorf("bad -gate-allocs budget %q: %v", maxStr, err)
		}
		r, found := byName[name]
		if !found {
			return fmt.Errorf("gate-allocs: op %q not in report", name)
		}
		allocs := math.Round(r.AllocsPerOp*100) / 100
		if allocs > max {
			return fmt.Errorf("gate-allocs: %s allocates %.2f objects/op, budget %g", name, allocs, max)
		}
		fmt.Printf("gate-allocs: %s %.2f allocs/op within budget %g\n", name, allocs, max)
	}
	return nil
}

func compare(old, cur []opResult) *baselineBlock {
	b := &baselineBlock{
		Results: old,
		Speedup: map[string]float64{},
		Allocs:  map[string]float64{},
	}
	byName := map[string]opResult{}
	for _, r := range old {
		byName[r.Name] = r
	}
	for _, r := range cur {
		o, ok := byName[r.Name]
		if !ok || r.NsPerOp == 0 {
			continue
		}
		b.Speedup[r.Name] = o.NsPerOp / r.NsPerOp
		if o.AllocsPerOp > 0 {
			b.Allocs[r.Name] = r.AllocsPerOp / o.AllocsPerOp
		}
	}
	return b
}

func readReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func printReport(r *benchReport) {
	fmt.Printf("%-14s %8s %12s %12s %12s %12s\n",
		"op", "ops", "ns/op", "allocs/op", "B/op", "sim-µs/op")
	for _, res := range r.Results {
		fmt.Printf("%-14s %8d %12.0f %12.1f %12.0f %12.2f",
			res.Name, res.Ops, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.SimUsPerOp)
		if r.Baseline != nil {
			if s, ok := r.Baseline.Speedup[res.Name]; ok {
				fmt.Printf("   %.2fx vs baseline", s)
			}
		}
		if res.StepsPerOp > 0 {
			fmt.Printf("   %.2f ns/step, %.0f steps/op", res.NsPerOp/res.StepsPerOp, res.StepsPerOp)
		}
		fmt.Println()
	}
}

// printDiff renders the delta between two report files and returns the
// NEW report so the caller can gate on it.
func printDiff(oldPath, newPath string) (*benchReport, error) {
	old, err := readReport(oldPath)
	if err != nil {
		return nil, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return nil, err
	}
	byName := map[string]opResult{}
	for _, r := range old.Results {
		byName[r.Name] = r
	}
	fmt.Printf("%-14s %14s %14s %9s   %14s %14s %9s\n",
		"op", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, r := range cur.Results {
		o, ok := byName[r.Name]
		if !ok {
			fmt.Printf("%-14s %14s %14.0f %9s\n", r.Name, "(new)", r.NsPerOp, "")
			continue
		}
		fmt.Printf("%-14s %14.0f %14.0f %+8.1f%%   %14.1f %14.1f %+8.1f%%\n",
			r.Name, o.NsPerOp, r.NsPerOp, pct(o.NsPerOp, r.NsPerOp),
			o.AllocsPerOp, r.AllocsPerOp, pct(o.AllocsPerOp, r.AllocsPerOp))
	}
	for _, o := range old.Results {
		found := false
		for _, r := range cur.Results {
			if r.Name == o.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-14s %14.0f %14s\n", o.Name, o.NsPerOp, "(removed)")
		}
	}
	return cur, nil
}

// pct returns the relative change from old to new in percent.
func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}
