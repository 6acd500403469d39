package crashtest

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rio/internal/fault"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/sim"
)

// fakeRunner is a fast stand-in for RunOne whose outcome is a pure
// function of the run seed, so scheduler tests exercise the worker pool
// and the in-order fold without paying for real simulations.
func fakeRunner(_ *machine.Storage, sys System, ft fault.Type, cfg RunConfig) (WorkloadResult, error) {
	r := sim.NewRand(cfg.Seed)
	res := WorkloadResult{System: sys, Fault: ft, Seed: cfg.Seed}
	roll := r.Float64()
	switch {
	case roll < 0.05:
		return res, fmt.Errorf("synthetic harness error (seed %d)", cfg.Seed)
	case roll < 0.45:
		return res, nil // discarded: never crashed
	}
	res.Crashed = true
	res.CrashKind = kernel.CrashKind(r.Intn(3))
	res.OpsToCrash = 1 + r.Intn(100)
	res.Corrupted = r.Float64() < 0.15
	res.ChecksumDetected = res.Corrupted && r.Bool()
	res.ProtectionInvoked = sys == RioProt && r.Float64() < 0.1
	if cfg.DiskFaults && sys != DiskWT {
		res.RecoveryInterrupted = r.Bool()
		res.Quarantined = r.Intn(4)
		res.Salvaged = r.Intn(3)
		res.VolumeLost = r.Float64() < 0.03
	}
	return res, nil
}

// normalize strips host-dependent timing so reports can be compared for
// the determinism the scheduler guarantees.
func normalize(rep *Report) {
	for _, bySys := range rep.Cells {
		for _, c := range bySys {
			c.Elapsed = 0
		}
	}
	rep.Summary = Summary{}
	rep.Config = CampaignConfig{}
}

func TestCampaignSchedulerDeterministicAcrossWorkers(t *testing.T) {
	base := CampaignConfig{
		Seed:        1996,
		RunsPerCell: 10,
		Run:         RunConfig{DiskFaults: true}, // recovery columns fold too
		runner:      fakeRunner,
	}
	run := func(workers int) (*Report, string) {
		cfg := base
		cfg.Workers = workers
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tbl := rep.Table() + rep.RecoveryTable()
		bd := rep.CrashKindBreakdown(RioProt)
		normalize(rep)
		return rep, tbl + "\n" + bd
	}
	ref, refText := run(1)
	for _, w := range []int{2, 3, 8, 16} {
		rep, text := run(w)
		if text != refText {
			t.Fatalf("workers=%d rendered output diverged from workers=1:\n%s\nvs\n%s", w, text, refText)
		}
		if !reflect.DeepEqual(rep.Cells, ref.Cells) {
			t.Fatalf("workers=%d cells diverged from workers=1", w)
		}
	}
}

func TestRunSeedsIndependentOfEarlierCells(t *testing.T) {
	// Record the seed every (system, fault, attempt) coordinate actually
	// receives under three configs: the full cell list, the same list
	// without its first three fault types, and the full list at three
	// times the runs per cell. With the old shared seed counter the later
	// cells resampled; with coordinate seeding no shared coordinate may,
	// and every cell the two equal-sized campaigns share must fold to the
	// same counts.
	record := func(runsPerCell int, faults []fault.Type) (map[[3]int]uint64, *Report) {
		seeds := make(map[[3]int]uint64)
		var mu sync.Mutex
		attempt := make(map[[2]int]int) // per-cell issue order is attempt order at Workers=1
		rep, err := RunCampaign(CampaignConfig{
			Seed:        7,
			RunsPerCell: runsPerCell,
			Faults:      faults,
			Workers:     1,
			runner: func(st *machine.Storage, sys System, ft fault.Type, rc RunConfig) (WorkloadResult, error) {
				mu.Lock()
				cellKey := [2]int{int(sys), int(ft)}
				k := [3]int{int(sys), int(ft), attempt[cellKey]}
				attempt[cellKey]++
				seeds[k] = rc.Seed
				mu.Unlock()
				return fakeRunner(st, sys, ft, rc)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		normalize(rep)
		return seeds, rep
	}
	later := fault.AllTypes[3:]
	allSeeds, all := record(3, nil)
	laterSeeds, rest := record(3, later)
	moreSeeds, _ := record(9, nil)
	for name, seeds := range map[string]map[[3]int]uint64{"fewer faults": laterSeeds, "more runs": moreSeeds} {
		shared := 0
		for k, seed := range seeds {
			if ref, ok := allSeeds[k]; ok {
				shared++
				if ref != seed {
					t.Fatalf("%s: coordinate %v resampled: %d vs %d", name, k, ref, seed)
				}
			}
		}
		if shared == 0 {
			t.Fatalf("%s: no coordinate shared with the full campaign; test is vacuous", name)
		}
	}
	for _, sys := range Systems {
		for _, ft := range later {
			if !reflect.DeepEqual(all.Cells[sys][ft], rest.Cells[sys][ft]) {
				t.Fatalf("%v/%v folded differently without the earlier faults:\n%+v\nvs\n%+v",
					sys, ft, all.Cells[sys][ft], rest.Cells[sys][ft])
			}
		}
	}
	// And the derivation itself is pure: no config field feeds RunSeed.
	if RunSeed(7, RioProt, fault.Sync, 5) != RunSeed(7, RioProt, fault.Sync, 5) {
		t.Fatal("RunSeed is not a pure function")
	}
}

func TestRunSeedCoordinatesDisperse(t *testing.T) {
	seen := make(map[uint64][3]int)
	for s := 0; s < len(Systems); s++ {
		for f := 0; f < int(fault.NumTypes); f++ {
			for a := 0; a < 300; a++ {
				seed := RunSeed(1, System(s), fault.Type(f), a)
				if prev, dup := seen[seed]; dup {
					t.Fatalf("seed collision between %v and %v", prev, [3]int{s, f, a})
				}
				seen[seed] = [3]int{s, f, a}
			}
		}
	}
}

func TestCampaignProgressSerialisedUnderConcurrency(t *testing.T) {
	// The callback deliberately mutates unsynchronised state: the
	// campaign promises serialised invocations, and the race detector
	// (make check runs this package with -race) enforces it.
	lines := 0
	cellLines := 0
	cfg := CampaignConfig{
		Seed:        3,
		RunsPerCell: 6,
		Workers:     8,
		runner:      fakeRunner,
		Progress: func(s string) {
			lines++
			if strings.Contains(s, "crashes=") {
				cellLines++
			}
		},
	}
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	want := len(Systems) * len(fault.AllTypes)
	if cellLines != want {
		t.Fatalf("got %d cell completion lines, want %d", cellLines, want)
	}
	if lines < cellLines {
		t.Fatalf("line accounting broken: %d < %d", lines, cellLines)
	}
}

func TestCampaignSummaryAccounting(t *testing.T) {
	cfg := CampaignConfig{
		Seed:        11,
		RunsPerCell: 8,
		Workers:     4,
		runner:      fakeRunner,
	}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.Cells != len(Systems)*len(fault.AllTypes) {
		t.Fatalf("cells = %d", s.Cells)
	}
	if s.Runs != s.Crashes+s.Discarded+s.Errors {
		t.Fatalf("runs %d != crashes %d + discarded %d + errors %d",
			s.Runs, s.Crashes, s.Discarded, s.Errors)
	}
	wantAttempts := 0
	for _, bySys := range rep.Cells {
		for _, c := range bySys {
			wantAttempts += c.Attempts
			if c.Attempts != c.Crashes+c.Discarded+c.Errors {
				t.Fatalf("cell attempt accounting broken: %+v", c)
			}
		}
	}
	if s.Runs != wantAttempts {
		t.Fatalf("summary runs %d != summed cell attempts %d", s.Runs, wantAttempts)
	}
	if s.Workers != 4 || s.RunsPerCell != 8 || s.Seed != 11 {
		t.Fatalf("summary config echo wrong: %+v", s)
	}
	if s.WallTime <= 0 || s.RunsPerSec <= 0 {
		t.Fatalf("summary timing not populated: %+v", s)
	}
}

// TestTallyAddCoversEveryCounter sets each of Tally's fields in turn and
// adds it twice, then an empty tally: every counter must read 2 and
// LastError must survive the empty one. A counter added to Tally but not
// to Add fails here instead of going missing from every total.
func TestTallyAddCoversEveryCounter(t *testing.T) {
	typ := reflect.TypeOf(Tally{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var one, want, sum Tally
		switch f.Type.Kind() {
		case reflect.Int:
			reflect.ValueOf(&one).Elem().Field(i).SetInt(1)
			reflect.ValueOf(&want).Elem().Field(i).SetInt(2)
		case reflect.String:
			reflect.ValueOf(&one).Elem().Field(i).SetString("x")
			want = one
		default:
			t.Fatalf("Tally.%s is a %v: teach Add, and this test, how to sum it", f.Name, f.Type)
		}
		sum.Add(one)
		sum.Add(one)
		sum.Add(Tally{})
		if sum != want {
			t.Errorf("Tally.%s: Add gives %+v, want %+v", f.Name, sum, want)
		}
	}
}

func TestReportJSONExport(t *testing.T) {
	cfg := CampaignConfig{
		Seed:        5,
		RunsPerCell: 4,
		Workers:     2,
		runner:      fakeRunner,
	}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Summary Summary `json:"summary"`
		Cells   []struct {
			System, Fault              string
			Crashes, Corrupted, Errors int
			ByKind                     map[string]int `json:"by_kind"`
			Convictions                []Conviction
		} `json:"cells"`
		Table string `json:"table"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("export does not round-trip: %v", err)
	}
	if len(back.Cells) != len(Systems)*len(fault.AllTypes) {
		t.Fatalf("exported %d cells", len(back.Cells))
	}
	// Cells come out in Table 1 order with self-describing names.
	if back.Cells[0].System != DiskWT.String() || back.Cells[0].Fault != fault.TextFlip.String() {
		t.Fatalf("first cell out of order: %+v", back.Cells[0])
	}
	if back.Summary.Runs != rep.Summary.Runs {
		t.Fatal("summary not exported")
	}
	if !strings.Contains(back.Table, "Total") {
		t.Fatal("rendered table missing from export")
	}
	for _, c := range back.Cells {
		if c.Crashes > 0 && len(c.ByKind) == 0 {
			t.Fatalf("cell %s/%s has crashes but no kind breakdown", c.System, c.Fault)
		}
		// One record per corrupted or failed run, in attempt order.
		if len(c.Convictions) != c.Corrupted+c.Errors {
			t.Fatalf("cell %s/%s: %d records for %d corrupted and %d failed runs",
				c.System, c.Fault, len(c.Convictions), c.Corrupted, c.Errors)
		}
		for i := 1; i < len(c.Convictions); i++ {
			if c.Convictions[i].Attempt <= c.Convictions[i-1].Attempt {
				t.Fatalf("cell %s/%s: records out of attempt order: %+v", c.System, c.Fault, c.Convictions)
			}
		}
	}
}

func TestTableColumnsAligned(t *testing.T) {
	cfg := CampaignConfig{
		Seed:        2,
		RunsPerCell: 30, // large enough for 2-digit totals and corruption cells
		Workers:     4,
		runner:      fakeRunner,
	}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table()
	lines := strings.Split(strings.TrimRight(tbl, "\n"), "\n")
	if len(lines) != 1+len(fault.AllTypes)+1 {
		t.Fatalf("table has %d lines:\n%s", len(lines), tbl)
	}
	// Every row — header, per-fault, and the Total row — is fully padded,
	// so all rows have identical width and columns sit under the headers.
	for i, ln := range lines {
		if len(ln) != len(lines[0]) {
			t.Fatalf("row %d width %d != header width %d:\n%s", i, len(ln), len(lines[0]), tbl)
		}
	}
	if !strings.HasPrefix(lines[len(lines)-1], "Total") {
		t.Fatalf("last row is not the Total row:\n%s", tbl)
	}
}

// TestCampaignRealDeterministicAcrossWorkers is the acceptance check on
// real simulations: a reduced campaign renders a byte-identical Table 1
// at Workers=1 and Workers=4.
func TestCampaignRealDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	base := DefaultCampaignConfig(42)
	base.RunsPerCell = 1
	base.Run.WarmupOps = 10
	base.Run.MaxOps = 80
	base.Run.MemTestBytes = 1 << 19
	run := func(workers int) (*Report, string) {
		cfg := base
		cfg.Workers = workers
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tbl := rep.Table()
		normalize(rep)
		return rep, tbl
	}
	seq, seqTbl := run(1)
	par, parTbl := run(4)
	if seqTbl != parTbl {
		t.Fatalf("Table 1 differs across worker counts:\n%s\nvs\n%s", seqTbl, parTbl)
	}
	if !reflect.DeepEqual(seq.Cells, par.Cells) {
		t.Fatal("cell counts differ across worker counts")
	}
}

// TestCampaignRealDoubleFaultDeterministic is the double-fault acceptance
// check on real simulations: with storage faults and second crashes
// enabled, the report — Table 1 plus the recovery columns — is
// byte-identical at Workers=1 and Workers=8, and no recovery aborted.
func TestCampaignRealDoubleFaultDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	base := DefaultCampaignConfig(1996)
	base.RunsPerCell = 1
	base.Run.WarmupOps = 10
	base.Run.MaxOps = 80
	base.Run.MemTestBytes = 1 << 19
	base.Run.DiskFaults = true
	run := func(workers int) (*Report, string) {
		cfg := base
		cfg.Workers = workers
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tbl := rep.Table() + rep.RecoveryTable()
		normalize(rep)
		return rep, tbl
	}
	seq, seqTbl := run(1)
	par, parTbl := run(8)
	if seqTbl != parTbl {
		t.Fatalf("double-fault report differs across worker counts:\n%s\nvs\n%s", seqTbl, parTbl)
	}
	if !reflect.DeepEqual(seq.Cells, par.Cells) {
		t.Fatal("cell counts differ across worker counts")
	}
	for sys, bySys := range seq.Cells {
		for ft, c := range bySys {
			if c.Aborted > 0 {
				t.Errorf("%v/%v: %d recoveries aborted (want none): %s",
					sys, ft, c.Aborted, c.LastError)
			}
		}
	}
}

// fakeClock is a deterministic wallClock: every Now call advances the
// reading by one fixed step, and the call count is recorded so tests can
// compute exactly what the campaign's telemetry should report.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	step  time.Duration
	calls int
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *fakeClock) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestSummaryTimingUsesInjectedClock pins the campaign's telemetry to
// the wallClock seam: WallTime must span exactly from the epoch reading
// to the summarize reading of the injected clock (the host clock must
// not leak in), and RunsPerSec must be derived from that same span.
func TestSummaryTimingUsesInjectedClock(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), step: time.Millisecond}
	cfg := CampaignConfig{
		Seed:        7,
		RunsPerCell: 3,
		Workers:     2,
		runner:      fakeRunner,
		clock:       clk,
	}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	// The first Now call is the epoch, the last is summarize's WallTime
	// reading; every call advances the fake by one step.
	wantWall := time.Duration(clk.Calls()-1) * clk.step
	if rep.Summary.WallTime != wantWall {
		t.Errorf("WallTime = %v, want %v (from %d fake-clock calls)",
			rep.Summary.WallTime, wantWall, clk.Calls())
	}
	wantRate := float64(rep.Summary.Runs) / wantWall.Seconds()
	if rep.Summary.RunsPerSec != wantRate {
		t.Errorf("RunsPerSec = %v, want %v", rep.Summary.RunsPerSec, wantRate)
	}
	// Each folded run contributes at least one clock step of CPU time.
	for _, bySys := range rep.Cells {
		for _, c := range bySys {
			if time.Duration(c.Elapsed) < time.Duration(c.Attempts)*clk.step {
				t.Errorf("cell Elapsed = %v for %d attempts, want >= %v",
					c.Elapsed, c.Attempts, time.Duration(c.Attempts)*clk.step)
			}
		}
	}
}
