package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"rio/internal/crashtest"
	"rio/internal/fault"
	"rio/internal/perf"
)

// mustRun parses, runs at the given worker count, and returns the
// canonical JSON report.
func mustRun(t *testing.T, spec string, workers int) ([]byte, *Result) {
	t.Helper()
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: workers}
	res, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js, res
}

// checkWorkerInvariance is the tentpole's core promise: the report is
// byte-identical at 1 and 8 workers.
func checkWorkerInvariance(t *testing.T, spec string) *Result {
	t.Helper()
	js1, res := mustRun(t, spec, 1)
	js8, _ := mustRun(t, spec, 8)
	if !bytes.Equal(js1, js8) {
		t.Fatalf("report differs between -workers 1 and -workers 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", js1, js8)
	}
	return res
}

func TestCrashScenarioWorkerInvariance(t *testing.T) {
	res := checkWorkerInvariance(t, `{
		"name":"crash-inv","kind":"crash","seed":11,"runs":4,
		"workload":{"name":"hotkey","keys":24,"skew":1.1},
		"faults":{"types":["kernel text"]},
		"schedule":{"warmup_ops":10,"max_ops":120},
		"topology":{"systems":["rio-prot"]}}`)
	if len(res.Cells) != 1 || res.Cells[0].Label != "rio-prot/kernel text" {
		t.Fatalf("cells: %+v", res.Cells)
	}
	c := res.Cells[0]
	if c.Crashes == 0 || c.Crashes > 4 || c.Crashes+c.Discarded+c.Errors != c.Attempts || res.Totals.Runs != c.Attempts {
		t.Fatalf("cell accounting (runs 4 wants at most 4 crashes): %+v", c)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("rio-prot scenario breached the gate: %v", err)
	}
}

// TestCrashSpecCompilesToTable1Campaign pins the crash kind's compile: a
// memtest spec is Table 1's campaign cut to its cells, so it folds the
// same counts and renders the same Table as crashtest.RunCampaign at the
// same seed.
func TestCrashSpecCompilesToTable1Campaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	_, res := mustRun(t, `{"name":"t1","kind":"crash","seed":7,"runs":1,
		"faults":{"types":["kernel text","pointer"]}}`, 2)
	cfg := crashtest.DefaultCampaignConfig(7)
	cfg.RunsPerCell = 1
	cfg.Faults = []fault.Type{fault.TextFlip, fault.Pointer}
	cfg.Workers = 2
	want, err := crashtest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Campaign.Table(); got != want.Table() {
		t.Fatalf("Table differs:\n%s\nvs RunCampaign:\n%s", got, want.Table())
	}
	i := 0
	for _, sys := range crashtest.Systems {
		for _, ft := range cfg.Faults {
			w, c := want.Cells[sys][ft], &res.Cells[i]
			i++
			if c.Label != sys.String()+"/"+ft.String() {
				t.Fatalf("cell %d is %s", i, c.Label)
			}
			if c.Crashes != w.Crashes || c.Discarded != w.Discarded || c.Corrupted != w.Corrupted ||
				!reflect.DeepEqual(res.Campaign.Cells[sys][ft].ByKind, w.ByKind) {
				t.Fatalf("%s: scenario %+v vs RunCampaign %+v", c.Label, c.Tally, w.Tally)
			}
		}
	}
	if i != len(res.Cells) || want.Summary.Crashes == 0 {
		t.Fatalf("%d scenario cells, %d crashes: vacuous", len(res.Cells), want.Summary.Crashes)
	}
}

func TestServerScenarioWorkerInvariance(t *testing.T) {
	res := checkWorkerInvariance(t, `{
		"name":"server-inv","kind":"server","seed":13,"runs":3,
		"workload":{"name":"hotkey","keys":24,"skew":1.0},
		"schedule":{"max_ops":80,"crash_at":20,"outage_ops":20},
		"topology":{"shards":2}}`)
	c := res.Cells[0]
	if c.Acked == 0 {
		t.Fatal("no writes acked")
	}
	if c.Unacked == 0 {
		t.Fatal("outage never refused a write; the crash window missed the load")
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("server scenario breached the gate: %v", err)
	}
}

func TestFleetScenarioWorkerInvariance(t *testing.T) {
	res := checkWorkerInvariance(t, `{
		"name":"fleet-inv","kind":"fleet","seed":17,"runs":4,
		"topology":{"fleet_faults":["os-crash","kill-primary"]}}`)
	// Cells come out in kind order, not spec order, and the plans cycle
	// the spec's kind list exactly: 4 plans over 2 kinds is 2 each.
	if len(res.Cells) != 2 || res.Cells[0].Label != "fleet/kill-primary" || res.Cells[1].Label != "fleet/os-crash" {
		t.Fatalf("cells: %+v", res.Cells)
	}
	for _, c := range res.Cells {
		if c.Attempts != 2 {
			t.Fatalf("%s ran %d plans, want 2", c.Label, c.Attempts)
		}
	}
	if res.Totals.Checked == 0 {
		t.Fatal("no acked writes verified")
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("fleet scenario breached the gate: %v", err)
	}
	// The fleet's reaction is carried on the cell: a machine kill forces
	// a promotion, a warm reboot of the primary's OS does not.
	if res.Cells[0].Promotions == 0 {
		t.Fatalf("kill-primary: no promotion recorded: %+v", res.Cells[0])
	}
	if res.Cells[1].Promotions != 0 {
		t.Fatalf("os-crash: promotions recorded: %+v", res.Cells[1])
	}
}

// TestPerfSpecIsTable2 pins the perf kind's compile: one cell per Table 2
// configuration and one for the code-patching ablation, each carrying
// exactly the simulated times perf.DefaultConfig measures at the spec's
// seed.
func TestPerfSpecIsTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 2 runs twice")
	}
	_, res := mustRun(t, `{"name":"t2","kind":"perf","seed":7,"runs":1}`, 1)
	cfg := perf.DefaultConfig()
	cfg.Seed = 7
	rows, err := cfg.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	tlb, patched, err := cfg.CodePatchingOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(rows)+1 || len(rows) != 8 {
		t.Fatalf("%d cells for %d rows, want 9", len(res.Cells), len(rows))
	}
	for i, row := range rows {
		c := res.Cells[i]
		if c.Label != row.Spec.Label || c.CpNs != int64(row.CpRmCp) || c.RmNs != int64(row.CpRmRm) ||
			c.SdetNs != int64(row.Sdet) || c.AndrewNs != int64(row.Andrew) {
			t.Fatalf("cell %d is %+v, perf measures %+v", i, c, row)
		}
	}
	if c := res.Cells[8]; c.TLBNs != int64(tlb) || c.PatchedNs != int64(patched) || tlb == 0 {
		t.Fatalf("code-patching cell %+v, perf measures %v -> %v", c, tlb, patched)
	}
	// A perf report counts no crashes: no tally, no stale reads, no totals.
	for _, c := range res.Cells {
		if c.Tally != nil || c.StaleReads != nil {
			t.Fatalf("perf cell %q carries crash columns: %+v", c.Label, c)
		}
	}
	if res.Totals != nil {
		t.Fatalf("perf report has totals: %+v", res.Totals)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("perf scenario breached the gate: %v", err)
	}
}

func TestTxnScenarioRuns(t *testing.T) {
	js1, res := mustRun(t, `{
		"name":"txn","kind":"crash","seed":19,"runs":1,
		"workload":{"name":"txntest","accounts":4},
		"faults":{"types":["kernel heap"]},
		"schedule":{"warmup_ops":4,"max_ops":60}}`, 2)
	if len(js1) == 0 {
		t.Fatal("empty report")
	}
	if res.Totals.Torn != 0 {
		t.Fatalf("torn commits: %d", res.Totals.Torn)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("txn cells: %+v", res.Cells)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	r := &Runner{}
	if _, err := r.Run(&Spec{Name: "x", Kind: "crash", Runs: -1}); err == nil {
		t.Fatal("invalid spec ran")
	}
}

func TestTableAndLatency(t *testing.T) {
	_, res := mustRun(t, `{
		"name":"tbl","kind":"fleet","seed":23,"runs":2,
		"topology":{"fleet_faults":["os-crash"]}}`, 1)
	tbl := res.Table()
	if tbl == "" || res.LatencyTable() != "" {
		t.Fatalf("table %q, latency without clock should be empty: %q", tbl, res.LatencyTable())
	}
}

// TestErroredPlanIsAnErrorOnly feeds the server and fleet folds a plan
// that failed: it is booked as one error and nothing else, so a cell
// keeps Attempts == Crashes + Discarded + Errors on every kind, as a
// crash campaign's does.
func TestErroredPlanIsAnErrorOnly(t *testing.T) {
	boom := errors.New("boom")
	srv := Cell{Tally: &crashtest.Tally{}}
	srv.foldServer(crashtest.Outcome[serverPlanOutcome]{Err: boom,
		Res: serverPlanOutcome{acked: 3, Tally: crashtest.Tally{Checked: 3, Lost: 1}}})
	fl := Cell{Tally: &crashtest.Tally{}, StaleReads: &StaleReads{}}
	fl.foldFleet(crashtest.Outcome[fleetResult]{Err: boom, Res: fleetResult{Acked: 3, Stale: 1, Err: boom}})
	want := crashtest.Tally{Errors: 1, LastError: "boom", Attempts: 1}
	for _, c := range []Cell{srv, fl} {
		if *c.Tally != want || c.Acked != 0 || c.count() != 0 {
			t.Errorf("errored plan folds to %+v, acked %d, stale %d; want %+v and nothing else",
				*c.Tally, c.Acked, c.count(), want)
		}
	}
}
