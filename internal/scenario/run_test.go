package scenario

import (
	"bytes"
	"testing"
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
	if res.Totals.Runs != 4 {
		t.Fatalf("runs folded: %d", res.Totals.Runs)
	}
	if len(res.Cells) != 1 || res.Cells[0].Label != "rio-prot/kernel text" {
		t.Fatalf("cells: %+v", res.Cells)
	}
	if res.Cells[0].Crashed+res.Cells[0].Discarded+res.Cells[0].Errors != 4 {
		t.Fatalf("cell accounting: %+v", res.Cells[0])
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("rio-prot scenario breached the gate: %v", err)
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
		if c.Runs != 2 {
			t.Fatalf("%s ran %d plans, want 2", c.Label, c.Runs)
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

func TestTxnScenarioRuns(t *testing.T) {
	js1, res := mustRun(t, `{
		"name":"txn","kind":"crash","seed":19,"runs":2,
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
