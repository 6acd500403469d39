package crashtest_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"rio/internal/scenario"
)

// The transactional hunt and its tests moved onto the scenario runner
// when the txn campaign runner was deleted; they stay in this package's
// test suite because what they exercise — the crash run's txn
// roll-forward step and the scheduler — lives here.

func runSpec(t *testing.T, data []byte, workers int) (*scenario.Result, []byte) {
	t.Helper()
	spec, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&scenario.Runner{Workers: workers}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return res, js
}

// The headline acceptance, on the checked-in hunt: the torn column must
// be zero — a commit is either fully visible after recovery or not at
// all — and recovery must never abort, across every fault type on both
// Rio systems with storage faults and second crashes injected during
// the warm reboot and the txn roll-forward.
func TestTxnCampaignZeroTorn(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	data, err := os.ReadFile("../../scenarios/txn-hunt.json")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runSpec(t, data, 0)
	if err := res.Gate(); err != nil {
		t.Fatalf("%v\n%s", err, res.Table())
	}
	if res.Totals.Errors != 0 {
		t.Fatalf("%d harness errors:\n%s", res.Totals.Errors, res.Table())
	}
	if res.Totals.Torn != 0 {
		t.Fatalf("%d torn transactions:\n%s", res.Totals.Torn, res.Table())
	}
	if res.Totals.Aborted != 0 {
		t.Fatalf("%d aborted recoveries:\n%s", res.Totals.Aborted, res.Table())
	}
	if res.Totals.Crashes == 0 {
		t.Fatal("no run crashed; campaign is vacuous")
	}
	if res.Totals.Interrupted == 0 {
		t.Fatal("no warm reboot was interrupted; second-crash injection inert")
	}
	if res.Totals.TxnInterrupted == 0 {
		t.Fatal("no txn roll-forward was interrupted; its second-crash injection is inert")
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "total") || !strings.Contains(tbl, "copy overrun") {
		t.Fatalf("table malformed:\n%s", tbl)
	}
}

// The report must be byte-identical at any worker count: the spec
// compiles to a crash campaign whose run seeds are pure functions of
// (spec seed, system, fault, attempt), and each cell folds its runs in
// attempt order.
func TestTxnCampaignWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	spec := []byte(`{
		"name":"txn-inv","kind":"crash","seed":99,"runs":2,
		"workload":{"name":"txntest","accounts":3},
		"faults":{"types":["kernel text","copy overrun","pointer"],"disk_faults":true},
		"schedule":{"warmup_ops":11,"max_ops":60}}`)
	a, ja := runSpec(t, spec, 1)
	b, jb := runSpec(t, spec, 8)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("worker count changed the report:\n--- workers=1\n%s--- workers=8\n%s", ja, jb)
	}
	if a.Table() != b.Table() {
		t.Fatalf("worker count changed the table:\n--- workers=1\n%s--- workers=8\n%s", a.Table(), b.Table())
	}
}
