package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Cell is one aggregated row of a scenario report: a (system × fault)
// pair for crash scenarios, the one crash-under-load row for server
// scenarios, a fleet fault kind for fleet scenarios. Cells are built
// by folding per-plan slots in plan order, so their bytes are
// independent of the worker count. Wall-clock timing deliberately
// lives in json-excluded fields: the JSON report is the determinism
// artifact (diffed across worker counts), the latency table is not.
type Cell struct {
	Label string `json:"label"`
	// Runs = plans folded; Crashed = plans whose fault actually took
	// the system down (crash kind); Discarded = plans that never
	// crashed within the attempt budget, as in the paper.
	Runs      int `json:"runs"`
	Crashed   int `json:"crashed,omitempty"`
	Discarded int `json:"discarded,omitempty"`

	// Verdict columns.
	Checked     int `json:"checked"`
	Corrupted   int `json:"corrupted"`             // runs with any corruption
	Corruptions int `json:"corruptions"`           // total corruption entries
	Lost        int `json:"lost"`                  // silent acked-state loss (the zero gate)
	Torn        int `json:"torn"`                  // half-applied multi-step ops (the zero gate)
	Stale       int `json:"stale"`                 // fleet: deposed-primary stale reads (zero gate)
	TornMasked  int `json:"torn_masked,omitempty"` // convictions downgraded by recovery-reported damage
	LostMasked  int `json:"lost_masked,omitempty"`

	// Traffic columns (server/fleet kinds).
	Acked   int `json:"acked,omitempty"`
	Unacked int `json:"unacked,omitempty"`

	// Recovery observability (crash kind). RecoveryInterrupted and
	// TxnRecoveryInterrupted count second crashes injected into the warm
	// reboot and the txn roll-forward; RecoveryAborted counts recoveries
	// that returned an error instead of finishing (a zero gate).
	ChecksumDetected       int `json:"checksum_detected,omitempty"`
	ProtectionInvoked      int `json:"protection_invoked,omitempty"`
	Quarantined            int `json:"quarantined,omitempty"`
	Salvaged               int `json:"salvaged,omitempty"`
	VolumeLost             int `json:"volume_lost,omitempty"`
	RecoveryInterrupted    int `json:"recovery_interrupted,omitempty"`
	TxnRecoveryInterrupted int `json:"txn_recovery_interrupted,omitempty"`
	RecoveryAborted        int `json:"recovery_aborted,omitempty"`

	// Fleet reaction (fleet kind): the evidence that a plan's fault
	// actually forced a promotion or repair rather than passing unnoticed.
	Promotions int    `json:"promotions,omitempty"`
	Reconfigs  int    `json:"reconfigs,omitempty"`
	Repairs    int    `json:"repairs,omitempty"`
	Redirects  uint64 `json:"redirects,omitempty"`
	Retries    uint64 `json:"retries,omitempty"`

	Errors    int    `json:"errors,omitempty"`
	LastError string `json:"last_error,omitempty"`

	// ElapsedNs is wall-clock time spent on this cell's plans, summed
	// in fold order; zero when the runner has no clock. Excluded from
	// the JSON artifact: timing may differ across worker counts, the
	// report may not.
	ElapsedNs int64 `json:"-"`
}

// Totals sums the gate columns across cells.
type Totals struct {
	Runs        int `json:"runs"`
	Checked     int `json:"checked"`
	Corrupted   int `json:"corrupted"`
	Corruptions int `json:"corruptions"`
	Lost        int `json:"lost"`
	Torn        int `json:"torn"`
	Stale       int `json:"stale"`
	Errors      int `json:"errors"`

	TxnRecoveryInterrupted int `json:"txn_recovery_interrupted,omitempty"`
	RecoveryAborted        int `json:"recovery_aborted,omitempty"`
}

// Result is one scenario's complete report.
type Result struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed"`
	Runs     int    `json:"runs"`
	Cells    []Cell `json:"cells"`
	Totals   Totals `json:"totals"`

	// ElapsedNs is the scenario's total wall time (json-excluded, see
	// Cell.ElapsedNs).
	ElapsedNs int64 `json:"-"`
}

// finish computes Totals from the folded cells.
func (r *Result) finish() {
	t := Totals{}
	for i := range r.Cells {
		c := &r.Cells[i]
		t.Runs += c.Runs
		t.Checked += c.Checked
		t.Corrupted += c.Corrupted
		t.Corruptions += c.Corruptions
		t.Lost += c.Lost
		t.Torn += c.Torn
		t.Stale += c.Stale
		t.Errors += c.Errors
		t.TxnRecoveryInterrupted += c.TxnRecoveryInterrupted
		t.RecoveryAborted += c.RecoveryAborted
	}
	r.Totals = t
}

// Gate returns a non-nil error when the scenario breached a zero gate:
// silent acked loss, torn commits, stale reads, aborted recoveries (every
// crash run must end restored-or-quarantined), or harness errors.
// Detected corruption is NOT gated — measuring it is the experiment.
func (r *Result) Gate() error {
	var bad []string
	if r.Totals.Lost > 0 {
		bad = append(bad, fmt.Sprintf("%d acked writes silently lost", r.Totals.Lost))
	}
	if r.Totals.Torn > 0 {
		bad = append(bad, fmt.Sprintf("%d torn commits", r.Totals.Torn))
	}
	if r.Totals.Stale > 0 {
		bad = append(bad, fmt.Sprintf("%d stale reads", r.Totals.Stale))
	}
	if r.Totals.RecoveryAborted > 0 {
		bad = append(bad, fmt.Sprintf("%d aborted recoveries", r.Totals.RecoveryAborted))
	}
	if r.Totals.Errors > 0 {
		bad = append(bad, fmt.Sprintf("%d harness errors", r.Totals.Errors))
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("scenario %s: %s", r.Name, strings.Join(bad, ", "))
}

// JSON renders the canonical report: the artifact CI diffs across
// worker counts.
func (r *Result) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Table renders the aligned corruption table (no timing — see
// LatencyTable).
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (kind=%s", r.Name, r.Kind)
	if r.Workload != "" {
		fmt.Fprintf(&b, ", workload=%s", r.Workload)
	}
	fmt.Fprintf(&b, ", seed=%d, runs=%d)\n", r.Seed, r.Runs)
	fmt.Fprintf(&b, "%-34s %5s %6s %5s %8s %6s %5s %5s %6s %7s\n",
		"cell", "runs", "crash", "disc", "checked", "corru", "lost", "torn", "stale", "errors")
	row := func(label string, c *Cell) {
		fmt.Fprintf(&b, "%-34s %5d %6d %5d %8d %6d %5d %5d %6d %7d\n",
			label, c.Runs, c.Crashed, c.Discarded, c.Checked, c.Corruptions,
			c.Lost, c.Torn, c.Stale, c.Errors)
	}
	for i := range r.Cells {
		row(r.Cells[i].Label, &r.Cells[i])
	}
	tot := Cell{Runs: r.Totals.Runs, Checked: r.Totals.Checked,
		Corruptions: r.Totals.Corruptions, Lost: r.Totals.Lost,
		Torn: r.Totals.Torn, Stale: r.Totals.Stale, Errors: r.Totals.Errors}
	for i := range r.Cells {
		tot.Crashed += r.Cells[i].Crashed
		tot.Discarded += r.Cells[i].Discarded
	}
	row("total", &tot)
	return b.String()
}

// LatencyTable renders per-cell wall-clock timing. Empty when the
// runner had no clock (determinism-diff mode). Printed separately from
// the canonical report so timing never leaks into diffed bytes.
func (r *Result) LatencyTable() string {
	if r.ElapsedNs == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s timing\n", r.Name)
	fmt.Fprintf(&b, "%-34s %5s %12s %14s\n", "cell", "runs", "total", "per-run")
	for i := range r.Cells {
		c := &r.Cells[i]
		per := int64(0)
		if c.Runs > 0 {
			per = c.ElapsedNs / int64(c.Runs)
		}
		fmt.Fprintf(&b, "%-34s %5d %10.3fms %12.3fms\n",
			c.Label, c.Runs, float64(c.ElapsedNs)/1e6, float64(per)/1e6)
	}
	fmt.Fprintf(&b, "%-34s %5d %10.3fms\n", "total", r.Totals.Runs, float64(r.ElapsedNs)/1e6)
	return b.String()
}
