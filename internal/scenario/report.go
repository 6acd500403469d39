package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"rio/internal/crashtest"
	"rio/internal/perf"
)

// Cell is one aggregated row of a scenario report: a (system × fault)
// pair for crash scenarios, the one crash-under-load row for server
// scenarios, a fleet fault kind for fleet scenarios, a Table 2
// configuration or the code-patching ablation for perf scenarios. It
// carries only its kind's columns: a crashtest.Tally (for the crash kind,
// the campaign's own cell tally) unless perf, stale reads if fleet, the
// traffic, reaction or simulated-time columns its fold sets. Cells are
// folded in attempt order, so their bytes are independent of the worker
// count. Wall-clock timing deliberately lives in a json-excluded field:
// the JSON report is the determinism artifact, the latency table is not.
type Cell struct {
	Label string `json:"label"`
	*crashtest.Tally
	*StaleReads

	// Traffic columns (server/fleet kinds).
	Acked   int `json:"acked,omitempty"`
	Unacked int `json:"unacked,omitempty"`

	// Fleet reaction (fleet kind): the evidence that a plan's fault
	// actually forced a promotion or repair rather than passing unnoticed.
	Promotions int    `json:"promotions,omitempty"`
	Reconfigs  int    `json:"reconfigs,omitempty"`
	Repairs    int    `json:"repairs,omitempty"`
	Redirects  uint64 `json:"redirects,omitempty"`
	Retries    uint64 `json:"retries,omitempty"`

	// Simulated times in ns (perf kind): a Table 2 configuration's cp,
	// rm, Sdet and Andrew, or the code-patching probe under TLB
	// protection and under software checks.
	CpNs      int64 `json:"cp_ns,omitempty"`
	RmNs      int64 `json:"rm_ns,omitempty"`
	SdetNs    int64 `json:"sdet_ns,omitempty"`
	AndrewNs  int64 `json:"andrew_ns,omitempty"`
	TLBNs     int64 `json:"tlb_ns,omitempty"`
	PatchedNs int64 `json:"patched_ns,omitempty"`

	// ElapsedNs is wall-clock time spent on this cell's plans, summed
	// in fold order. Excluded from the JSON artifact: timing may differ
	// across worker counts, the report may not.
	ElapsedNs int64 `json:"-"`
}

// StaleReads is the fleet kind's own zero gate: reads a deposed primary
// served with bytes that contradict acked state.
type StaleReads struct {
	Stale int `json:"stale"`
}

// count is the stale reads, 0 for a kind without the column.
func (s *StaleReads) count() int {
	if s == nil {
		return 0
	}
	return s.Stale
}

// Totals is the cells' tallies summed in cell order, and the fleet
// kind's stale reads; Runs is the tally's Attempts.
type Totals struct {
	Runs int `json:"runs"`
	crashtest.Tally
	*StaleReads
}

// Result is one scenario's complete report.
type Result struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed"`
	Runs     int    `json:"runs"`
	Cells    []Cell `json:"cells"`
	// Totals is nil for the perf kind, which counts no crashes.
	Totals *Totals `json:"totals,omitempty"`

	// Campaign is the crash kind's campaign report, for renderers of
	// Table 1's own layout; nil for the other kinds.
	Campaign *crashtest.Report `json:"-"`
	// Perf is the perf kind's Table 2, which Table renders; nil for the
	// other kinds.
	Perf *perf.Table `json:"-"`

	// ElapsedNs is the scenario's total wall time (json-excluded, see
	// Cell.ElapsedNs).
	ElapsedNs int64 `json:"-"`
}

// finish computes Totals from the folded cells.
func (r *Result) finish() {
	t := &Totals{}
	for _, c := range r.Cells {
		t.Add(*c.Tally)
		if c.StaleReads != nil {
			t.StaleReads = &StaleReads{Stale: t.count() + c.Stale}
		}
	}
	t.Runs = t.Attempts
	r.Totals = t
}

// Gate returns a non-nil error when the scenario breached a zero gate:
// silent acked loss, torn commits, stale reads, aborted recoveries (every
// crash run must end restored-or-quarantined), or harness errors.
// Detected corruption is NOT gated — measuring it is the experiment.
func (r *Result) Gate() error {
	if r.Totals == nil {
		return nil
	}
	var bad []string
	if r.Totals.Lost > 0 {
		bad = append(bad, fmt.Sprintf("%d acked writes silently lost", r.Totals.Lost))
	}
	if r.Totals.Torn > 0 {
		bad = append(bad, fmt.Sprintf("%d torn commits", r.Totals.Torn))
	}
	if n := r.Totals.count(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d stale reads", n))
	}
	if r.Totals.Aborted > 0 {
		bad = append(bad, fmt.Sprintf("%d aborted recoveries", r.Totals.Aborted))
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
// LatencyTable); a perf scenario, which has no crash columns, in Table 2's
// own layout.
func (r *Result) Table() string {
	if r.Perf != nil {
		return r.Perf.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (kind=%s", r.Name, r.Kind)
	if r.Workload != "" {
		fmt.Fprintf(&b, ", workload=%s", r.Workload)
	}
	fmt.Fprintf(&b, ", seed=%d, runs=%d)\n", r.Seed, r.Runs)
	fmt.Fprintf(&b, "%-34s %5s %6s %5s %8s %6s %5s %5s %6s %7s\n",
		"cell", "runs", "crash", "disc", "checked", "corru", "lost", "torn", "stale", "errors")
	row := func(label string, t *crashtest.Tally, stale int) {
		fmt.Fprintf(&b, "%-34s %5d %6d %5d %8d %6d %5d %5d %6d %7d\n",
			label, t.Attempts, t.Crashes, t.Discarded, t.Checked, t.Corruptions,
			t.Lost, t.Torn, stale, t.Errors)
	}
	for _, c := range r.Cells {
		row(c.Label, c.Tally, c.count())
	}
	row("total", &r.Totals.Tally, r.Totals.count())
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
		if c.Attempts > 0 {
			per = c.ElapsedNs / int64(c.Attempts)
		}
		fmt.Fprintf(&b, "%-34s %5d %10.3fms %12.3fms\n",
			c.Label, c.Attempts, float64(c.ElapsedNs)/1e6, float64(per)/1e6)
	}
	fmt.Fprintf(&b, "%-34s %5d %10.3fms\n", "total", r.Totals.Runs, float64(r.ElapsedNs)/1e6)
	return b.String()
}
