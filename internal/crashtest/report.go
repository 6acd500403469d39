package crashtest

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"rio/internal/fault"
	"rio/internal/kernel"
)

// Tally is the crash-run counters of one campaign cell, the one
// declaration of them: Table 1's cells and Summary and the scenario
// reports' cells and totals carry one, and only Add sums tallies. Its
// counts are deterministic for a given campaign seed and config.
type Tally struct {
	Crashes   int `json:"crashes"`   // runs that crashed (counted toward RunsPerCell)
	Discarded int `json:"discarded"` // runs that survived MaxOps (discarded, as in paper)
	Corrupted int `json:"corrupted"` // crashing runs with corrupted durable data
	// Checksum counts crashing runs where warm reboot's registry checksum
	// sweep flagged direct corruption of a file-cache buffer (Rio systems
	// only). It counts detections, not outcomes — the two detectors
	// overlap but differ, as in the paper: a flagged run need not end in
	// Corrupted (recovery can still restore good data), and a corrupted
	// run need not be flagged (indirect corruption bypasses checksums).
	Checksum   int `json:"checksum_flagged"`
	Protection int `json:"protection_trapped"` // crashes where Rio protection trapped the store
	// Double-fault recovery columns (populated when Run.DiskFaults is
	// on; all zero otherwise, and then omitted from the JSON).
	// Interrupted and TxnInterrupted count second crashes injected into
	// the warm reboot and the workload's own roll-forward.
	Interrupted    int `json:"recovery_interrupted,omitempty"`     // recoveries a second crash interrupted (then restarted)
	TxnInterrupted int `json:"txn_recovery_interrupted,omitempty"` // roll-forwards a second crash interrupted
	Aborted        int `json:"recovery_aborted,omitempty"`         // recoveries that returned an error (must stay zero)
	Quarantined    int `json:"quarantined_pages,omitempty"`        // dirty pages recovery could not restore, summed over runs
	Salvaged       int `json:"salvaged_pages,omitempty"`           // orphaned pages preserved under /lost+found
	VolumeLost     int `json:"volume_lost,omitempty"`              // runs whose volume fsck could not certify
	// The workload's verdicts, summed over crashing runs: files checked,
	// corruption entries, and the two zero gates — silent acked-state
	// loss and half-applied multi-step ops — plus the convictions the
	// recovery-clean rule downgraded to detected corruption.
	Checked     int `json:"checked"`
	Corruptions int `json:"corruptions"`
	Lost        int `json:"lost"`
	Torn        int `json:"torn"`
	TornMasked  int `json:"torn_masked,omitempty"`
	LostMasked  int `json:"lost_masked,omitempty"`

	Errors    int    `json:"errors"` // harness errors (should be zero)
	LastError string `json:"last_error,omitempty"`
	// Attempts is how many runs were merged into this cell
	// (Crashes + Discarded + Errors).
	Attempts int `json:"attempts"`
}

// Count books one run and reports whether it crashed: a failed run is
// an error only, so Attempts == Crashes + Discarded + Errors holds.
func (t *Tally) Count(err error, crashed bool) bool {
	t.Attempts++
	switch {
	case err != nil:
		t.Errors++
		t.LastError = err.Error()
	case !crashed:
		t.Discarded++
	default:
		t.Crashes++
		return true
	}
	return false
}

// Add sums o into t: every counter, and LastError when o has one.
// Callers add in a fixed order (Table 1's, or a report's cell order), so
// the last error is the same at any worker count.
func (t *Tally) Add(o Tally) {
	dst, src := t.counters(), o.counters()
	for i := range dst {
		*dst[i] += *src[i]
	}
	if o.LastError != "" {
		t.LastError = o.LastError
	}
}

// counters lists every int field of the tally, for Add.
func (t *Tally) counters() []*int {
	return []*int{&t.Crashes, &t.Discarded, &t.Corrupted, &t.Checksum, &t.Protection,
		&t.Interrupted, &t.TxnInterrupted, &t.Aborted, &t.Quarantined, &t.Salvaged, &t.VolumeLost,
		&t.Checked, &t.Corruptions, &t.Lost, &t.Torn, &t.TornMasked, &t.LostMasked,
		&t.Errors, &t.Attempts}
}

// Cell aggregates one (system, fault) cell of Table 1. Its JSON form is
// the report's: self-describing (names, not enum ordinals) so downstream
// tooling survives reordering. Elapsed is host wall time and is excluded
// from the determinism guarantee.
type Cell struct {
	System System     `json:"system"`
	Fault  fault.Type `json:"fault"`
	Tally
	// Elapsed sums the execution time of the merged runs. Under parallel
	// execution this is the cell's CPU cost, not campaign wall time.
	Elapsed Millis                   `json:"elapsed_ms"`
	ByKind  map[kernel.CrashKind]int `json:"by_kind,omitempty"`
}

// Millis is a duration whose JSON form is fractional milliseconds.
type Millis time.Duration

func (d Millis) MarshalJSON() ([]byte, error) {
	return json.Marshal(float64(d) / float64(time.Millisecond))
}

// fold merges one run outcome into the cell. Outcomes must be folded in
// attempt order: the campaign's determinism guarantee rests on every
// worker count folding the same attempt prefix.
func (cell *Cell) fold(o Outcome[WorkloadResult]) {
	cell.Elapsed += Millis(o.Elapsed)
	if !cell.Count(o.Err, o.Res.Crashed) {
		return
	}
	res := &o.Res
	cell.ByKind[res.CrashKind]++
	count := func(n *int, b bool) {
		if b {
			*n++
		}
	}
	count(&cell.Corrupted, res.Corrupted)
	count(&cell.Checksum, res.ChecksumDetected)
	count(&cell.Protection, res.ProtectionInvoked)
	count(&cell.Interrupted, res.RecoveryInterrupted)
	count(&cell.TxnInterrupted, res.TxnRecoveryInterrupted)
	count(&cell.Aborted, res.RecoveryAborted)
	count(&cell.VolumeLost, res.VolumeLost)
	cell.Quarantined += res.Quarantined
	cell.Salvaged += res.Salvaged
	cell.Checked += res.Verdict.Checked
	cell.Corruptions += len(res.Verdict.Corruptions)
	cell.Lost += res.Verdict.Lost
	cell.Torn += res.Verdict.Torn
	cell.TornMasked += res.TornMasked
	cell.LostMasked += res.LostMasked
}

// Summary is campaign-level observability: the cells' tallies summed,
// with Runs the runs merged into cells (the tally's Attempts). Counting
// fields are deterministic for a given seed and config at any worker
// count; timing fields (WallTime, RunsPerSec) and SpeculativeRuns depend
// on the host and scheduling and are excluded from the determinism
// guarantee.
type Summary struct {
	Seed        uint64 `json:"seed"`
	RunsPerCell int    `json:"runs_per_cell"`
	Workers     int    `json:"workers"`
	Cells       int    `json:"cells"`
	Runs        int    `json:"runs"`
	Tally
	// DiscardRate / ErrorRate are fractions of merged runs.
	DiscardRate float64       `json:"discard_rate"`
	ErrorRate   float64       `json:"error_rate"`
	WallTime    time.Duration `json:"wall_time_ns"`
	RunsPerSec  float64       `json:"runs_per_sec"`
	// SpeculativeRuns is parallel overshoot: runs that executed but were
	// discarded unmerged because their cell filled first. Zero when
	// Workers is 1.
	SpeculativeRuns int `json:"speculative_runs"`
}

// Report is a full campaign result.
type Report struct {
	Config  CampaignConfig
	Cells   map[System]map[fault.Type]*Cell
	Summary Summary
}

// Sum is a system's column of the table: its cells' tallies added in
// fault order.
func (r *Report) Sum(sys System) Tally {
	var t Tally
	for _, ft := range fault.AllTypes {
		if c := r.Cells[sys][ft]; c != nil {
			t.Add(c.Tally)
		}
	}
	return t
}

// tableColWidth fits the widest entry, the totals-row "NN of NNN (NN.N%)".
const tableColWidth = 18

// Table renders the report in the layout of the paper's Table 1, one
// row per fault type the campaign ran. The rendering is byte-identical
// for a given seed and config at any worker count.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %*s %*s %*s\n", "Fault Type",
		tableColWidth, "Disk-Based", tableColWidth, "Rio w/o Prot",
		tableColWidth, "Rio w/ Prot")
	for _, ft := range r.Config.Faults {
		fmt.Fprintf(&b, "%-22s", ft)
		for _, sys := range Systems {
			c := r.Cells[sys][ft]
			if c == nil || c.Corrupted == 0 {
				fmt.Fprintf(&b, " %*s", tableColWidth, "")
			} else {
				fmt.Fprintf(&b, " %*d", tableColWidth, c.Corrupted)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-22s", "Total")
	for _, sys := range Systems {
		t := r.Sum(sys)
		pct := 0.0
		if t.Crashes > 0 {
			pct = 100 * float64(t.Corrupted) / float64(t.Crashes)
		}
		fmt.Fprintf(&b, " %*s", tableColWidth,
			fmt.Sprintf("%d of %d (%.1f%%)", t.Corrupted, t.Crashes, pct))
	}
	b.WriteByte('\n')
	return b.String()
}

// RecoveryTable renders the double-fault campaign's recovery columns:
// per system, how many recoveries a second crash interrupted, how many
// aborted (must be zero — every run ends restored-or-quarantined), how
// many pages were quarantined or salvaged, and how many volumes were
// lost outright. Like Table, the rendering is byte-identical for a
// given seed and config at any worker count.
func (r *Report) RecoveryTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s %12s\n", "System",
		"interrupted", "aborted", "quarantined", "salvaged", "volume-lost")
	for _, sys := range Systems {
		t := r.Sum(sys)
		fmt.Fprintf(&b, "%-12s %12d %12d %12d %12d %12d\n", sys,
			t.Interrupted, t.Aborted, t.Quarantined, t.Salvaged, t.VolumeLost)
	}
	return b.String()
}

// CrashKindBreakdown summarises how systems died (the paper cites 74
// unique error messages; we report by manifestation class).
func (r *Report) CrashKindBreakdown(sys System) string {
	agg := make(map[kernel.CrashKind]int)
	for _, c := range r.Cells[sys] {
		for k, n := range c.ByKind {
			agg[k] += n
		}
	}
	kinds := make([]kernel.CrashKind, 0, len(agg))
	for k := range agg {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if agg[kinds[i]] != agg[kinds[j]] {
			return agg[kinds[i]] > agg[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-35s %d\n", k, agg[k])
	}
	return b.String()
}

// JSON renders the full report as indented JSON: the campaign summary,
// every cell in Table 1 (Systems × fault.AllTypes) order, and the
// rendered table.
func (r *Report) JSON() ([]byte, error) {
	out := struct {
		Summary Summary `json:"summary"`
		Cells   []*Cell `json:"cells"`
		Table   string  `json:"table"`
	}{Summary: r.Summary, Table: r.Table()}
	for _, sys := range Systems {
		for _, ft := range fault.AllTypes {
			if c := r.Cells[sys][ft]; c != nil {
				out.Cells = append(out.Cells, c)
			}
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// MTTFYears converts a corruption rate into the paper's §3.3 illustration:
// with one crash every two months, MTTF (years) = 2 months / p(corruption)
// expressed in years.
func MTTFYears(corrupted, crashes int) float64 {
	if corrupted == 0 {
		return -1 // effectively unbounded at this sample size
	}
	p := float64(corrupted) / float64(crashes)
	crashesPerYear := 6.0 // one every two months
	return 1 / (p * crashesPerYear)
}
