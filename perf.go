package rio

import (
	"time"

	"rio/internal/perf"
)

// PerfOptions configures a Table 2 reproduction.
type PerfOptions struct {
	// Seed reproduces a run exactly. Default 1.
	Seed uint64
	// Scale multiplies the workload sizes (1.0 = defaults: 4 MB cp+rm
	// tree, 5x220-op Sdet, 600 KB Andrew tree).
	Scale float64
	// Progress, if non-nil, receives one line per completed row.
	Progress func(string)
}

// PerfRow is one measured Table 2 row.
type PerfRow struct {
	Label         string
	DataPermanent string
	CpRm          time.Duration // copy + remove
	CpRmCopy      time.Duration
	CpRmRemove    time.Duration
	Sdet          time.Duration
	Andrew        time.Duration
}

// PerfResult is a completed Table 2 reproduction.
type PerfResult struct {
	Rows []PerfRow
	rows []perf.Row
}

// Table renders the result in the paper's Table 2 layout.
func (r *PerfResult) Table() string { return perf.Format(r.rows) }

// Speedups summarises the paper's headline comparisons: how many times
// faster Rio (with protection) runs than each baseline, per workload
// (cp+rm, Sdet, Andrew). The paper's bands: write-through 4-22x, UFS
// 2-14x, delayed 1-3x, MFS ~1x.
type Speedups = perf.Ratios

// Speedups computes the headline ratios.
func (r *PerfResult) Speedups() Speedups { return perf.ComputeRatios(r.rows) }

func perfConfig(opts PerfOptions) perf.Config {
	cfg := perf.DefaultConfig()
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Scale > 0 && opts.Scale != 1 {
		cfg.CpRm.TreeBytes = int(float64(cfg.CpRm.TreeBytes) * opts.Scale)
		cfg.Sdet.OpsPerScript = int(float64(cfg.Sdet.OpsPerScript) * opts.Scale)
		cfg.Andrew.TreeBytes = int(float64(cfg.Andrew.TreeBytes) * opts.Scale)
	}
	cfg.Progress = opts.Progress
	return cfg
}

// RunPerfTable reproduces Table 2: the three workloads under all eight
// file-system configurations.
func RunPerfTable(opts PerfOptions) (*PerfResult, error) {
	cfg := perfConfig(opts)
	rows, err := cfg.RunTable2()
	if err != nil {
		return nil, err
	}
	out := &PerfResult{rows: rows}
	for _, r := range rows {
		out.Rows = append(out.Rows, PerfRow{
			Label:         r.Spec.Label,
			DataPermanent: r.Spec.Permanent,
			CpRm:          time.Duration(r.CpRm()),
			CpRmCopy:      time.Duration(r.CpRmCp),
			CpRmRemove:    time.Duration(r.CpRmRm),
			Sdet:          time.Duration(r.Sdet),
			Andrew:        time.Duration(r.Andrew),
		})
	}
	return out, nil
}

// ProtectionOverhead measures the cost of Rio's memory protection on the
// cp+rm workload (the paper: essentially zero — 25s vs 24s).
func ProtectionOverhead(opts PerfOptions) (without, with time.Duration, err error) {
	cfg := perfConfig(opts)
	a, b, err := cfg.ProtectionOverhead()
	return time.Duration(a), time.Duration(b), err
}

// CodePatchingOverhead measures the software-check protection fallback
// against the TLB scheme on a copy-intensive stream (the paper: 20-50%
// slower).
func CodePatchingOverhead(opts PerfOptions) (tlb, patched time.Duration, err error) {
	cfg := perfConfig(opts)
	a, b, err := cfg.CodePatchingOverhead()
	return time.Duration(a), time.Duration(b), err
}
