package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles applies BENCHMARK.json's bounds to two result files, base
// and change, per (workload, metric). Each file may hold several runs of
// a workload (-repeat); a side is then judged by its median and its
// interquartile range.
//
//	ok          the change's median is within the bound of the base's
//	worse       it is not
//	unresolved  it is, but either side's own spread exceeds the bound,
//	            so "no change" is not shown
//
// Exact metrics (simulator counters from the serial replay) must match
// bit for bit when both files used one seed. It reports whether any row
// is worse.
func compareFiles(w io.Writer, basePath, changePath string) (worse bool, err error) {
	base, err := readResult(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResult(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-30s %14s %14s %8s %7s  %s\n",
		"workload", "metric", "base", "change", "delta", "bound", "verdict")
	row := func(wl, name string, a, b float64, delta, bound, verdict string) {
		fmt.Fprintf(w, "%-16s %-30s %14.4f %14.4f %8s %7s  %s\n", wl, name, a, b, delta, bound, verdict)
	}
	for _, wl := range workloads {
		a, b := base.of(wl.Name), change.of(wl.Name)
		if len(a.runs) == 0 || len(b.runs) == 0 {
			continue
		}
		for _, m := range endToEnd {
			av, bv := a.values(m.Name, false), b.values(m.Name, false)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			if am == 0 {
				row(wl.Name, m.Name, am, bm, "-", pct(m.Bound), "unresolved (base is 0)")
				continue
			}
			rel := (bm - am) / am // positive = larger
			if m.Better == "higher" {
				rel = -rel
			}
			verdict := "ok"
			switch {
			case rel > m.Bound:
				verdict, worse = "worse", true
			case iqr(av)/am > m.Bound || iqr(bv)/am > m.Bound:
				verdict = "unresolved"
			}
			row(wl.Name, m.Name, am, bm, pct((bm-am)/am), pct(m.Bound), verdict)
		}
		// Correctness is not a latency: any loss or new failure is worse.
		for _, c := range []struct {
			name string
			get  func(*runRecord) float64
		}{
			{"acked_lost", func(r *runRecord) float64 { return float64(r.AckedLost) }},
			{"fail_frac", func(r *runRecord) float64 { return r.FailFrac }},
		} {
			am, bm := a.max(c.get), b.max(c.get)
			verdict := "ok"
			if bm > am || (c.name == "acked_lost" && bm > 0) {
				verdict, worse = "worse", true
			}
			row(wl.Name, c.name, am, bm, "-", "0", verdict)
		}
		if a.seed != b.seed {
			continue
		}
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			av, bv := a.values(m.Name, true), b.values(m.Name, true)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict := "ok"
			for _, x := range append(av[1:], bv...) {
				if x != av[0] {
					verdict, worse = "worse (exact metric differs)", true
				}
			}
			row(wl.Name, m.Name, av[0], bv[0], "-", "exact", verdict)
		}
	}
	return worse, nil
}

func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

type resultIndex map[string]*workloadRuns

type workloadRuns struct {
	seed uint64
	runs []*runRecord
}

func readResult(path string) (resultIndex, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	idx := resultIndex{}
	for i := range f.Runs {
		r := &f.Runs[i]
		w := idx[r.Workload]
		if w == nil {
			w = &workloadRuns{seed: r.Seed}
			idx[r.Workload] = w
		}
		w.runs = append(w.runs, r)
	}
	return idx, nil
}

func (x resultIndex) of(workload string) *workloadRuns {
	if w := x[workload]; w != nil {
		return w
	}
	return &workloadRuns{}
}

// values lists a metric's value in every run that reported it.
func (w *workloadRuns) values(name string, layer bool) []float64 {
	var out []float64
	for _, r := range w.runs {
		if layer != (r.Trace != 0) {
			continue // a traced run's end-to-end numbers are from its short run
		}
		set := r.EndToEnd
		if layer {
			set = r.PerLayer
		}
		if v, ok := set[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func (w *workloadRuns) max(get func(*runRecord) float64) float64 {
	m := 0.0
	for _, r := range w.runs {
		if v := get(r); v > m {
			m = v
		}
	}
	return m
}

// iqr is the distance between the first and third quartile, 0 for fewer
// than four values (no spread can be claimed from so few).
func iqr(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	c := append([]float64(nil), vs...)
	return quantileOf(c, 0.75) - quantileOf(c, 0.25)
}
