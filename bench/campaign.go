package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"rio"
	"rio/internal/sim"
)

// campaign-interp: the paper's Table 1 campaign, every run on the
// interpreted kernel. It is the most expensive thing a user of this repo
// runs, and it never touches server or wire. Its unit of work is one
// crash run (boot, inject, run to the crash, recover, verify).

// campaignCells is Table 1's shape: 13 fault types on 3 systems.
const campaignCells = 39

// runsPerCell sizes the campaign to the measuring time: about five
// seconds of two-worker wall time per run per cell on the reference box,
// so 20 s asks for 4.
func runsPerCell(measure time.Duration) int {
	if n := int(measure.Seconds() / 5); n > 1 {
		return n
	}
	return 1
}

// bootSet is the campaign's set-up cost: what each crash run pays before
// it can inject anything, a freshly formatted and booted machine of each
// of the three Table 1 systems, kernel interpreted.
func bootSet(seed uint64) error {
	for _, pol := range []rio.Policy{rio.PolicyUFSWTWrite, rio.PolicyRioNoProtect, rio.PolicyRio} {
		if _, err := rio.New(rio.Config{Policy: pol, Seed: seed, Interpreted: true}); err != nil {
			return err
		}
	}
	return nil
}

func runCampaign(seed uint64, measure time.Duration, setups int) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, extra: map[string]float64{},
		samples: map[string]uint64{}, counters: map[string]float64{}}
	var setupS []float64
	// A boot is tens of milliseconds: time three of them per set-up.
	for i := 0; i < 3*setups; i++ {
		start := time.Now()
		if err := bootSet(seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	out.e2e["setup_s"] = median(setupS)

	runtime.GC()
	resetPeakRSS()
	rpc := runsPerCell(measure)
	u0 := snapUsage()
	res, err := rio.RunCrashCampaign(rio.CampaignOptions{RunsPerCell: rpc, Seed: seed, Workers: conns()})
	u1 := snapUsage()
	if err != nil {
		return nil, err
	}
	sum := res.Summary()
	// A run fails when the harness errs, or when a run goes missing from
	// the books. A cell that stays short of rpc crashes is not a failure:
	// some fault types rarely crash the kernel, and the campaign gives up
	// on a cell after six attempts per wanted crash, as the paper
	// discarded runs that did not crash. Which cells fill depends on the
	// seed alone.
	out.attempted, out.failed = uint64(sum.Runs), uint64(sum.Errors)
	if sum.Runs != sum.Crashes+sum.Discarded+sum.Errors || sum.Crashes == 0 {
		out.failed++
	}
	out.extra["campaign_crashes"] = float64(sum.Crashes)
	out.extra["campaign_crashes_wanted"] = float64(campaignCells * rpc)
	h := fnv.New64a()
	h.Write([]byte(res.Table()))
	out.hash = h.Sum64()

	// Time per crash run. The campaign reports each cell's summed run time
	// and attempt count, not single runs, and which cell a run falls in
	// decides how long it takes (a fault that rarely crashes the kernel
	// runs to the op limit). A quantile over 39 cells moves by a sixth
	// from seed to seed; means do not. So the "median" here is the mean
	// time of a run, and the tail is the mean over the slowest quarter of
	// the cells.
	raw, err := res.JSON()
	if err != nil {
		return nil, err
	}
	var rep struct {
		Cells []struct {
			Attempts  int     `json:"attempts"`
			ElapsedMS float64 `json:"elapsed_ms"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("bench: campaign report: %w", err)
	}
	var perRunUS []float64
	var totalUS float64
	for _, c := range rep.Cells {
		if c.Attempts > 0 {
			perRunUS = append(perRunUS, c.ElapsedMS*1e3/float64(c.Attempts))
			totalUS += c.ElapsedMS * 1e3
		}
	}
	sort.Float64s(perRunUS)
	out.samples["latency"] = uint64(sum.Runs)
	if sum.Runs > 0 && len(perRunUS) >= 4 {
		out.e2e["lat_p50_us"] = totalUS / float64(sum.Runs)
		out.extra["lat_tail_us"] = mean(perRunUS[len(perRunUS)-len(perRunUS)/4:])
	}

	runs, wall := float64(sum.Runs), u1.at.Sub(u0.at).Seconds()
	if runs > 0 && wall > 0 {
		out.extra["ops_per_s"] = runs / wall
		out.extra["cpu_us_per_op"] = float64(u1.cpu-u0.cpu) / 1e3 / runs
		out.e2e["allocs_per_op"] = float64(u1.mallocs-u0.mallocs) / runs
		out.e2e["alloc_bytes_per_op"] = float64(u1.bytes-u0.bytes) / runs
	}
	out.e2e["rss_mb"] = peakRSSMB()
	out.extra["crash_runs_per_s"] = out.extra["ops_per_s"]
	out.extra["runs_per_cell"] = float64(rpc)
	out.counters["crashtest.discard_ratio"] = sum.DiscardRate
	if sum.Runs > 0 {
		out.counters["crashtest.speculative_ratio"] = float64(sum.SpeculativeRuns) / float64(sum.Runs)
	}
	return out, nil
}

// crashOnceP50 times single crash runs through the public entry point,
// three fault types on each system (one when quick).
func crashOnceP50(seed uint64, quick bool) (float64, error) {
	faults := []rio.FaultType{rio.FaultKernelText, rio.FaultCopyOverrun, rio.FaultPointer}
	if quick {
		faults = faults[:1]
	}
	var ms []float64
	for sys := 0; sys < 3; sys++ {
		for i, ft := range faults {
			start := time.Now()
			if _, err := rio.CrashOnce(sys, ft, sim.Mix(seed, tagUnits, uint64(sys), uint64(i))); err != nil {
				return 0, err
			}
			ms = append(ms, float64(time.Since(start))/1e6)
		}
	}
	return median(ms), nil
}
