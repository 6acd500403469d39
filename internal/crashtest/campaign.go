package crashtest

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rio/internal/fault"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/sim"
)

// CampaignConfig parameterises a crash campaign: Table 1, or any cut
// of it a crash scenario compiles to.
type CampaignConfig struct {
	// Seed drives the whole campaign; the same seed reproduces the same
	// table at any worker count.
	Seed uint64
	// RunsPerCell is the number of *crashing* runs per (system, fault)
	// cell. The paper used 50, discarding runs that did not crash.
	RunsPerCell int
	// Systems and Faults name the campaign's cells, one per (system,
	// fault) pair; empty means Table 1's: all three systems, all 13
	// fault types.
	Systems []System
	Faults  []fault.Type
	// WorkloadFactory builds each crash run's workload; nil is Table 1's
	// memTest, sized by Run.MemTestBytes.
	WorkloadFactory WorkloadFactory
	// Workers is the number of goroutines executing crash runs; 0 uses
	// runtime.GOMAXPROCS(0). The report's counts do not depend on it.
	Workers int
	// Run is the per-run configuration template (its Seed is overridden).
	Run RunConfig
	// Progress, if non-nil, receives a line per completed cell plus
	// throttled campaign-level updates. Invocations are serialised, but
	// cell completion order varies with scheduling.
	Progress func(string)

	// runner stands in for RunOne in scheduler tests.
	runner func(*machine.Storage, System, fault.Type, RunConfig) (WorkloadResult, error)
	// clock stands in for the host clock in timing tests.
	clock wallClock
}

// wallClock abstracts the host's real-time clock. Campaign telemetry
// (Cell.Elapsed, Summary.WallTime/RunsPerSec, progress throttling) is
// the one part of a campaign that deliberately reflects the host rather
// than the simulation, so it reads time through this seam: tests inject
// a fake, and the riolint walltime analyzer sees exactly one sanctioned
// host-clock site in the tree — hostClock.Now below.
type wallClock interface {
	Now() time.Time
}

// hostClock is the production wallClock.
type hostClock struct{}

func (hostClock) Now() time.Time {
	//riolint:walltime campaign telemetry reports host wall-clock rates; sim outcomes never read this
	return time.Now()
}

// maxAttemptsFactor bounds a cell's attempts at RunsPerCell × factor:
// some fault types crash rarely, and a cell that cannot fill is
// abandoned rather than run forever.
const maxAttemptsFactor = 6

// DefaultCampaignConfig mirrors the paper's protocol at 50 runs/cell.
func DefaultCampaignConfig(seed uint64) CampaignConfig {
	return CampaignConfig{
		Seed:        seed,
		RunsPerCell: 50,
		Run:         DefaultRunConfig(0),
	}
}

// RunSeed derives the PRNG seed for one crash run purely from the
// campaign seed and the run's coordinates: system, fault type, and
// attempt index within its cell. No shared counter is involved, so a
// cell's seeds are independent of how many attempts every other cell
// consumed — changing RunsPerCell or the cell list leaves all remaining
// cells' runs bit-identical, and cells can execute concurrently in any
// order. (An earlier version advanced one seed
// counter across the whole campaign, which silently resampled every
// later cell whenever an earlier cell's attempt count changed.)
func RunSeed(campaignSeed uint64, sys System, ft fault.Type, attempt int) uint64 {
	return sim.Mix(campaignSeed, uint64(sys), uint64(ft), uint64(attempt))
}

// progressInterval throttles campaign-level progress lines.
const progressInterval = 2 * time.Second

// campaign is the shared telemetry of one RunCampaign invocation.
type campaign struct {
	cfg   CampaignConfig
	clock wallClock
	epoch time.Time

	merged    atomic.Int64 // runs folded into cells
	crashes   atomic.Int64
	cellsDone atomic.Int64

	progressMu   sync.Mutex
	lastProgress atomic.Int64 // unix nanos of the last throttled line
}

// noteMerged counts a folded run and emits a throttled campaign-level
// progress line. The CAS on the timestamp keeps concurrent cell drivers
// from double-emitting inside one interval.
func (c *campaign) noteMerged(o Outcome[WorkloadResult]) {
	n := c.merged.Add(1)
	if o.Err == nil && o.Res.Crashed {
		c.crashes.Add(1)
	}
	if c.cfg.Progress == nil {
		return
	}
	now := c.clock.Now().UnixNano()
	last := c.lastProgress.Load()
	if now-last < int64(progressInterval) || !c.lastProgress.CompareAndSwap(last, now) {
		return
	}
	rate := 0.0
	if s := c.clock.Now().Sub(c.epoch).Seconds(); s > 0 {
		rate = float64(n) / s
	}
	c.emit(fmt.Sprintf("campaign: %d/%d cells, %d runs (%d crashes), %.1f runs/s",
		c.cellsDone.Load(), len(c.cfg.Systems)*len(c.cfg.Faults), n, c.crashes.Load(), rate))
}

// emit serialises Progress callbacks across cell drivers.
func (c *campaign) emit(line string) {
	c.progressMu.Lock()
	defer c.progressMu.Unlock()
	c.cfg.Progress(line)
}

// RunCampaign executes the crash matrix on the Scheduler; it is the one
// crash-campaign driver. Each (system, fault) cell — 39 for Table 1 — is
// a quota cell: full at RunsPerCell crashes, abandoned at RunsPerCell ×
// maxAttemptsFactor attempts. Cells are driven independently — every
// run's seed comes from RunSeed, and outcomes fold in attempt order — so
// the same seed and config yield identical cell counts, totals, and
// rendered Table at any Workers value. Timing fields (Cell.Elapsed,
// Summary.WallTime/RunsPerSec/SpeculativeRuns) reflect the host and are
// outside that guarantee.
func RunCampaign(cfg CampaignConfig) (*Report, error) {
	cfg.defaults()
	clock := cfg.clock
	if clock == nil {
		clock = hostClock{}
	}
	c := &campaign{cfg: cfg, clock: clock, epoch: clock.Now()}
	sched := NewScheduler[WorkloadResult](cfg.Workers, clock.Now)

	// Per-cell speculation window: all cells issue concurrently, so the
	// pool stays busy even with a small window, but near the end of a
	// campaign only a few slow cells remain — scale with the pool, capped
	// so a cell cannot overshoot by more than one round of RunsPerCell.
	window := sched.Workers
	if cfg.RunsPerCell > 0 && window > cfg.RunsPerCell {
		window = cfg.RunsPerCell
	}

	rep := &Report{
		Config: cfg,
		Cells:  make(map[System]map[fault.Type]*Cell, len(cfg.Systems)),
	}
	var cellWG sync.WaitGroup
	for _, sys := range cfg.Systems {
		rep.Cells[sys] = make(map[fault.Type]*Cell, len(cfg.Faults))
		for _, ft := range cfg.Faults {
			sys, ft := sys, ft
			cell := &Cell{System: sys, Fault: ft, ByKind: make(map[kernel.CrashKind]int)}
			rep.Cells[sys][ft] = cell
			cellWG.Add(1)
			go func() {
				defer cellWG.Done()
				sched.RunCell(CellPlan[WorkloadResult]{
					Label:    fmt.Sprintf("sys=%v fault=%v", sys, ft),
					Attempts: cfg.RunsPerCell * maxAttemptsFactor,
					Window:   window,
					Run: func(attempt int, st *machine.Storage) (WorkloadResult, error) {
						return cfg.run(st, sys, ft, attempt, nil)
					},
					Fold: func(o Outcome[WorkloadResult]) bool {
						cell.fold(o)
						c.noteMerged(o)
						return cell.Crashes >= cfg.RunsPerCell
					},
					Need: func() int { return cfg.RunsPerCell - cell.Crashes },
				})
				c.cellsDone.Add(1)
				if cfg.Progress != nil {
					c.emit(fmt.Sprintf("%-12s %-20s crashes=%d corrupted=%d discarded=%d errors=%d attempts=%d cpu=%v",
						sys, ft, cell.Crashes, cell.Corrupted, cell.Discarded,
						cell.Errors, cell.Attempts, time.Duration(cell.Elapsed).Round(time.Millisecond)))
				}
			}()
		}
	}
	cellWG.Wait()
	speculative, err := sched.Close()

	rep.Summary = c.summarize(rep, sched.Workers, speculative)
	return rep, err
}

// defaults fills what cfg leaves empty with Table 1's: all three
// systems, all thirteen fault types, memTest.
func (cfg *CampaignConfig) defaults() {
	if len(cfg.Systems) == 0 {
		cfg.Systems = Systems
	}
	if len(cfg.Faults) == 0 {
		cfg.Faults = fault.AllTypes
	}
	if cfg.WorkloadFactory == nil {
		cfg.WorkloadFactory = memTest(cfg.Run.MemTestBytes)
	}
}

// run is attempt `attempt` of cell (sys, ft), as RunCampaign issues it and
// Replay re-runs it; a non-nil pm traces it and receives its post-mortem.
func (cfg *CampaignConfig) run(st *machine.Storage, sys System, ft fault.Type, attempt int, pm **machine.Postmortem) (WorkloadResult, error) {
	run := cfg.Run
	run.Seed = RunSeed(cfg.Seed, sys, ft, attempt)
	if cfg.runner != nil {
		return cfg.runner(st, sys, ft, run)
	}
	return runWorkload(st, sys, ft, run, cfg.WorkloadFactory, pm)
}

// Replay re-runs attempt `attempt` of the campaign's cell labelled cell
// ("<system>/<fault>"), traced, on fresh storage: the outcome is the one
// RunCampaign folds for it, pm the post-mortem taken at the crash before
// recovery (nil without a crash). An error is a cell the campaign lacks
// or an attempt outside a cell's budget, not the run's own Err.
func Replay(cfg CampaignConfig, cell string, attempt int) (o Outcome[WorkloadResult], pm *machine.Postmortem, err error) {
	cfg.defaults()
	if n := cfg.RunsPerCell * maxAttemptsFactor; attempt < 0 || attempt >= n {
		return o, nil, fmt.Errorf("crashtest: attempt %d is outside a cell's attempts 0..%d", attempt, n-1)
	}
	sysName, ftName, _ := strings.Cut(cell, "/")
	sys, sysOK := SystemByName(sysName)
	ft, ftOK := fault.ByName(ftName)
	if sysOK && ftOK && slices.Contains(cfg.Systems, sys) && slices.Contains(cfg.Faults, ft) {
		o.Attempt = attempt
		o.Res, o.Err = cfg.run(nil, sys, ft, attempt, &pm)
		return o, pm, nil
	}
	return o, nil, fmt.Errorf("crashtest: the campaign has no cell %q", cell)
}

// summarize fills the campaign-level summary from the merged cells.
func (c *campaign) summarize(rep *Report, workers, speculative int) Summary {
	s := Summary{
		Seed:            c.cfg.Seed,
		RunsPerCell:     c.cfg.RunsPerCell,
		Workers:         workers,
		Cells:           len(c.cfg.Systems) * len(c.cfg.Faults),
		WallTime:        c.clock.Now().Sub(c.epoch),
		SpeculativeRuns: speculative,
	}
	for _, sys := range Systems {
		s.Add(rep.Sum(sys))
	}
	s.Runs = s.Attempts
	if s.Runs > 0 {
		s.DiscardRate = float64(s.Discarded) / float64(s.Runs)
		s.ErrorRate = float64(s.Errors) / float64(s.Runs)
	}
	if secs := s.WallTime.Seconds(); secs > 0 {
		s.RunsPerSec = float64(s.Runs) / secs
	}
	return s
}
