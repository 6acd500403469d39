package crashtest

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rio/internal/machine"
	"rio/internal/sim"
)

// fakeAttempt is a stand-in for a crash run whose outcome is a pure
// function of (cell, attempt): about half the attempts "crash", a few
// err.
func fakeAttempt(cell, attempt int) (uint64, error) {
	v := sim.Mix(0x5C4ED, uint64(cell), uint64(attempt))
	if v%17 == 0 {
		return 0, fmt.Errorf("synthetic error (cell %d attempt %d)", cell, attempt)
	}
	return v, nil
}

// foldLog is what a test cell's fold saw, in the order it saw it.
type foldLog struct {
	Attempts []int
	Values   []uint64
	Errors   int
	Crashes  int
}

// testCell builds cell number id with the given attempt budget; quota > 0
// makes it a quota cell (full at that many even values), quota 0 a cell
// that is never full.
func testCell(id, attempts, window, quota int, log *foldLog) CellPlan[uint64] {
	return CellPlan[uint64]{
		Label:    fmt.Sprintf("cell %d", id),
		Attempts: attempts,
		Window:   window,
		Run:      func(attempt int, _ *machine.Storage) (uint64, error) { return fakeAttempt(id, attempt) },
		Fold: func(o Outcome[uint64]) bool {
			log.Attempts = append(log.Attempts, o.Attempt)
			log.Values = append(log.Values, o.Res)
			if o.Err != nil {
				log.Errors++
			} else if o.Res%2 == 0 {
				log.Crashes++
			}
			return quota > 0 && log.Crashes >= quota
		},
	}
}

// runCells drives the cells concurrently on one scheduler, as RunCampaign
// drives Table 1's.
func runCells(s *Scheduler[uint64], cells []CellPlan[uint64]) {
	var wg sync.WaitGroup
	for _, c := range cells {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.RunCell(c)
		}()
	}
	wg.Wait()
}

// TestSchedulerFoldIndependentOfWorkers: a quota cell, a never-full cell
// and a mix of both fold the same attempts, in the same order, to the
// same values at 1, 3 and 8 workers.
func TestSchedulerFoldIndependentOfWorkers(t *testing.T) {
	shapes := map[string][]int{ // quota per cell; 0 = never full
		"quota":      {5},
		"never-full": {0},
		"mix":        {4, 0, 7, 0, 1},
	}
	for name, quotas := range shapes {
		run := func(workers int) []foldLog {
			logs := make([]foldLog, len(quotas))
			s := NewScheduler[uint64](workers, nil)
			var cells []CellPlan[uint64]
			for id, q := range quotas {
				window := workers
				if q > 0 && window > q {
					window = q
				}
				cells = append(cells, testCell(id, 60, window, q, &logs[id]))
			}
			runCells(s, cells)
			if _, err := s.Close(); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return logs
		}
		ref := run(1)
		for id, q := range quotas {
			l := ref[id]
			for i, a := range l.Attempts {
				if a != i {
					t.Fatalf("%s cell %d: fold %d saw attempt %d", name, id, i, a)
				}
			}
			if q == 0 && len(l.Attempts) != 60 {
				t.Fatalf("%s cell %d never reports full but folded %d of 60 attempts", name, id, len(l.Attempts))
			}
			if q > 0 && (l.Crashes != q || len(l.Attempts) == 60) {
				t.Fatalf("%s cell %d: quota %d, folded %d attempts to %d crashes", name, id, q, len(l.Attempts), l.Crashes)
			}
		}
		for _, w := range []int{3, 8} {
			if got := run(w); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: workers=%d folded differently from workers=1:\n%+v\nvs\n%+v", name, w, got, ref)
			}
		}
	}
}

// TestSchedulerAbortMidCampaign trips the heap tripwire while cells are
// in flight: Close must return the abort error and every attempt a worker
// accepted must have been answered (folded or counted as overshoot). No
// goroutine outlives the test's own calls: runCells joins the cell
// drivers and Close returns only after every worker has called Done, so
// a stuck driver or worker hangs the test instead of leaking.
func TestSchedulerAbortMidCampaign(t *testing.T) {
	s := NewScheduler[uint64](4, nil)
	s.heapLimit = 1 // any live heap exceeds it at the first sample

	var ran atomic.Int64
	logs := make([]foldLog, 6)
	var cells []CellPlan[uint64]
	for id := range logs {
		c := testCell(id, 1000, 4, 0, &logs[id])
		run := c.Run
		c.Run = func(attempt int, st *machine.Storage) (uint64, error) {
			ran.Add(1)
			return run(attempt, st)
		}
		cells = append(cells, c)
	}
	runCells(s, cells)
	speculative, err := s.Close()
	if err == nil {
		t.Fatal("heap tripwire did not abort the campaign")
	}

	folded := 0
	for id, l := range logs {
		folded += len(l.Attempts)
		for i, a := range l.Attempts {
			if a != i {
				t.Fatalf("cell %d: fold %d saw attempt %d after abort", id, i, a)
			}
		}
	}
	if folded == 6*1000 {
		t.Fatal("every attempt ran; the abort stopped nothing")
	}
	if int(ran.Load()) != folded+speculative {
		t.Fatalf("%d attempts ran but %d folded + %d overshoot: a task went unanswered",
			ran.Load(), folded, speculative)
	}
}

// TestSchedulerNeedShrinksWindow: a cell one success short keeps one
// attempt in flight however wide its window, so a cell whose every
// attempt succeeds runs exactly its quota and wastes nothing — also when
// its first attempt finishes last and the others wait to fold.
func TestSchedulerNeedShrinksWindow(t *testing.T) {
	for _, quota := range []int{1, 3} {
		s := NewScheduler[uint64](8, nil)
		var ran atomic.Int64
		var log foldLog
		c := testCell(0, 60, 8, quota, &log)
		c.Run = func(attempt int, _ *machine.Storage) (uint64, error) {
			ran.Add(1)
			if attempt == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			return 0, nil // even: every attempt counts toward the quota
		}
		c.Need = func() int { return quota - log.Crashes }
		s.RunCell(c)
		speculative, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != int64(quota) || speculative != 0 || log.Crashes != quota {
			t.Fatalf("quota %d: %d attempts ran, %d overshoot, %d folded crashes",
				quota, ran.Load(), speculative, log.Crashes)
		}
	}
}
