package crashtest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rio/internal/machine"
)

const (
	// Memory tripwire: a faulted simulator can, in principle, drive some
	// path into pathological allocation; surface that rather than letting
	// the OS OOM-kill the campaign. ReadMemStats stops the world, so it
	// is sampled once per heapCheckEvery runs on a shared counter instead
	// of before every one of a campaign's thousands of runs.
	heapCheckEvery = 32
	heapLimit      = 4 << 30
)

// Outcome is the result of one attempt, tagged for in-order folding.
type Outcome[R any] struct {
	Attempt int
	Res     R
	Err     error
	// Elapsed is the host time the attempt took; zero when the scheduler
	// has no clock.
	Elapsed time.Duration
}

// CellPlan is everything the scheduler knows about a cell: an attempt
// budget, a run function and a fold that says when the cell is full.
// Table 1 is 39 such cells whose fold reports full at the crash quota;
// a server or fleet scenario is one cell of plans whose fold never does.
type CellPlan[R any] struct {
	// Label names the cell in an abort message.
	Label string
	// Attempts is the attempt budget; Window is how many attempts the
	// cell keeps in flight.
	Attempts, Window int
	// Run executes one attempt on a worker goroutine. Its result must be
	// a pure function of the attempt index: everything it derives comes
	// from that index, never from what ran before it. st is the worker's
	// machine storage, for an attempt that builds a machine
	// (RunWorkloadOne) to build it on.
	Run func(attempt int, st *machine.Storage) (R, error)
	// Fold merges one outcome into the cell and reports whether the cell
	// is now full. It runs on the goroutine that called RunCell, strictly
	// in attempt order, and never again once it has returned true.
	Fold func(Outcome[R]) (full bool)
	// Need, if set, reports how many more outcomes the cell must fold
	// before it can be full; the cell then keeps no more attempts in
	// flight or waiting to fold than that, so a cell one crash short runs
	// one attempt at a time, not a window of them. It runs on the
	// goroutine that called RunCell.
	Need func() int
}

// task asks a worker to execute one attempt of one cell.
type task[R any] struct {
	label   string
	attempt int
	run     func(int, *machine.Storage) (R, error)
	reply   chan<- Outcome[R]
}

// Scheduler is the campaign engine: a pool of worker goroutines that
// cell drivers (RunCell) issue attempts into. Every campaign in the tree
// — Table 1 and the three scenario kinds — runs on one of these, so the
// determinism discipline (fold in attempt order, drop overshoot), the
// heap tripwire and the abort path are each written once.
type Scheduler[R any] struct {
	// Workers is the pool size in use.
	Workers int

	tasks chan task[R]
	done  chan struct{} // closed on abort (heap tripwire)
	now   func() time.Time
	pool  sync.WaitGroup

	heapLimit uint64
	abortOnce sync.Once
	abortErr  error

	started atomic.Int64 // attempts handed to workers (heap sampling cadence)
	wasted  atomic.Int64 // speculative attempts executed but never folded
}

// NewScheduler starts workers goroutines (0 = runtime.GOMAXPROCS(0)).
// now, when non-nil, is the host clock behind Outcome.Elapsed; outcomes
// never depend on it. The caller must Close the scheduler.
func NewScheduler[R any](workers int, now func() time.Time) *Scheduler[R] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler[R]{
		Workers:   workers,
		tasks:     make(chan task[R]),
		done:      make(chan struct{}),
		now:       now,
		heapLimit: heapLimit,
	}
	s.pool.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer s.pool.Done()
			s.worker()
		}()
	}
	return s
}

func (s *Scheduler[R]) abort(err error) {
	s.abortOnce.Do(func() {
		s.abortErr = err
		close(s.done)
	})
}

// worker executes tasks until the queue closes or the campaign aborts.
// Every accepted task is answered: reply channels are sized to the issue
// window, so the send cannot block even if the cell driver has moved on.
// Each worker owns one machine.Storage for as long as it lives — the
// campaign's memory is Workers machines, however many runs it makes — and
// drops it when Close stops the pool.
func (s *Scheduler[R]) worker() {
	st := new(machine.Storage)
	for {
		select {
		case <-s.done:
			return
		case t, ok := <-s.tasks:
			if !ok {
				return
			}
			if n := s.started.Add(1); n%heapCheckEvery == 0 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.heapLimit {
					s.abort(fmt.Errorf("crashtest: heap ballooned to %d MB during campaign (at %s attempt=%d)",
						ms.HeapAlloc>>20, t.label, t.attempt))
				}
			}
			o := Outcome[R]{Attempt: t.attempt}
			var start time.Time
			if s.now != nil {
				start = s.now()
			}
			o.Res, o.Err = t.run(t.attempt, st)
			if s.now != nil {
				o.Elapsed = s.now().Sub(start)
			}
			t.reply <- o
		}
	}
}

// RunCell drives one cell to completion: it keeps up to p.Window attempts
// (fewer when p.Need says so) in flight on the shared pool and folds
// outcomes back strictly in attempt order, so the cell is a pure function
// of its plan no matter how many workers run or in what order attempts
// complete. Attempts that
// finish after the fold has reported the cell full are speculative
// overshoot and are dropped unfolded. Cells may be driven concurrently.
func (s *Scheduler[R]) RunCell(p CellPlan[R]) {
	reply := make(chan Outcome[R], p.Window)
	pending := make(map[int]Outcome[R])
	next, outstanding, folded := 0, 0, 0
	full := false

	for !full && folded < p.Attempts {
		// Keep the issue window full; stop issuing on abort.
		window := p.Window
		if p.Need != nil {
			window = min(window, p.Need()-len(pending))
		}
		issuing := true
		for issuing && outstanding < window && next < p.Attempts {
			select {
			case s.tasks <- task[R]{label: p.Label, attempt: next, run: p.Run, reply: reply}:
				next++
				outstanding++
			case <-s.done:
				issuing = false
			}
		}
		if outstanding == 0 {
			break // aborted, or attempt budget exhausted
		}
		out := <-reply
		outstanding--
		pending[out.Attempt] = out
		// Fold the contiguous prefix; folded is the fold cursor.
		for !full && folded < p.Attempts {
			o, ok := pending[folded]
			if !ok {
				break
			}
			delete(pending, folded)
			folded++
			full = p.Fold(o)
		}
	}

	// Anything still in flight or buffered out-of-order is overshoot.
	for outstanding > 0 {
		<-reply
		outstanding--
		s.wasted.Add(1)
	}
	s.wasted.Add(int64(len(pending)))
}

// Close stops the workers once every RunCell has returned and waits for
// them to exit. It reports how many attempts ran as overshoot and, if the
// heap tripwire aborted the campaign, why.
func (s *Scheduler[R]) Close() (speculative int, err error) {
	close(s.tasks)
	s.pool.Wait()
	return int(s.wasted.Load()), s.abortErr
}
