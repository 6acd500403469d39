package ioretry

import (
	"errors"
	"testing"

	"rio/internal/disk"
	"rio/internal/sim"
)

// faultyOp fails with err for the first n calls, then succeeds.
func faultyOp(n int, err error) func() error {
	calls := 0
	return func() error {
		calls++
		if calls <= n {
			return err
		}
		return nil
	}
}

// transientErr / latentErr produce real disk errors of each class by
// driving a tiny disk with a saturating fault plan.
func transientErr(t *testing.T) error {
	t.Helper()
	d := disk.New(4 * disk.SectorSize)
	d.SetFaultPlan(&disk.FaultPlan{Seed: 1, TransientWrite: 1})
	_, err := d.Write(0, make([]byte, disk.SectorSize))
	if !disk.IsTransient(err) {
		t.Fatalf("setup: %v", err)
	}
	return err
}

func latentErr(t *testing.T) error {
	t.Helper()
	d := disk.New(4 * disk.SectorSize)
	d.SetFaultPlan(&disk.FaultPlan{Seed: 1, LatentRate: 1})
	_, err := d.Read(0, make([]byte, disk.SectorSize))
	if !disk.IsLatent(err) {
		t.Fatalf("setup: %v", err)
	}
	return err
}

func TestRetrySucceedsWithinBound(t *testing.T) {
	clk := &sim.Clock{}
	r := New(Policy{MaxRetries: 3, BaseDelay: sim.Millisecond, MaxDelay: 8 * sim.Millisecond, Budget: 5}, clk)
	if err := r.Do(faultyOp(2, transientErr(t))); err != nil {
		t.Fatalf("2 transient failures under MaxRetries=3 should succeed: %v", err)
	}
	if r.Stats.Retries != 2 || r.Stats.RetrySuccesses != 1 || r.Stats.Failures != 0 {
		t.Fatalf("stats %+v", r.Stats)
	}
	// Backoff 1ms + 2ms advanced the simulated clock.
	if got, want := clk.Now(), sim.Time(0).Add(3*sim.Millisecond); got != want {
		t.Fatalf("clock at %v, want %v", got, want)
	}
}

func TestRetryExhaustionChargesBudget(t *testing.T) {
	r := New(Policy{MaxRetries: 2, BaseDelay: sim.Millisecond, Budget: 2}, nil)
	terr := transientErr(t)
	if err := r.Do(func() error { return terr }); !disk.IsTransient(err) {
		t.Fatalf("want transient error through, got %v", err)
	}
	if r.Stats.Retries != 2 || r.Stats.Failures != 1 {
		t.Fatalf("stats %+v", r.Stats)
	}
	if r.Degraded() {
		t.Fatal("degraded after 1 failure with budget 2")
	}
	if r.BudgetRemaining() != 1 {
		t.Fatalf("budget remaining %d", r.BudgetRemaining())
	}
	r.Do(func() error { return terr })
	if !r.Degraded() || r.BudgetRemaining() != 0 {
		t.Fatalf("budget 2 not exhausted after 2 failures: remaining %d", r.BudgetRemaining())
	}
}

func TestLatentNotRetried(t *testing.T) {
	lerr := latentErr(t)
	r := New(Policy{MaxRetries: 5, BaseDelay: sim.Millisecond, Budget: 10}, nil)
	calls := 0
	err := r.Do(func() error { calls++; return lerr })
	if !disk.IsLatent(err) {
		t.Fatalf("got %v", err)
	}
	if calls != 1 {
		t.Fatalf("latent error retried %d times", calls-1)
	}
	if r.Stats.LatentFailures != 1 || r.Stats.Retries != 0 {
		t.Fatalf("stats %+v", r.Stats)
	}
}

func TestNonDiskErrorNotRetried(t *testing.T) {
	boom := errors.New("not a disk error")
	r := New(DefaultPolicy(), nil)
	calls := 0
	if err := r.Do(func() error { calls++; return boom }); err != boom {
		t.Fatalf("got %v", err)
	}
	if calls != 1 {
		t.Fatal("non-disk error was retried")
	}
}

func TestBackoffCapsAtMaxDelay(t *testing.T) {
	clk := &sim.Clock{}
	r := New(Policy{MaxRetries: 6, BaseDelay: sim.Millisecond, MaxDelay: 4 * sim.Millisecond, Budget: 0}, clk)
	r.Do(func() error { return transientErr(t) })
	// Delays: 1, 2, 4, 4, 4, 4 = 19ms.
	if got, want := clk.Now(), sim.Time(0).Add(19*sim.Millisecond); got != want {
		t.Fatalf("clock at %v, want %v", got, want)
	}
}

func TestZeroBudgetNeverDegrades(t *testing.T) {
	r := New(Policy{MaxRetries: 0, Budget: 0}, nil)
	terr := transientErr(t)
	for i := 0; i < 100; i++ {
		r.Do(func() error { return terr })
	}
	if r.Degraded() {
		t.Fatal("unlimited budget degraded")
	}
	if r.BudgetRemaining() != -1 {
		t.Fatalf("remaining %d", r.BudgetRemaining())
	}
}

// TestAgainstRealFaultyDisk drives a Retrier over an actual disk with a
// moderate transient rate and checks every write eventually lands.
func TestAgainstRealFaultyDisk(t *testing.T) {
	d := disk.New(256 * disk.SectorSize)
	d.SetFaultPlan(&disk.FaultPlan{Seed: 9, TransientWrite: 0.3, TransientRead: 0.3})
	clk := &sim.Clock{}
	r := New(Policy{MaxRetries: 8, BaseDelay: sim.Millisecond, MaxDelay: 16 * sim.Millisecond, Budget: 0}, clk)
	payload := make([]byte, disk.SectorSize)
	for i := 0; i < 100; i++ {
		payload[0] = byte(i)
		s := i % 200
		if err := r.Do(func() error { _, err := d.Write(s, payload); return err }); err != nil {
			t.Fatalf("write %d never landed: %v", i, err)
		}
	}
	d.SetFaultPlan(nil)
	buf := make([]byte, disk.SectorSize)
	for i := 0; i < 100; i++ {
		d.Read(i%200, buf)
	}
	if r.Stats.Retries == 0 {
		t.Fatal("30% transient rate produced zero retries")
	}
	if r.Stats.Failures != 0 {
		t.Fatalf("unexpected ultimate failures: %+v", r.Stats)
	}
}
