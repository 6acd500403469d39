// Package ioretry gives storage clients bounded, simulated-time retries
// over a faulty disk, plus a per-mount error budget that escalates to a
// read-only degraded mode when the device proves too sick to trust.
//
// The policy follows what production kernels actually do when a command
// fails: retry transients a few times with backoff (bus resets and ECC
// hiccups usually clear), do not retry latent sector errors (the medium
// is gone; only a rewrite helps), and once failures pile up past a
// budget, stop accepting writes rather than spread damage — the
// graceful-degradation half of the ROADMAP's reliability story that the
// paper's perfect-disk model never needed.
//
// All delays advance the simulated clock, never the wall clock, so
// retried campaigns stay deterministic and fast.
package ioretry

import (
	"rio/internal/disk"
	"rio/internal/sim"
)

// Policy bounds the retry loop and the mount's tolerance for failure.
type Policy struct {
	// MaxRetries is the number of re-attempts after the first failure
	// of a transient error (so an op runs at most 1+MaxRetries times).
	MaxRetries int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay.
	BaseDelay sim.Duration
	MaxDelay  sim.Duration
	// Budget is the number of operations that may ultimately fail
	// (after retries) before the mount degrades to read-only.
	// Zero means an unlimited budget (never degrade).
	Budget int
}

// DefaultPolicy matches a patient mid-90s SCSI driver: a handful of
// retries spanning a few disk revolutions, and a budget small enough
// that a dying device is benched before it eats the volume.
func DefaultPolicy() Policy {
	return Policy{
		MaxRetries: 4,
		BaseDelay:  2 * sim.Millisecond,
		MaxDelay:   32 * sim.Millisecond,
		Budget:     16,
	}
}

// Stats counts retry-layer activity for one mount.
type Stats struct {
	Ops            uint64 // operations submitted through Do
	Retries        uint64 // individual re-attempts issued
	RetrySuccesses uint64 // ops that failed at least once, then succeeded
	Failures       uint64 // ops that ultimately failed (budget charged)
	LatentFailures uint64 // of Failures, unretryable latent-sector errors
	BackoffTime    sim.Duration
}

// Retrier wraps a mount's disk operations with the retry policy and
// tracks its error budget. Not safe for concurrent use — neither is the
// simulated machine it serves.
type Retrier struct {
	Pol      Policy
	Clock    *sim.Clock // backoff delays advance it; nil skips them
	Stats    Stats
	spent    int
	degraded bool
}

// New returns a Retrier with the given policy. clk may be nil, which keeps
// unit tests trivial.
func New(pol Policy, clk *sim.Clock) *Retrier {
	return &Retrier{Pol: pol, Clock: clk}
}

// Degraded reports whether the error budget is exhausted: the mount
// should refuse new mutations and serve reads best-effort.
func (r *Retrier) Degraded() bool { return r.degraded }

// BudgetRemaining returns how many more ultimate failures the mount
// absorbs before degrading (-1 for an unlimited budget).
func (r *Retrier) BudgetRemaining() int {
	if r.Pol.Budget <= 0 {
		return -1
	}
	if r.spent >= r.Pol.Budget {
		return 0
	}
	return r.Pol.Budget - r.spent
}

// backoff charges the n-th retry's delay (n counts from 0) to the
// simulated clock.
func (r *Retrier) backoff(n int) {
	d := r.Pol.BaseDelay << uint(n)
	if r.Pol.MaxDelay > 0 && d > r.Pol.MaxDelay {
		d = r.Pol.MaxDelay
	}
	if d <= 0 {
		return
	}
	r.Stats.BackoffTime += d
	if r.Clock != nil {
		r.Clock.Advance(d)
	}
}

// charge records an ultimate failure against the budget.
func (r *Retrier) charge() {
	r.Stats.Failures++
	r.spent++
	if r.Pol.Budget > 0 && r.spent >= r.Pol.Budget {
		r.degraded = true
	}
}

// Do runs op, retrying transient disk errors up to MaxRetries times with
// exponential simulated-time backoff. Latent sector errors are never
// retried — rereading a destroyed sector cannot succeed. The returned
// error is the last attempt's. An ultimate failure spends one unit of
// the mount's error budget; when the budget hits zero the Retrier flips
// to Degraded and stays there.
func (r *Retrier) Do(op func() error) error {
	r.Stats.Ops++
	err := op()
	if err == nil {
		return nil
	}
	if disk.IsLatent(err) {
		r.Stats.LatentFailures++
		r.charge()
		return err
	}
	for n := 0; n < r.Pol.MaxRetries && disk.IsTransient(err); n++ {
		r.backoff(n)
		r.Stats.Retries++
		if err = op(); err == nil {
			r.Stats.RetrySuccesses++
			return nil
		}
	}
	if disk.IsLatent(err) {
		r.Stats.LatentFailures++
	}
	r.charge()
	return err
}
