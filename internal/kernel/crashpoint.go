package kernel

import (
	"errors"
	"fmt"
)

// ErrCrashPoint reports that a protocol halted at the armed crash point: a
// simulated second crash, after which the caller restarts the protocol.
var ErrCrashPoint = errors.New("kernel: halted at the armed crash point")

// CrashPoint is the one crash-injection hook: a count of the protocol
// boundaries passed, one of which may be armed. A protocol calls Point at
// each boundary and, when it reports true, stops with ErrCrashPoint. The
// zero value is disarmed; a nil CrashPoint never halts.
type CrashPoint struct {
	count, halt int // halt: the armed boundary + 1, or 0
}

// Point counts one boundary and reports whether it is the armed one.
func (p *CrashPoint) Point() bool {
	if p == nil {
		return false
	}
	p.count++
	return p.count == p.halt
}

// Arm zeroes the count and arms boundary i, counted from 0: the i-th Point
// from now halts. A negative i arms nothing.
func (p *CrashPoint) Arm(i int) { *p = CrashPoint{halt: max(i+1, 0)} }

// Disarm zeroes the count and arms nothing.
func (p *CrashPoint) Disarm() { *p = CrashPoint{} }

// Count returns the boundaries passed since the last Arm or Disarm: after an
// uninterrupted pass, the number of places it can halt.
func (p *CrashPoint) Count() int { return p.count }

// Restart runs one recovery phase with the point armed at boundary at (at <
// 0: disarmed). A phase the point halts is the second crash: it runs again,
// disarmed, from the state the halted run left, and must complete. The
// point is disarmed on return.
func (p *CrashPoint) Restart(at int, phase func() error) (interrupted bool, err error) {
	defer p.Disarm()
	p.Arm(at)
	if err = phase(); err != ErrCrashPoint {
		return false, err
	}
	p.Disarm()
	return true, phase()
}

// EachPoint is the crash-at-every-point check. setup puts a protocol's
// starting state back and returns the crash point the protocol counts on
// and one pass of it; state renders what the pass leaves. One uninterrupted
// pass counts the boundaries N and takes the reference state. Then, for
// each k in 0..N, a fresh setup runs the pass through Restart(k): it must
// halt at every k < N, complete at k = N, and leave the reference state.
// It returns N, or an error naming the k that broke the contract.
func EachPoint(setup func() (*CrashPoint, func() error), state func() string) (n int, err error) {
	p, pass := setup()
	p.Disarm()
	if err := pass(); err != nil {
		return 0, fmt.Errorf("uninterrupted pass: %w", err)
	}
	n, want := p.Count(), state()
	p.Disarm()
	for k := 0; k <= n; k++ {
		p, pass := setup()
		interrupted, err := p.Restart(k, pass)
		switch {
		case err != nil:
			return n, fmt.Errorf("point %d of %d: %w", k, n, err)
		case interrupted != (k < n):
			return n, fmt.Errorf("point %d of %d: halted = %v, want %v", k, n, interrupted, k < n)
		}
		if got := state(); got != want {
			return n, fmt.Errorf("point %d of %d: the state diverges from the uninterrupted pass:\ngot:\n%s\nwant:\n%s", k, n, got, want)
		}
	}
	return n, nil
}
