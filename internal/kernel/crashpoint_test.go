package kernel

import (
	"strconv"
	"strings"
	"testing"
)

// TestEachPoint runs the enumerator over synthetic three-boundary passes on
// a bare crash point: each way a pass can break the restart contract is
// refused naming the boundary, and a convergent pass returns its count.
func TestEachPoint(t *testing.T) {
	var p CrashPoint
	var runs, passes int // runs: since the last setup; passes: in all
	walk := func(n int, honour bool) error {
		runs, passes = runs+1, passes+1
		for i := 0; i < n; i++ {
			if p.Point() && honour {
				return ErrCrashPoint
			}
		}
		return nil
	}
	done := func() string { return "done" }
	for _, c := range []struct {
		pass    func() error
		state   func() string
		wantErr string // "": converges
	}{
		{func() error { return walk(3, true) }, done, ""},
		{func() error { return walk(3, true) }, func() string { return strconv.Itoa(runs) }, "point 0 of 3: the state diverges"},
		{func() error { return walk(3, false) }, done, "point 0 of 3: halted = false, want true"},
		{func() error { return walk(3+min(passes, 1), true) }, done, "point 3 of 3: halted = true, want false"},
	} {
		passes = 0
		n, err := EachPoint(func() (*CrashPoint, func() error) { runs = 0; return &p, c.pass }, c.state)
		switch {
		case c.wantErr == "" && (err != nil || n != 3),
			c.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), c.wantErr)):
			t.Errorf("n = %d, err = %v; want 3 and error %q", n, err, c.wantErr)
		case p != (CrashPoint{}):
			t.Errorf("%q: the point is left %+v, want disarmed", c.wantErr, p)
		}
	}
}
