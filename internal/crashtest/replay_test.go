package crashtest

import (
	"reflect"
	"testing"

	"rio/internal/fault"
	"rio/internal/machine"
	"rio/internal/workload"
)

// TestTracedRunEqualsUntraced holds Replay to the campaign: a run with
// the tracer attached (Replay's) must give the very WorkloadResult the
// campaign's untraced run gives, on every Table 1 column, under two
// fault types, for memTest and for a second workload. The tracer sends
// every copy through the interpreter instead of its native loops, so a
// copy loop whose native form drifts from its interpreted one fails
// here.
func TestTracedRunEqualsUntraced(t *testing.T) {
	scan := func(seed uint64, writeThrough bool) workload.Workload {
		sc := workload.NewScan(seed, 3, 6)
		sc.WriteThrough = writeThrough
		return sc
	}
	crashes := 0
	for _, mk := range []WorkloadFactory{memTest(1 << 21), scan} {
		for _, sys := range Systems {
			for _, ft := range []fault.Type{fault.HeapFlip, fault.CopyOverrun} {
				cfg := DefaultRunConfig(RunSeed(109, sys, ft, 0))
				plain, err := RunWorkloadOne(nil, sys, ft, cfg, mk)
				if err != nil {
					t.Fatal(err)
				}
				var pm *machine.Postmortem
				traced, err := runWorkload(nil, sys, ft, cfg, mk, &pm)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain, traced) {
					t.Fatalf("%v/%v: tracing moved the outcome:\nuntraced %+v\ntraced   %+v", sys, ft, plain, traced)
				}
				if (pm != nil) != traced.Crashed {
					t.Fatalf("%v/%v: crashed %v but post-mortem %v", sys, ft, traced.Crashed, pm)
				}
				if traced.Crashed {
					crashes++
				}
			}
		}
	}
	if crashes < 4 {
		t.Fatalf("%d of 12 runs crashed: too few to compare", crashes)
	}
}
