package crashtest

import (
	"reflect"
	"strings"
	"testing"

	"rio/internal/fault"
	"rio/internal/fs"
	"rio/internal/machine"
	"rio/internal/workload"
)

// panicky is memTest with a simulator bug: its first step after warm-up
// panics, mid-run, with the machine's disk queue, cache and registry in
// whatever state the op left them.
type panicky struct {
	workload.Workload
	steps int
}

func (p *panicky) Step(fsys *fs.FS) error {
	if p.steps++; p.steps == DefaultRunConfig(0).WarmupOps+1 {
		panic("simulator bug")
	}
	return p.Workload.Step(fsys)
}

// TestRecycledStorageRunIsFresh runs, through one Storage and in this
// order, the runs that leave it dirtiest — a disk-based run (its cold boot
// scrambles all of memory), a double-fault run (fault plan, latent sectors,
// a torn in-flight sector, a recovery interrupted and restarted from the
// storage's dump image), and a run that dies in the simulator-panic
// recover() path — and then the double-fault run again. It must report
// what it reports on storage nothing has used. (That a machine built on
// dirty storage is byte for byte a new one is machine's
// TestRecycledStorageBootsAFreshMachine; the rest is the determinism of a
// run, TestRunDeterministic.)
func TestRecycledStorageRunIsFresh(t *testing.T) {
	doubleFault := DefaultRunConfig(105)
	doubleFault.DiskFaults = true

	st := new(machine.Storage)
	cold, err := RunOne(st, DiskWT, fault.TextFlip, DefaultRunConfig(100))
	if err != nil || !cold.Crashed {
		t.Fatalf("disk-based run did not crash and cold-boot: %+v, %v", cold, err)
	}
	first, err := RunOne(st, RioProt, fault.TextFlip, doubleFault)
	if err != nil || !first.RecoveryInterrupted {
		t.Fatalf("double-fault run was not interrupted in recovery: %+v, %v", first, err)
	}
	_, err = RunWorkloadOne(st, RioNoProt, fault.HeapFlip, DefaultRunConfig(7),
		func(seed uint64, _ bool) workload.Workload {
			return &panicky{Workload: workload.NewMemTest(seed, 1<<21)}
		})
	if err == nil || !strings.Contains(err.Error(), "simulator panic") {
		t.Fatalf("panicking run: err = %v, want a simulator panic", err)
	}

	again, err := RunOne(st, RioProt, fault.TextFlip, doubleFault)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunOne(nil, RioProt, fault.TextFlip, doubleFault)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, fresh) {
		t.Errorf("run on recycled storage:\n%+v\non new storage:\n%+v", again, fresh)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Errorf("run after a cold boot on the same storage:\n%+v\non new storage:\n%+v", first, fresh)
	}
}

// TestRecycledStorageAcrossWorkers runs a mixed batch of crash runs on the
// Scheduler's eight workers, each run on whatever its worker's storage last
// held, and checks every result against the same run on new storage.
// Under -race it is also the check that workers share no storage.
func TestRecycledStorageAcrossWorkers(t *testing.T) {
	const runs = 16
	plan := func(i int) (System, fault.Type, RunConfig) {
		cfg := DefaultRunConfig(uint64(500 + i))
		cfg.DiskFaults = i%2 == 0
		return Systems[i%len(Systems)], fault.AllTypes[i%len(fault.AllTypes)], cfg
	}
	got := make([]WorkloadResult, 0, runs)
	s := NewScheduler[WorkloadResult](8, nil)
	s.RunCell(CellPlan[WorkloadResult]{
		Label:    "recycle",
		Attempts: runs,
		Window:   8,
		Run: func(i int, st *machine.Storage) (WorkloadResult, error) {
			sys, ft, cfg := plan(i)
			return RunOne(st, sys, ft, cfg)
		},
		Fold: func(o Outcome[WorkloadResult]) bool {
			if o.Err != nil {
				t.Errorf("run %d: %v", o.Attempt, o.Err)
			}
			got = append(got, o.Res)
			return false
		},
	})
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		sys, ft, cfg := plan(i)
		fresh, err := RunOne(nil, sys, ft, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, fresh) {
			t.Errorf("run %d (%v, %v) on a worker's recycled storage:\n%+v\non new storage:\n%+v",
				i, sys, ft, res, fresh)
		}
	}
}
