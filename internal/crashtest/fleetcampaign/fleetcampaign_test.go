package fleetcampaign

import (
	"reflect"
	"testing"
)

func TestPlanDeterministic(t *testing.T) {
	for i := 0; i < 16; i++ {
		a := PlanFor(77, i)
		b := PlanFor(77, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("plan %d not deterministic: %+v vs %+v", i, a, b)
		}
		if a.Kind != FaultKind(i%NumKinds) {
			t.Fatalf("plan %d: kind %v, want %v", i, a.Kind, FaultKind(i%NumKinds))
		}
		if a.PreWrites < 4 || a.PreWrites > 8 || a.PostWrites < 4 || a.PostWrites > 8 {
			t.Fatalf("plan %d: write counts out of range: %+v", i, a)
		}
	}
	if PlanFor(77, 0).Seed == PlanFor(78, 0).Seed {
		t.Fatal("different campaign seeds produced the same plan seed")
	}
}

func TestFaultKindStrings(t *testing.T) {
	want := []string{"kill-primary", "partition-primary", "kill-backup", "os-crash", "partition-pair"}
	for i, w := range want {
		if got := FaultKind(i).String(); got != w {
			t.Fatalf("kind %d: %q, want %q", i, got, w)
		}
	}
}

// TestRunOneEachKind runs one plan per fault kind and demands the gate
// the whole layer exists for: nothing acked is ever lost.
func TestRunOneEachKind(t *testing.T) {
	for i := 0; i < NumKinds; i++ {
		p := PlanFor(1996, i)
		res := RunOne(p)
		if res.Err != "" {
			t.Fatalf("%v: harness error: %s", p.Kind, res.Err)
		}
		if res.Lost != 0 {
			t.Fatalf("%v: lost %d acked writes (acked=%d)", p.Kind, res.Lost, res.Acked)
		}
		if res.Stale != 0 {
			t.Fatalf("%v: %d stale reads served by a deposed primary", p.Kind, res.Stale)
		}
		if res.Acked == 0 {
			t.Fatalf("%v: nothing acked — the run exercised nothing", p.Kind)
		}
		switch p.Kind {
		case KillPrimary:
			if res.Promotions == 0 {
				t.Fatalf("kill-primary: no promotion happened (reconfigs=%d)", res.Reconfigs)
			}
		case OSCrash:
			if res.Promotions != 0 {
				t.Fatalf("os-crash: warm reboot should not trigger promotion, got %d", res.Promotions)
			}
		case PartitionPair:
			if res.Promotions == 0 {
				t.Fatalf("partition-pair: no promotion happened (reconfigs=%d)", res.Reconfigs)
			}
		}
	}
}
