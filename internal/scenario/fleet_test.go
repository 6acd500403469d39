package scenario

import (
	"reflect"
	"testing"
)

func TestFleetPlanDeterministic(t *testing.T) {
	for i := 0; i < 16; i++ {
		a := fleetPlanFor(77, i)
		b := fleetPlanFor(77, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("plan %d not deterministic: %+v vs %+v", i, a, b)
		}
		if want := fleetFault(i % len(fleetFaultNames)); a.Kind != want {
			t.Fatalf("plan %d: kind %v, want %v", i, a.Kind, want)
		}
		if a.PreWrites < 4 || a.PreWrites > 8 || a.PostWrites < 4 || a.PostWrites > 8 {
			t.Fatalf("plan %d: write counts out of range: %+v", i, a)
		}
	}
	if fleetPlanFor(77, 0).Seed == fleetPlanFor(78, 0).Seed {
		t.Fatal("different campaign seeds produced the same plan seed")
	}
}

func TestFleetFaultKindStrings(t *testing.T) {
	want := []string{"kill-primary", "partition-primary", "kill-backup", "os-crash", "partition-pair"}
	if len(fleetFaultNames) != len(want) {
		t.Fatalf("%d fault kinds, want %d", len(fleetFaultNames), len(want))
	}
	for i, w := range want {
		if got := fleetFault(i).String(); got != w {
			t.Fatalf("kind %d: %q, want %q", i, got, w)
		}
	}
}

// TestFleetFaultNames holds the three spellings of a fault kind to the
// one table: the kind's String, the name a spec lists it under, and the
// label of its report cell, in table order.
func TestFleetFaultNames(t *testing.T) {
	for i, name := range fleetFaultNames {
		k := fleetFault(i)
		if k.String() != name {
			t.Fatalf("kind %d prints %q, table says %q", i, k, name)
		}
		if got, err := fleetFaultByName(name); err != nil || got != k {
			t.Fatalf("spec name %q resolves to %v, %v; want kind %d", name, got, err, i)
		}
	}
	if _, err := fleetFaultByName("meteor"); err == nil {
		t.Fatal("unknown fault kind resolved")
	}
	// An empty fleet_faults means every kind: one cell each, table order.
	_, res := mustRun(t, `{"name":"names","kind":"fleet","seed":5,"runs":1}`, 1)
	if len(res.Cells) != len(fleetFaultNames) {
		t.Fatalf("%d cells, want %d", len(res.Cells), len(fleetFaultNames))
	}
	for i, name := range fleetFaultNames {
		if res.Cells[i].Label != "fleet/"+name {
			t.Fatalf("cell %d labelled %q, want %q", i, res.Cells[i].Label, "fleet/"+name)
		}
	}
}

// TestFleetRunOneEachKind runs one plan per fault kind and demands the
// gate the whole layer exists for: nothing acked is ever lost.
func TestFleetRunOneEachKind(t *testing.T) {
	for i := range fleetFaultNames {
		p := fleetPlanFor(1996, i)
		res := runFleetPlan(p)
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
		case killPrimary:
			if res.Promotions == 0 {
				t.Fatalf("kill-primary: no promotion happened (reconfigs=%d)", res.Reconfigs)
			}
		case osCrash:
			if res.Promotions != 0 {
				t.Fatalf("os-crash: warm reboot should not trigger promotion, got %d", res.Promotions)
			}
		case partitionPair:
			if res.Promotions == 0 {
				t.Fatalf("partition-pair: no promotion happened (reconfigs=%d)", res.Reconfigs)
			}
		}
	}
}
