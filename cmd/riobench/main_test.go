package main

import "testing"

func TestGateAllocsJudgesThePrintedValue(t *testing.T) {
	cases := []struct {
		allocs float64
		pass   bool
	}{
		{1, true},
		{1.00025, true}, // one stray runtime allocation in 4000 ops prints 1.00
		{1.004, true},
		{1.006, false}, // prints 1.01
		{1.5, false},
		{2, false}, // a real extra allocation per op
	}
	for _, tc := range cases {
		err := gateAllocs([]opResult{{Name: "served-read", AllocsPerOp: tc.allocs}}, "served-read=1")
		if (err == nil) != tc.pass {
			t.Errorf("allocs/op %v against budget 1: err=%v, want pass=%v", tc.allocs, err, tc.pass)
		}
	}
	if err := gateAllocs([]opResult{{Name: "read"}}, "served-read=1"); err == nil {
		t.Error("a gate on an op missing from the report passed")
	}
}
