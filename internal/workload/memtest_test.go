package workload

import (
	"testing"

	"rio/internal/fs"
	"rio/internal/machine"
)

func newRio(t *testing.T) *machine.Machine {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyRio))
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemTestRunsClean(t *testing.T) {
	m := newRio(t)
	mt := NewMemTest(1, 1<<21)
	for i := 0; i < 400; i++ {
		if err := mt.Step(m.FS); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if mt.Steps() != 400 {
		t.Fatalf("steps = %d", mt.Steps())
	}
	if mt.FileCount() == 0 {
		t.Fatal("no files created")
	}
	if mt.ReadMismatches != 0 {
		t.Fatalf("read mismatches on a healthy system: %d", mt.ReadMismatches)
	}
	if mt.inFlight.Kind != 0 {
		t.Fatal("in-flight op after clean steps")
	}
	if bad := mt.Check(m.FS).Corruptions; len(bad) != 0 {
		t.Fatalf("verify on healthy system: %v", bad)
	}
}

func TestMemTestDeterministicStream(t *testing.T) {
	run := func() ([]string, int) {
		m := newRio(t)
		mt := NewMemTest(42, 1<<20)
		for i := 0; i < 200; i++ {
			if err := mt.Step(m.FS); err != nil {
				t.Fatal(err)
			}
		}
		var names []string
		for _, n := range mt.names {
			names = append(names, n)
		}
		return names, mt.FileCount()
	}
	n1, c1 := run()
	n2, c2 := run()
	if c1 != c2 || len(n1) != len(n2) {
		t.Fatalf("runs diverged: %d/%d files", c1, c2)
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("name %d differs: %s vs %s", i, n1[i], n2[i])
		}
	}
}

func TestMemTestDetectsCorruption(t *testing.T) {
	m := newRio(t)
	mt := NewMemTest(7, 1<<20)
	for i := 0; i < 100; i++ {
		if err := mt.Step(m.FS); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one file behind the oracle's back via a direct write.
	var victim string
	for p := range mt.oracle {
		if len(mt.oracle[p]) > 0 {
			victim = p
			break
		}
	}
	if victim == "" {
		t.Fatal("no victim")
	}
	f, err := m.FS.Open(victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{mt.oracle[victim][0] ^ 0xff}, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	bad := mt.Check(m.FS).Corruptions
	if len(bad) == 0 {
		t.Fatal("corruption not detected")
	}
	found := false
	for _, c := range bad {
		if c.Path == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong victim reported: %v", bad)
	}
}

func TestMemTestDetectsMissingFile(t *testing.T) {
	m := newRio(t)
	mt := NewMemTest(9, 1<<20)
	for i := 0; i < 80; i++ {
		mt.Step(m.FS)
	}
	var victim string
	for p := range mt.oracle {
		victim = p
		break
	}
	if err := m.FS.Unlink(victim); err != nil {
		t.Fatal(err)
	}
	bad := mt.Check(m.FS).Corruptions
	if len(bad) == 0 {
		t.Fatal("missing file not detected")
	}
}

func TestMemTestInFlightMasking(t *testing.T) {
	m := newRio(t)
	mt := NewMemTest(11, 1<<20)
	for i := 0; i < 60; i++ {
		if err := mt.Step(m.FS); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: pick a file, set inFlight manually and
	// write half the data.
	var victim string
	for p, c := range mt.oracle {
		if len(c) > 10 {
			victim = p
			break
		}
	}
	old := mt.oracle[victim]
	mt.inFlight = Op{Kind: OpWrite, Path: victim, Off: int64(len(old)), Data: make([]byte, 20)}
	f, _ := m.FS.Open(victim)
	f.WriteAt([]byte("partialpar"), int64(len(old))) // 10 of 20 bytes
	f.Close()
	if bad := mt.Check(m.FS).Corruptions; len(bad) != 0 {
		t.Fatalf("in-flight append flagged as corruption: %v", bad)
	}
	// But damage OUTSIDE the in-flight range is still caught.
	f, _ = m.FS.Open(victim)
	f.WriteAt([]byte{old[0] ^ 0x55}, 0)
	f.Close()
	if bad := mt.Check(m.FS).Corruptions; len(bad) == 0 {
		t.Fatal("corruption outside in-flight range missed")
	}
}

func TestMemTestInFlightDelete(t *testing.T) {
	m := newRio(t)
	mt := NewMemTest(13, 1<<20)
	for i := 0; i < 60; i++ {
		mt.Step(m.FS)
	}
	var victim string
	for p := range mt.oracle {
		victim = p
		break
	}
	mt.inFlight = Op{Kind: OpUnlink, Path: victim}
	// Deleted or not — both acceptable.
	if bad := mt.Check(m.FS).Corruptions; len(bad) != 0 {
		t.Fatalf("in-flight delete (still present): %v", bad)
	}
	m.FS.Unlink(victim)
	if bad := mt.Check(m.FS).Corruptions; len(bad) != 0 {
		t.Fatalf("in-flight delete (gone): %v", bad)
	}
}

func TestMemTestUnexpectedFileDetected(t *testing.T) {
	m := newRio(t)
	mt := NewMemTest(15, 1<<20)
	for i := 0; i < 40; i++ {
		mt.Step(m.FS)
	}
	f, err := m.FS.Create("/mtphantom")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("ghost"))
	f.Close()
	bad := mt.Check(m.FS).Corruptions
	if len(bad) == 0 {
		t.Fatal("unexpected mt file not detected")
	}
	// Non-memTest files are ignored.
	f, _ = m.FS.Create("/otherfile")
	f.Close()
	bad2 := mt.Check(m.FS).Corruptions
	if len(bad2) != len(bad) {
		t.Fatal("non-memTest file flagged")
	}
}

func TestMemTestRespectsBudget(t *testing.T) {
	m := newRio(t)
	mt := NewMemTest(17, 64<<10) // tiny 64 KB budget
	for i := 0; i < 500; i++ {
		if err := mt.Step(m.FS); err != nil {
			t.Fatal(err)
		}
	}
	if mt.total > 3*(64<<10) {
		t.Fatalf("file set grew to %d bytes against a 64KB budget", mt.total)
	}
}

func TestMemTestWriteThroughMode(t *testing.T) {
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyUFSWTWrite))
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt := NewMemTest(19, 1<<20)
	mt.WriteThrough = true
	for i := 0; i < 100; i++ {
		if err := mt.Step(m.FS); err != nil {
			t.Fatal(err)
		}
	}
	if m.FS.Stats.Fsyncs == 0 {
		t.Fatal("write-through memTest never fsynced")
	}
	if bad := mt.Check(m.FS).Corruptions; len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
}
