package workload

import (
	"testing"

	"rio/internal/txn"
)

func cleanVerdict(t *testing.T, v TxnVerdict) {
	t.Helper()
	if len(v.Failures) != 0 || v.Mixed || v.LostAcked || v.Future {
		t.Fatalf("verdict not clean: %+v", v)
	}
}

func TestTxnTestCommitsAreConsistent(t *testing.T) {
	m := newRio(t)
	tt := NewTxnTest(7, 3)
	if err := tt.Setup(m.FS); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tt.Commit(m.FS); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if tt.LastAcked != 21 || tt.LastAttempt != 21 {
		t.Fatalf("acked %d attempt %d, want 21/21", tt.LastAcked, tt.LastAttempt)
	}
	v := tt.Verify(m.FS)
	cleanVerdict(t, v)
	if len(v.IDs) != 3 || v.IDs[0] != 21 {
		t.Fatalf("ids = %v, want three 21s", v.IDs)
	}
}

func TestTxnTestDetectsTornState(t *testing.T) {
	m := newRio(t)
	tt := NewTxnTest(7, 3)
	if err := tt.Setup(m.FS); err != nil {
		t.Fatal(err)
	}
	if err := tt.Commit(m.FS); err != nil {
		t.Fatal(err)
	}
	// Roll one account back to id 1 by hand: a torn write mix.
	old := tt.acctContent(1, 1)
	f, err := m.FS.Open(tt.path(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := tt.Verify(m.FS)
	if !v.Mixed {
		t.Fatalf("mixed ids not flagged: %+v", v)
	}
	if len(v.Failures) == 0 {
		t.Fatal("mixed state produced no failure entry")
	}
}

func TestTxnTestDetectsSmashedFrame(t *testing.T) {
	m := newRio(t)
	tt := NewTxnTest(7, 3)
	if err := tt.Setup(m.FS); err != nil {
		t.Fatal(err)
	}
	f, err := m.FS.Open(tt.path(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, acctHeader+3); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := tt.Verify(m.FS)
	if v.Mixed {
		t.Fatal("a smashed frame must not count as torn")
	}
	if len(v.Failures) != 1 || v.Failures[0].Path != tt.path(2) {
		t.Fatalf("failures = %v, want one undecodable account", v.Failures)
	}
	if len(v.IDs) != 2 {
		t.Fatalf("ids = %v, want the two intact accounts", v.IDs)
	}
}

func TestTxnTestDetectsLostAck(t *testing.T) {
	m := newRio(t)
	tt := NewTxnTest(7, 2)
	if err := tt.Setup(m.FS); err != nil {
		t.Fatal(err)
	}
	if err := tt.Commit(m.FS); err != nil {
		t.Fatal(err)
	}
	// Rewrite every account back to the baseline: consistent, but the
	// acked id 2 is gone.
	for j := 0; j < tt.Accounts; j++ {
		f, err := m.FS.Open(tt.path(j))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(tt.acctContent(1, j), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	v := tt.Verify(m.FS)
	if !v.LostAcked {
		t.Fatalf("lost ack not flagged: %+v", v)
	}
}

// An interrupted commit that left a published record behind must be
// rolled forward by the next Commit, not published over: the mid state
// with only some accounts rewritten would otherwise become permanent.
func TestTxnTestDirtyLogRollsForwardBeforeNextCommit(t *testing.T) {
	m := newRio(t)
	tt := NewTxnTest(7, 3)
	if err := tt.Setup(m.FS); err != nil {
		t.Fatal(err)
	}
	// Simulate a commit that published and half-applied, then errored:
	// publish the record, apply it to account 0 only, keep the log.
	tt.LastAttempt++
	id := tt.LastAttempt
	rec := tt.record(id)
	l := txn.NewLog(m.FS)
	if err := l.Publish([]txn.Record{rec}); err != nil {
		t.Fatal(err)
	}
	one := txn.Record{ID: id, Ops: rec.Ops[:1]}
	if err := l.Apply(&one); err != nil {
		t.Fatal(err)
	}
	tt.dirty = true
	// The accounts now disagree (torn mid state), but the record is
	// still published; the next commit must converge, not tear.
	if err := tt.Commit(m.FS); err != nil {
		t.Fatal(err)
	}
	v := tt.Verify(m.FS)
	cleanVerdict(t, v)
	if v.IDs[0] != tt.LastAcked {
		t.Fatalf("accounts at id %d, want acked id %d", v.IDs[0], tt.LastAcked)
	}
}

// Recover is the crash run's roll-forward step: a published, half-applied
// record must converge to all-new whether or not a second crash
// interrupts the roll-forward, and the interruption must be reported.
func TestTxnTestRecoverRestartsAfterSecondCrash(t *testing.T) {
	for _, crashAtStep := range []int{0, 1, 2} {
		m := newRio(t)
		tt := NewTxnTest(7, 3)
		if err := tt.Setup(m.FS); err != nil {
			t.Fatal(err)
		}
		tt.LastAttempt++
		rec := tt.record(tt.LastAttempt)
		l := txn.NewLog(m.FS)
		if err := l.Publish([]txn.Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := l.Apply(&txn.Record{ID: rec.ID, Ops: rec.Ops[:1]}); err != nil {
			t.Fatal(err)
		}
		if v := tt.Check(m.FS); v.Torn != 1 {
			t.Fatalf("half-applied record not seen as torn before recovery: %+v", v)
		}
		interrupted, quarantined, err := tt.Recover(m.FS, crashAtStep)
		if err != nil || quarantined != 0 {
			t.Fatalf("crashAtStep=%d: quarantined=%d err=%v", crashAtStep, quarantined, err)
		}
		if interrupted != (crashAtStep > 0) {
			t.Fatalf("crashAtStep=%d: interrupted=%v", crashAtStep, interrupted)
		}
		if v := tt.Check(m.FS); !v.Clean() || v.Checked != 3 {
			t.Fatalf("crashAtStep=%d: verdict after roll-forward: %+v", crashAtStep, v)
		}
	}
}

func TestTxnTestDeterministicContent(t *testing.T) {
	a := NewTxnTest(42, 3).acctContent(9, 1)
	b := NewTxnTest(42, 3).acctContent(9, 1)
	if string(a) != string(b) {
		t.Fatal("account content not a pure function of (seed, id, acct)")
	}
	c := NewTxnTest(43, 3).acctContent(9, 1)
	if string(a) == string(c) {
		t.Fatal("seed does not reach account content")
	}
}
