package workload

import (
	"fmt"
	"testing"
	"time"

	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/txn"
)

// cleanVerdict requires a clean verdict over every account: with no
// corruption, no torn and no lost commit, every account decoded at one id
// in [LastAcked, LastAttempt].
func cleanVerdict(t *testing.T, tt *TxnTest, v Verdict) {
	t.Helper()
	if !v.Clean() || v.Checked != tt.Accounts {
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
	cleanVerdict(t, tt, tt.Check(m.FS))
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
	v := tt.Check(m.FS)
	if v.Torn != 1 {
		t.Fatalf("mixed ids not flagged torn: %+v", v)
	}
	if len(v.Corruptions) == 0 {
		t.Fatal("mixed state produced no corruption entry")
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
	v := tt.Check(m.FS)
	if v.Torn != 0 || v.Lost != 0 {
		t.Fatalf("a smashed frame must count as neither torn nor lost: %+v", v)
	}
	if len(v.Corruptions) != 1 || v.Corruptions[0].Path != tt.path(2) {
		t.Fatalf("corruptions = %v, want one undecodable account", v.Corruptions)
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
	v := tt.Check(m.FS)
	if v.Lost != 1 || v.Torn != 0 {
		t.Fatalf("lost ack not flagged: %+v", v)
	}
}

// halfApplied is a commit that published its record and applied it to
// account 0 only before it stopped: the accounts disagree (a torn mid
// state), but the record is still published.
func halfApplied(t *testing.T) (*machine.Machine, *TxnTest) {
	t.Helper()
	m, tt := newRio(t), NewTxnTest(7, 3)
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
		t.Fatalf("half-applied record not seen as torn: %+v", v)
	}
	return m, tt
}

// An interrupted commit that left a published record behind must be
// rolled forward by the next Commit, not published over: the mid state
// with only some accounts rewritten would otherwise become permanent.
func TestTxnTestDirtyLogRollsForwardBeforeNextCommit(t *testing.T) {
	m, tt := halfApplied(t)
	tt.dirty = true // the commit errored after publishing: the log is kept
	if err := tt.Commit(m.FS); err != nil {
		t.Fatal(err)
	}
	if tt.LastAttempt != tt.LastAcked {
		t.Fatalf("attempt %d past acked %d after a completed commit", tt.LastAttempt, tt.LastAcked)
	}
	cleanVerdict(t, tt, tt.Check(m.FS))
}

// Recover is the crash run's roll-forward step: a published, half-applied
// record must converge to all-new whether or not a second crash halts the
// roll-forward at one of its crash points.
func TestTxnTestRecoverRestartsAfterSecondCrash(t *testing.T) {
	var (
		m           *machine.Machine
		tt          *TxnTest
		quarantined int
	)
	start := time.Now()
	n, err := kernel.EachPoint(func() (*kernel.CrashPoint, func() error) {
		m, tt = halfApplied(t)
		return m.Kernel.CrashPoint, func() (err error) { quarantined, err = tt.Recover(m.FS); return err }
	}, func() string { return fmt.Sprintf("%+v, quarantined %d", tt.Check(m.FS), quarantined) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d crash points, %d µs per point", n, time.Since(start).Microseconds()/int64(n+1))
	if quarantined != 0 {
		t.Fatalf("roll-forward quarantined %d records", quarantined)
	}
	cleanVerdict(t, tt, tt.Check(m.FS))
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
