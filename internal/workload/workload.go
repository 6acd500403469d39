package workload

import (
	"rio/internal/fs"
	"rio/internal/txn"
)

// Workload is the common contract every scenario-drivable workload
// implements: Setup prepares its file tree, Step executes one operation
// of the stream (deterministic in the workload's seed), and Check
// classifies the recovered file system into a typed Verdict after a
// crash plus recovery. A workload must be crash-aware: Step may return
// mid-op when the kernel panics, and Check must mask exactly the one
// in-flight operation while convicting everything else.
type Workload interface {
	Name() string
	Setup(fsys *fs.FS) error
	Step(fsys *fs.FS) error
	Check(fsys *fs.FS) Verdict
}

// Verdict is the typed outcome of a workload's post-recovery check.
// The three counters separate the failure modes the campaigns gate on:
//
//   - Corruptions: state that is detectably wrong — frames that fail
//     their checksum, bytes that contradict the oracle, files that
//     should not exist. The Table 1 corruption count.
//   - Lost: acknowledged state that silently rolled back — an op the
//     workload completed before the crash whose effect is gone. Rio's
//     headline promise is that this stays zero.
//   - Torn: a multi-step operation visible half-applied — a rename
//     showing on both sides, accounts at mixed commit ids. The
//     transaction layer's promise is that this stays zero.
type Verdict struct {
	Checked     int          `json:"checked"`
	Lost        int          `json:"lost"`
	Torn        int          `json:"torn"`
	Corruptions []Corruption `json:"corruptions,omitempty"`
}

// Clean reports whether the verdict found nothing wrong.
func (v Verdict) Clean() bool {
	return v.Lost == 0 && v.Torn == 0 && len(v.Corruptions) == 0
}

// Merge folds another verdict into v.
func (v *Verdict) Merge(o Verdict) {
	v.Checked += o.Checked
	v.Lost += o.Lost
	v.Torn += o.Torn
	v.Corruptions = append(v.Corruptions, o.Corruptions...)
}

// --- MemTest as a Workload ---

// Name implements Workload.
func (mt *MemTest) Name() string { return "memtest" }

// Setup implements Workload; memTest builds its tree lazily in Step.
func (mt *MemTest) Setup(fsys *fs.FS) error { return nil }

// Check implements Workload by wrapping Verify: memTest's oracle diff
// reports detected corruption; a missing oracle file is corruption too
// (Verify already masks the in-flight op).
func (mt *MemTest) Check(fsys *fs.FS) Verdict {
	return Verdict{
		Checked:     len(mt.oracle) + len(mt.links),
		Corruptions: mt.Verify(fsys),
	}
}

// --- TxnTest as a Workload ---

// Name implements Workload.
func (tt *TxnTest) Name() string { return "txntest" }

// Step implements Workload: one full commit cycle.
func (tt *TxnTest) Step(fsys *fs.FS) error { return tt.Commit(fsys) }

// Recover rolls the transaction log forward after the machine's own
// recovery: committed records complete, torn tails are dropped (a
// published-but-unapplied record is pending state, not corruption).
// crashAtStep > 0 is the double-fault second crash: the roll-forward is
// interrupted at that step and restarted, and must converge (Apply is
// idempotent). quarantined counts records refused as deterministically
// unappliable; the workload only stages writes, so any refusal means
// storage damage. The crash run calls this before Check and scores what
// it reports — Check itself no longer touches the log.
func (tt *TxnTest) Recover(fsys *fs.FS, crashAtStep int) (interrupted bool, quarantined int, err error) {
	l := txn.NewLog(fsys)
	opts := txn.Options{
		CrashAtStep: crashAtStep,
		Crashed:     func() bool { return fsys.K.Crashed() != nil },
	}
	st, err := l.RecoverOpts(opts)
	if err == txn.ErrInterrupted {
		interrupted = true
		opts.CrashAtStep = 0
		st, err = l.RecoverOpts(opts)
	}
	return interrupted, st.Quarantined, err
}

// Check implements Workload: classify the accounts of a recovered (and
// rolled-forward, see Recover) tree. Mixed ids are a torn commit, a
// consistent-but-pre-ack id is a lost acked commit; whether either
// conviction stands is the crash run's recovery-clean rule to decide.
func (tt *TxnTest) Check(fsys *fs.FS) Verdict {
	tv := tt.Verify(fsys)
	v := Verdict{Checked: tt.Accounts, Corruptions: tv.Failures}
	if tv.Mixed {
		v.Torn++
	}
	if tv.LostAcked {
		v.Lost++
	}
	return v
}
