package crashtest

import (
	"testing"

	"rio/internal/fault"
	"rio/internal/workload"
)

// txnTest is the transactional workload's factory: three accounts, and
// no write-through variant (transactions commit into the protected cache).
func txnTest(seed uint64, _ bool) workload.Workload {
	return workload.NewTxnTest(seed, 3)
}

// txnRunConfig scales the standard run to commits: one is about an order
// of magnitude more fs work than a memTest step.
func txnRunConfig(seed uint64, maxOps int) RunConfig {
	cfg := DefaultRunConfig(seed)
	cfg.WarmupOps = 11
	cfg.MaxOps = maxOps
	return cfg
}

func TestRunTxnOneRejectsDiskWT(t *testing.T) {
	if _, err := RunWorkloadOne(nil, DiskWT, fault.TextFlip, DefaultRunConfig(1), txnTest); err == nil {
		t.Fatal("DiskWT accepted; transactions need the protected cache")
	}
}

func TestRunTxnOneCleanWithoutCrash(t *testing.T) {
	res, err := RunWorkloadOne(nil, RioProt, fault.Alloc, txnRunConfig(12345, 8), txnTest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed && (res.Corrupted || res.Verdict.Torn > 0 || len(res.Verdict.Corruptions) > 0) {
		t.Fatalf("non-crashing run claims damage: %+v", res)
	}
}

func TestRunTxnOneDeterministic(t *testing.T) {
	cfg := txnRunConfig(777, 80)
	cfg.DiskFaults = true
	a, err := RunWorkloadOne(nil, RioNoProt, fault.TextFlip, cfg, txnTest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkloadOne(nil, RioNoProt, fault.TextFlip, cfg, txnTest)
	if err != nil {
		t.Fatal(err)
	}
	if a.Crashed != b.Crashed || a.Corrupted != b.Corrupted || a.Verdict.Torn != b.Verdict.Torn ||
		a.OpsToCrash != b.OpsToCrash || a.CrashKind != b.CrashKind ||
		a.RecoveryInterrupted != b.RecoveryInterrupted ||
		a.TxnRecoveryInterrupted != b.TxnRecoveryInterrupted ||
		a.Quarantined != b.Quarantined || a.Salvaged != b.Salvaged {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestRootClobberedAfterFsckIsVolumeLost pins one double-fault run whose
// storage faults leave the root inode a non-directory after fsck passed:
// the volume mounts, nothing in it is reachable, and the txn roll-forward
// cannot read its log. That is a lost volume — the run is corrupted — not
// an aborted recovery.
func TestRootClobberedAfterFsckIsVolumeLost(t *testing.T) {
	cfg := txnRunConfig(RunSeed(110, RioProt, fault.HeapFlip, 1), 120)
	cfg.DiskFaults = true
	res, err := RunWorkloadOne(nil, RioProt, fault.HeapFlip, cfg, txnTest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed || !res.VolumeLost || res.RecoveryAborted || !res.Corrupted {
		t.Fatalf("want a crashed, corrupted run with its volume lost and no abort: %+v", res)
	}
}
