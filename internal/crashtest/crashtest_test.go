package crashtest

import (
	"strings"
	"testing"

	"rio/internal/fault"
	"rio/internal/kernel"
)

func TestRunOneCleanWithoutCrash(t *testing.T) {
	// A fault type that rarely crashes quickly may return Crashed=false;
	// that path must be clean (no corruption claims, no error).
	cfg := DefaultRunConfig(12345)
	cfg.MaxOps = 20 // short window: off-by-one unlikely to trigger
	res, err := RunOne(nil, RioProt, fault.Alloc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed && res.OpsToCrash == 0 {
		t.Fatal("crashed with zero ops")
	}
	if !res.Crashed && (res.Corrupted || len(res.Verdict.Corruptions) > 0) {
		t.Fatal("non-crashing run claims corruption")
	}
}

func TestRunOneDeterministic(t *testing.T) {
	cfg := DefaultRunConfig(777)
	a, err := RunOne(nil, RioNoProt, fault.TextFlip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(nil, RioNoProt, fault.TextFlip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Crashed != b.Crashed || a.Corrupted != b.Corrupted ||
		a.CrashKind != b.CrashKind || a.OpsToCrash != b.OpsToCrash {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunOneAllSystemsOneFault(t *testing.T) {
	// One full run per system; each must either be discarded or complete
	// the crash-recover-verify cycle without harness errors.
	for _, sys := range Systems {
		for i := uint64(0); i < 4; i++ {
			res, err := RunOne(nil, sys, fault.DeleteRandom, DefaultRunConfig(9000+i))
			if err != nil {
				t.Fatalf("%v run %d: %v", sys, i, err)
			}
			_ = res
		}
	}
}

func TestProtectionTrapsRecorded(t *testing.T) {
	// Copy overrun under Rio protection reliably invokes the protection
	// mechanism in this kernel (every bcopy ends at a page boundary).
	invoked := false
	for i := uint64(0); i < 10 && !invoked; i++ {
		res, err := RunOne(nil, RioProt, fault.CopyOverrun, DefaultRunConfig(3000+i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashed && res.ProtectionInvoked {
			invoked = true
			if res.CrashKind != kernel.CrashProtection {
				t.Fatal("protection invocation with wrong crash kind")
			}
		}
	}
	if !invoked {
		t.Fatal("protection never invoked for copy overrun")
	}
}

// TestRunOneDoubleFaultNeverAborts is the acceptance criterion for the
// double-fault dimension: with storage faults injected during recovery
// and a second crash interrupting the warm reboot, every crashing run
// must end restored-or-quarantined — recovery never aborts half-way.
func TestRunOneDoubleFaultNeverAborts(t *testing.T) {
	crashed, interrupted := 0, 0
	for i := uint64(0); i < 10; i++ {
		cfg := DefaultRunConfig(4100 + i)
		cfg.DiskFaults = true
		cfg.MemTestBytes = 1 << 19
		res, err := RunOne(nil, RioProt, fault.TextFlip, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !res.Crashed {
			continue
		}
		crashed++
		if res.RecoveryAborted {
			t.Fatalf("run %d: recovery aborted: %v", i, res.Verdict.Corruptions)
		}
		if res.RecoveryInterrupted {
			interrupted++
		}
	}
	if crashed == 0 {
		t.Fatal("no run crashed; test is vacuous")
	}
	if interrupted == 0 {
		t.Fatal("no recovery was interrupted; second-crash injection inert")
	}
}

// TestRunOneDoubleFaultDeterministic: the recovery-path randomness (fault
// plan, second-crash step) derives purely from the run seed, so a
// double-fault run replays exactly.
func TestRunOneDoubleFaultDeterministic(t *testing.T) {
	cfg := DefaultRunConfig(777)
	cfg.DiskFaults = true
	cfg.MemTestBytes = 1 << 19
	a, err := RunOne(nil, RioNoProt, fault.TextFlip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(nil, RioNoProt, fault.TextFlip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Crashed != b.Crashed || a.Corrupted != b.Corrupted ||
		a.RecoveryInterrupted != b.RecoveryInterrupted ||
		a.Quarantined != b.Quarantined || a.Salvaged != b.Salvaged ||
		a.VolumeLost != b.VolumeLost {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestMiniCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	cfg := DefaultCampaignConfig(2026)
	cfg.RunsPerCell = 2
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range Systems {
		for ft, cell := range rep.Cells[sys] {
			if cell.Errors > 0 {
				t.Errorf("%v/%v: %d harness errors: %s", sys, ft, cell.Errors, cell.LastError)
			}
		}
	}
	tbl := rep.Table()
	if !strings.Contains(tbl, "Total") || !strings.Contains(tbl, "copy overrun") {
		t.Fatalf("table malformed:\n%s", tbl)
	}
	if bd := rep.CrashKindBreakdown(RioProt); bd == "" {
		t.Fatal("empty crash-kind breakdown")
	}
}

func TestMTTFYears(t *testing.T) {
	// Paper §3.3: disk 7/650 -> ~15 years, rio-noprot 10/650 -> ~11 years
	// at one crash every two months.
	if y := MTTFYears(7, 650); y < 13 || y > 18 {
		t.Fatalf("disk MTTF = %.1f years, want ~15", y)
	}
	if y := MTTFYears(10, 650); y < 9 || y > 13 {
		t.Fatalf("rio MTTF = %.1f years, want ~11", y)
	}
	if MTTFYears(0, 650) >= 0 {
		t.Fatal("zero corruptions should report unbounded MTTF")
	}
}

func TestSystemStrings(t *testing.T) {
	for _, s := range Systems {
		if s.String() == "" || strings.HasPrefix(s.String(), "System(") {
			t.Fatalf("bad name for system %d", int(s))
		}
	}
}

func TestStaticFilesDetectCorruption(t *testing.T) {
	cfg := DefaultRunConfig(55)
	m, err := buildMachine(nil, RioNoProt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := setupStatic(m); err != nil {
		t.Fatal(err)
	}
	if checkStatic(m) {
		t.Fatal("fresh static files flagged")
	}
	f, err := m.FS.Open(staticPath(1, true))
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xff}, 10)
	f.Close()
	if !checkStatic(m) {
		t.Fatal("static corruption missed")
	}
}
