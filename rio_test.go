package rio

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := New(Config{Policy: PolicyRio})
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Stats().DiskBytesWritten // mkfs formatting counts as writes
	data := []byte("safe the instant the write returns")
	if err := sys.WriteFile("/notes", data); err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats(); st.DiskBytesWritten != base {
		t.Fatalf("Rio wrote %d bytes to disk", st.DiskBytesWritten-base)
	}
	sys.Crash("power button")
	if ok, _ := sys.Crashed(); !ok {
		t.Fatal("not crashed")
	}
	rep, err := sys.WarmReboot()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataRestored == 0 || !rep.FsckClean {
		t.Fatalf("reboot report: %+v", rep)
	}
	got, err := sys.ReadFile("/notes")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost: %q, %v", got, err)
	}
}

func TestColdRebootLosesRioData(t *testing.T) {
	sys, _ := New(Config{Policy: PolicyRio})
	sys.WriteFile("/gone", []byte("x"))
	sys.Crash("test")
	if err := sys.ColdReboot(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ReadFile("/gone"); !IsNotExist(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteThroughSurvivesColdReboot(t *testing.T) {
	sys, _ := New(Config{Policy: PolicyUFSWTWrite})
	sys.WriteFile("/kept", []byte("on disk"))
	sys.Crash("test")
	if err := sys.ColdReboot(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadFile("/kept")
	if err != nil || string(got) != "on disk" {
		t.Fatalf("%q, %v", got, err)
	}
}

func TestAllPoliciesBoot(t *testing.T) {
	for _, p := range Policies() {
		sys, err := New(Config{Policy: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := sys.WriteFile("/f", []byte("hello")); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got, err := sys.ReadFile("/f")
		if err != nil || string(got) != "hello" {
			t.Fatalf("%v: %q %v", p, got, err)
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := New(Config{Policy: "zfs"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestFileHandleAPI(t *testing.T) {
	sys, _ := New(Config{})
	f, err := sys.Create("/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("X"), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil || sz != 3 {
		t.Fatalf("size %d %v", sz, err)
	}
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "aXc" {
		t.Fatalf("got %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and stream-read.
	g, err := sys.Open("/file")
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("read %d %v", n, err)
	}
	g.Close()
}

func TestDirectoryAPI(t *testing.T) {
	sys, _ := New(Config{})
	if err := sys.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	sys.WriteFile("/d/a", []byte("1"))
	sys.WriteFile("/d/b", []byte("22"))
	ents, err := sys.ReadDir("/d")
	if err != nil || len(ents) != 2 {
		t.Fatalf("%v %v", ents, err)
	}
	if err := sys.Rename("/d/a", "/d/c"); err != nil {
		t.Fatal(err)
	}
	st, err := sys.Stat("/d/c")
	if err != nil || st.Size != 1 {
		t.Fatalf("%+v %v", st, err)
	}
	if err := sys.Remove("/d/b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Remove("/d/c"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Remove("/d"); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileReplaces(t *testing.T) {
	sys, _ := New(Config{})
	sys.WriteFile("/f", []byte("old content longer"))
	sys.WriteFile("/f", []byte("new"))
	got, _ := sys.ReadFile("/f")
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
}

func TestStatsProgress(t *testing.T) {
	sys, _ := New(Config{Policy: PolicyUFSWTWrite})
	before := sys.Stats()
	sys.WriteFile("/f", make([]byte, 20000))
	after := sys.Stats()
	if after.Syscalls <= before.Syscalls {
		t.Fatal("syscalls did not advance")
	}
	if after.DiskWrites <= before.DiskWrites {
		t.Fatal("write-through did no disk writes")
	}
	if after.SimulatedSeconds <= before.SimulatedSeconds {
		t.Fatal("simulated time did not advance")
	}
	if sys.Elapsed() <= 0 {
		t.Fatal("elapsed not positive")
	}
}

func TestInjectFaultRequiresInterpreted(t *testing.T) {
	sys, _ := New(Config{}) // fast path
	if err := sys.InjectFault(FaultCopyOverrun); err == nil {
		t.Fatal("fault injection allowed on fast path")
	}
}

func TestInjectFaultEndToEnd(t *testing.T) {
	// A protected Rio machine with a copy-overrun fault armed must
	// eventually halt via the protection trap; after warm reboot all
	// previously written data is intact.
	sys, err := New(Config{Policy: PolicyRio, Interpreted: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sys.WriteFile("/precious", []byte("do not lose"))
	if err := sys.InjectFault(FaultCopyOverrun); err != nil {
		t.Fatal(err)
	}
	crashed := false
	for i := 0; i < 3000 && !crashed; i++ {
		sys.WriteFile("/churn", bytes.Repeat([]byte{byte(i)}, 4000))
		crashed, _ = sys.Crashed()
	}
	if !crashed {
		t.Skip("fault did not trigger within budget (seed-dependent)")
	}
	sys.Crash("finish") // completes crash I/O
	rep, err := sys.WarmReboot()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumMismatches != 0 {
		t.Fatalf("protection let corruption through: %+v", rep)
	}
	got, err := sys.ReadFile("/precious")
	if err != nil || string(got) != "do not lose" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestUnknownFaultRejected(t *testing.T) {
	sys, _ := New(Config{Interpreted: true})
	if err := sys.InjectFault("cosmic-ray"); err == nil {
		t.Fatal("unknown fault accepted")
	}
	if _, err := CrashOnce(1, "cosmic-ray", 1); err == nil {
		t.Fatal("unknown fault accepted by CrashOnce")
	}
}

func TestCrashOnce(t *testing.T) {
	res, err := CrashOnce(2, FaultCopyOverrun, 77)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed && res.CrashKind == "" {
		t.Fatal("crashed without a kind")
	}
}

func TestFaultTypesComplete(t *testing.T) {
	if len(FaultTypes()) != 13 {
		t.Fatalf("%d fault types, want 13", len(FaultTypes()))
	}
	for _, ft := range FaultTypes() {
		if _, ok := faultMap[ft]; !ok {
			t.Fatalf("fault %q unmapped", ft)
		}
	}
}

func TestMiniCrashCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	res, err := RunCrashCampaign(CampaignOptions{RunsPerCell: 1, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "Total") {
		t.Fatalf("table:\n%s", tbl)
	}
	for _, sysIdx := range []int{SystemDiskWT, SystemRioNoProt, SystemRioProt} {
		crashes, corrupted := res.Totals(sysIdx)
		if crashes == 0 {
			t.Fatalf("system %d: no crashes", sysIdx)
		}
		if corrupted > crashes {
			t.Fatal("impossible corruption count")
		}
	}
	_ = res.ProtectionInvocations()
	_ = res.MTTFYears(SystemDiskWT)
	// Without DiskFaults the recovery columns render but stay zero.
	if rt := res.RecoveryTable(); !strings.Contains(rt, "volume-lost") {
		t.Fatalf("recovery table malformed:\n%s", rt)
	}
	if sum := res.Summary(); sum.Interrupted != 0 {
		t.Fatalf("second crash injected without DiskFaults: %+v", sum)
	}
	if res.CrashKindBreakdown(SystemRioProt) == "" {
		t.Fatal("empty breakdown")
	}
	sum := res.Summary()
	if sum.Runs == 0 || sum.Crashes == 0 || sum.Workers != 4 {
		t.Fatalf("summary not populated: %+v", sum)
	}
	if sum.Runs != sum.Crashes+sum.Discarded+sum.Errors {
		t.Fatalf("summary accounting broken: %+v", sum)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cells"`) || !strings.Contains(string(data), `"summary"`) {
		t.Fatalf("JSON export malformed:\n%.200s", data)
	}
}

func TestPerfTableSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("perf table is slow")
	}
	res, err := RunPerfTable(PerfOptions{Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	sp := res.Speedups()
	if sp.VsWriteThroughWrite[0] < 2 {
		t.Fatalf("write-through speedup %.1f implausibly low", sp.VsWriteThroughWrite[0])
	}
	if !strings.Contains(res.Table(), "Rio with protection") {
		t.Fatal("table malformed")
	}
}

func TestProtectionOverheadAPI(t *testing.T) {
	w, p, err := ProtectionOverhead(PerfOptions{Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if p < w || float64(p) > 1.1*float64(w) {
		t.Fatalf("overhead out of band: %v -> %v", w, p)
	}
}

func TestSymlinkPublicAPI(t *testing.T) {
	sys, _ := New(Config{})
	sys.WriteFile("/target", []byte("linked data"))
	if err := sys.Symlink("/target", "/link"); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadFile("/link")
	if err != nil || string(got) != "linked data" {
		t.Fatalf("%q %v", got, err)
	}
	tgt, err := sys.Readlink("/link")
	if err != nil || tgt != "/target" {
		t.Fatalf("%q %v", tgt, err)
	}
	lst, err := sys.Lstat("/link")
	if err != nil || !lst.IsSymlink {
		t.Fatalf("%+v %v", lst, err)
	}
	st, err := sys.Stat("/link")
	if err != nil || st.IsSymlink {
		t.Fatalf("stat should follow: %+v %v", st, err)
	}
	ents, err := sys.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	marked := false
	for _, e := range ents {
		if e.Name == "link" && e.IsSymlink {
			marked = true
		}
	}
	if !marked {
		t.Fatal("readdir does not mark symlink")
	}
	if err := sys.Remove("/link"); err != nil {
		t.Fatal(err)
	}
}

func TestUPSPublicAPI(t *testing.T) {
	sys, _ := New(Config{Policy: PolicyRio})
	if err := sys.AttachUPS(); err != nil {
		t.Fatal(err)
	}
	sys.WriteFile("/survives-outage", []byte("battery powered"))
	battery, err := sys.PowerFail()
	if err != nil {
		t.Fatal(err)
	}
	if battery <= 0 {
		t.Fatal("no battery time")
	}
	rep, err := sys.RecoverFromUPS()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataRestored == 0 {
		t.Fatalf("nothing restored: %+v", rep)
	}
	got, err := sys.ReadFile("/survives-outage")
	if err != nil || string(got) != "battery powered" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestPowerFailWithoutUPS(t *testing.T) {
	sys, _ := New(Config{Policy: PolicyRio})
	sys.WriteFile("/f", []byte("x"))
	if _, err := sys.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RecoverFromUPS(); err == nil {
		t.Fatal("recover without UPS allowed")
	}
	if err := sys.ColdReboot(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ReadFile("/f"); !IsNotExist(err) {
		t.Fatalf("data survived without UPS: %v", err)
	}
}

// Remove removes the entry it names. It used to Stat — which follows a
// link — and then Rmdir or give up on the link itself, so a link to a
// directory ("fs: not a directory") and a dangling link ("no such file
// or directory") could not be removed at all.
func TestRemoveRemovesTheLinkNotItsTarget(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Mkdir("/full")
	sys.WriteFile("/full/f", []byte("kept"))
	sys.Mkdir("/empty")
	for _, lt := range [][2]string{{"/l-full", "/full"}, {"/l-empty", "/empty"}, {"/l-dangling", "/nowhere"}} {
		link, target := lt[0], lt[1]
		if err := sys.Symlink(target, link); err != nil {
			t.Fatal(err)
		}
		if err := sys.Remove(link); err != nil {
			t.Fatalf("remove %s -> %s: %v", link, target, err)
		}
		if _, err := sys.Lstat(link); !IsNotExist(err) {
			t.Fatalf("%s still there after Remove: %v", link, err)
		}
	}
	if got, err := sys.ReadFile("/full/f"); err != nil || string(got) != "kept" {
		t.Fatalf("the non-empty directory a link pointed at: %q %v", got, err)
	}
	if st, err := sys.Stat("/empty"); err != nil || !st.IsDir {
		t.Fatalf("the empty directory a link pointed at did not survive: %+v %v", st, err)
	}
	// Directories themselves: empty goes, non-empty is refused, gone is gone.
	if err := sys.Remove("/full"); err != ErrNotEmpty {
		t.Fatalf("remove of a non-empty directory: %v", err)
	}
	if err := sys.Remove("/empty"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Remove("/empty"); !IsNotExist(err) {
		t.Fatalf("second remove: %v", err)
	}
}
