package rio

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"rio/internal/crashtest"
	"rio/internal/fault"
	"rio/internal/fs"
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

// TestCrashOnceRefusesUnknownSystem: a system outside Table 1's three
// columns is an error, not a run on some default machine.
func TestCrashOnceRefusesUnknownSystem(t *testing.T) {
	for _, sys := range []int{-1, 3, 5} {
		if res, err := CrashOnce(sys, FaultCopyOverrun, 77); err == nil {
			t.Errorf("system %d: ran (%+v), want an error", sys, res)
		}
	}
}

// TestConfigurationTable holds every name of a configuration or a fault
// to fs.Configs and fault.AllTypes: each row mounts its policy under its
// rio name, the crash columns and the Table 2 rows are rows of the table,
// each fault resolves from both spellings, and unknown names are refused.
func TestConfigurationTable(t *testing.T) {
	var names []Policy
	for i, c := range fs.Configs {
		names = append(names, Policy(c.Name))
		sys, err := New(Config{Policy: Policy(c.Name)})
		if err != nil {
			t.Fatalf("row %d %q: %v", i, c.Name, err)
		}
		m := sys.Machine()
		if m.Opt.Policy != c.Policy || m.Cache.Protect != c.Policy.Protect {
			t.Errorf("row %q mounts %+v (cache protection %v), want %+v",
				c.Name, m.Opt.Policy, m.Cache.Protect, c.Policy)
		}
	}
	consts := []Policy{PolicyMFS, PolicyUFSDelayed, PolicyAdvFS, PolicyUFS,
		PolicyUFSWTClose, PolicyUFSWTWrite, PolicyRioNoProtect, PolicyRio}
	if !slices.Equal(names, consts) || !slices.Equal(Policies(), consts) {
		t.Errorf("rows are named %v, Policies() is %v, want %v", names, Policies(), consts)
	}
	if sys, err := New(Config{}); err != nil || sys.Machine().Opt.Policy != fs.Configs[fs.RioProt].Policy {
		t.Errorf("the zero Config does not mount Rio with protection (%v)", err)
	}

	// Table 1's columns, in CrashOnce's numbering.
	for sys, want := range []Policy{PolicyUFSWTWrite, PolicyRioNoProtect, PolicyRio} {
		if got := crashtest.Systems[sys].Config(); got.Name != string(want) {
			t.Errorf("crash column %v mounts %q, want %q", crashtest.Systems[sys], got.Name, want)
		}
		if back, ok := crashtest.SystemByName(crashtest.Systems[sys].String()); !ok || int(back) != sys {
			t.Errorf("crash column %v resolves to %v, %v", crashtest.Systems[sys], back, ok)
		}
	}
	// Table 2's rows, as the checked-in report labels them.
	raw, err := os.ReadFile("scenario-reports/table2.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Cells []struct{ Label string }
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) < len(fs.Configs) {
		t.Fatalf("table2 report has %d cells", len(rep.Cells))
	}
	for i, c := range fs.Configs {
		if rep.Cells[i].Label != c.Label {
			t.Errorf("Table 2 row %d is %q, the table's %q", i, rep.Cells[i].Label, c.Label)
		}
	}

	consts13 := []FaultType{FaultKernelText, FaultKernelHeap, FaultKernelStack,
		FaultDestReg, FaultSrcReg, FaultDeleteBranch, FaultDeleteRandom,
		FaultInit, FaultPointer, FaultAlloc, FaultCopyOverrun, FaultOffByOne, FaultSync}
	if !slices.Equal(FaultTypes(), consts13) {
		t.Errorf("FaultTypes() = %v, want %v", FaultTypes(), consts13)
	}
	for i, ft := range fault.AllTypes {
		for _, name := range []string{ft.String(), string(FaultTypes()[i])} {
			if got, ok := fault.ByName(name); !ok || got != ft {
				t.Errorf("%q resolves to %v, %v; want %v", name, got, ok, ft)
			}
		}
	}

	if _, err := New(Config{Policy: "rio-prot"}); err == nil {
		t.Error("unknown policy name accepted")
	}
	if _, ok := crashtest.SystemByName("rio"); ok {
		t.Error("unknown system name accepted")
	}
	if _, ok := fault.ByName("kernel_text"); ok {
		t.Error("unknown fault name accepted")
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
	sum := res.Summary()
	if sum.Runs == 0 || sum.Crashes == 0 || sum.Workers != 4 {
		t.Fatalf("summary not populated: %+v", sum)
	}
	if sum.Runs != sum.Crashes+sum.Discarded+sum.Errors {
		t.Fatalf("summary accounting broken: %+v", sum)
	}
	if sum.Interrupted != 0 {
		t.Fatalf("second crash injected without disk faults: %+v", sum)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Cells []struct {
			System    string `json:"system"`
			Crashes   int    `json:"crashes"`
			Corrupted int    `json:"corrupted"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &out); err != nil || !strings.Contains(string(data), `"summary"`) {
		t.Fatalf("JSON export malformed (%v):\n%.200s", err, data)
	}
	crashes := make(map[string]int)
	for _, c := range out.Cells {
		if c.Corrupted > c.Crashes {
			t.Fatalf("impossible corruption count: %+v", c)
		}
		crashes[c.System] += c.Crashes
	}
	if len(crashes) != 3 {
		t.Fatalf("cells cover %d systems, want 3: %v", len(crashes), crashes)
	}
	for sys, n := range crashes {
		if n == 0 {
			t.Fatalf("%s: no crashes", sys)
		}
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
