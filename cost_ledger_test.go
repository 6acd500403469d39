package rio

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"rio/internal/perf"
)

// TestCostLedger pins what an op costs in *simulated* terms: for each op
// below, on a seed-1 Rio machine, the deltas of System.Elapsed() and of
// the Stats() counters over n calls must equal testdata/cost-ledger.golden
// exactly. The simulated clock is the cost model (fs's CPU costs,
// disk.ServiceTime, the kernel's step counts); host-side speed-ups must
// not move it.
// After an intended change to the model, `make cost-ledger-golden`.
func TestCostLedger(t *testing.T) {
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sys, err := New(Config{Policy: PolicyRio, Seed: 1})
	check(err)
	// Fixture: a depth-6 chain with a 64-file leaf, and a warm 256 KB file.
	deep := ""
	for d := 0; d < 6; d++ {
		deep = fmt.Sprintf("%s/b%d", deep, d)
		check(sys.Mkdir(deep))
	}
	leaf, churn, moved := make([]string, 64), make([]string, 64), make([]string, 64)
	for i := range leaf {
		leaf[i] = fmt.Sprintf("%s/f%03d", deep, i)
		churn[i] = fmt.Sprintf("/churn/f%03d", i)
		moved[i] = fmt.Sprintf("/churn/g%03d", i)
		check(sys.WriteFile(leaf[i], []byte("x")))
	}
	block := make([]byte, 8192)
	rw, err := sys.Create("/rw")
	check(err)
	for i := 0; i < 32; i++ {
		_, err := rw.WriteAt(block, int64(i)*8192)
		check(err)
	}

	golden, err := os.ReadFile("testdata/cost-ledger.golden")
	check(err)
	want := map[string]string{} // op name -> its golden line
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, _, _ := strings.Cut(line, ":")
		want[name] = line
	}
	record := func(name string, n int, d time.Duration, before, after Stats) {
		got := fmt.Sprintf("%s: ops=%d elapsed_ns=%d syscalls=%d kernel_steps=%d disk_reads=%d disk_writes=%d",
			name, n, d.Nanoseconds(), after.Syscalls-before.Syscalls, after.KernelSteps-before.KernelSteps,
			after.DiskReads-before.DiskReads, after.DiskWrites-before.DiskWrites)
		if testing.Verbose() {
			fmt.Println(got) // `make cost-ledger-golden` keeps these lines
		}
		if got != want[name] {
			t.Errorf("simulated cost of %s moved:\n got  %s\n want %s", name, got, want[name])
		}
		delete(want, name)
	}
	measure := func(name string, n int, fn func(i int) error) {
		before, t0 := sys.Stats(), sys.Elapsed()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				t.Fatalf("%s %d: %v", name, i, err)
			}
		}
		record(name, n, sys.Elapsed()-t0, before, sys.Stats())
	}
	readRW := func(i int) error { _, err := rw.ReadAt(block, int64(i)*8192); return err }
	measure("mkdir", 1, func(int) error { return sys.Mkdir("/churn") })
	measure("create", 64, func(i int) error {
		f, err := sys.Create(churn[i])
		if err != nil {
			return err
		}
		return f.Close()
	})
	measure("rename", 64, func(i int) error { return sys.Rename(churn[i], moved[i]) })
	measure("unlink", 64, func(i int) error { return sys.Remove(moved[i]) })
	measure("stat-deep", 64, func(i int) error { _, err := sys.Stat(leaf[i]); return err })
	measure("read8k-hit", 32, readRW)
	measure("write8k-hit", 32, func(i int) error { _, err := rw.WriteAt(block, int64(i)*8192); return err })
	// A data cache's worth of another file pushes /rw out, so each read
	// below misses on a full cache and evicts a dirty page.
	full, err := sys.Create("/full")
	check(err)
	for i := 0; i < sys.Machine().Opt.DataCap; i++ {
		_, err := full.WriteAt(block, int64(i)*8192)
		check(err)
	}
	measure("read8k-miss", 32, readRW)

	// One warm reboot of a fresh machine with D dirty one-page files, over
	// crash → WarmReboot. The reboot mounts a new kernel and file system
	// whose clock, syscall and step counters start at zero, so those
	// columns are the rebooted system's totals; the disk outlives the
	// reboot, and its columns are deltas.
	for _, dirty := range []int{32, 512} {
		ws, err := New(Config{Policy: PolicyRio, Seed: 1})
		check(err)
		for i := 0; i < dirty; i++ {
			check(ws.WriteFile(fmt.Sprintf("/k%04d", i), block))
		}
		ws.Crash("cost ledger")
		before := ws.Stats()
		rep, err := ws.WarmReboot()
		check(err)
		if rep.DataRestored != dirty {
			t.Fatalf("warm reboot of %d dirty files restored %d pages", dirty, rep.DataRestored)
		}
		before.Syscalls, before.KernelSteps = 0, 0
		record(fmt.Sprintf("warm-reboot-d%d", dirty), 1, ws.Elapsed(), before, ws.Stats())
	}

	// Table 2 at BenchmarkTable2Perf's reduced scale: one row per
	// configuration, then the two overhead pairs (protection's is the two
	// Rio rows' cp+rm). Only the simulated times are pinned; each workload
	// runs on a fresh machine.
	pin := func(name, cols string) {
		got := fmt.Sprintf("%s: ops=1 %s", name, cols)
		if testing.Verbose() {
			fmt.Println(got)
		}
		if got != want[name] {
			t.Errorf("simulated Table 2 time of %s moved:\n got  %s\n want %s", name, got, want[name])
		}
		delete(want, name)
	}
	cfg := perf.DefaultConfig()
	cfg.CpRm.TreeBytes = 1 << 20
	cfg.Sdet.OpsPerScript = 60
	cfg.Andrew.TreeBytes = 200 << 10
	rows, err := cfg.RunTable2()
	check(err)
	for _, r := range rows {
		slug := strings.Trim(strings.Map(func(c rune) rune {
			if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
				return c
			}
			return '-'
		}, strings.ToLower(r.Spec.Label)), "-")
		for strings.Contains(slug, "--") {
			slug = strings.ReplaceAll(slug, "--", "-")
		}
		pin("table2-"+slug, fmt.Sprintf("cp_ns=%d rm_ns=%d sdet_ns=%d andrew_ns=%d",
			r.CpRmCp, r.CpRmRm, r.Sdet, r.Andrew))
	}
	r := perf.ComputeRatios(rows)
	pin("table2-protection-overhead", fmt.Sprintf("without_ns=%d with_ns=%d", r.CpRmNoProt, r.CpRmProt))
	tlb, patched, err := cfg.CodePatchingOverhead()
	check(err)
	pin("table2-code-patching", fmt.Sprintf("tlb_ns=%d patched_ns=%d", tlb, patched))

	for name := range want {
		t.Errorf("testdata/cost-ledger.golden has a row this test does not measure: %s", name)
	}
}
