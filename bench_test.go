// Benchmarks regenerating the paper's evaluation. One benchmark per
// experiment (see DESIGN.md's experiment index):
//
//	BenchmarkTable1Campaign    — Table 1 (crash tests; reports corruption %)
//	BenchmarkTable2Perf        — Table 2 (reports simulated seconds + speedups)
//	BenchmarkProtectionOverhead— in-text §4: protection is essentially free
//	BenchmarkCodePatching      — in-text §2.1: software checks cost 20-50%
//	BenchmarkWarmReboot        — reboot-path cost (registry scan + restore)
//	BenchmarkRioWrite / BenchmarkWriteThroughWrite — the microscopic view of
//	  the Table 2 gap: one 8 KB durable write on each system
//	BenchmarkKVMInterpreter    — substrate speed (interpreted kernel MIPS)
//
// Benchmarks report simulated metrics via b.ReportMetric; wall-clock ns/op
// measures the simulator itself.
package rio

import (
	"fmt"
	"runtime"
	"testing"

	"rio/internal/crashtest"
	"rio/internal/fault"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/perf"
	"rio/internal/registry"
	"rio/internal/sim"

	internalfs "rio/internal/fs"
)

// BenchmarkTable1Campaign runs a reduced Table 1 campaign per iteration
// and reports corruption rates for the three systems (percent of crashing
// runs with corrupted file data). Paper: disk 1.1%, Rio w/o protection
// 1.5%, Rio w/ protection 0.6%.
func BenchmarkTable1Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := crashtest.DefaultCampaignConfig(uint64(1996 + i))
		cfg.RunsPerCell = 3 // full 50-run campaign lives in cmd/riocrash
		rep, err := crashtest.RunCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for s, name := range map[crashtest.System]string{
			crashtest.DiskWT:    "disk_corrupt_pct",
			crashtest.RioNoProt: "rio_noprot_corrupt_pct",
			crashtest.RioProt:   "rio_prot_corrupt_pct",
		} {
			crashes, corrupted := rep.Totals(s)
			if crashes > 0 {
				b.ReportMetric(100*float64(corrupted)/float64(crashes), name)
			}
		}
	}
}

// BenchmarkTable1CampaignWorkers measures campaign throughput at one
// worker versus all cores. The scheduler fans (system, fault, attempt)
// runs across a worker pool with deterministic in-order merging, so the
// runs/s metric should scale near-linearly with cores while the rendered
// table stays byte-identical.
func BenchmarkTable1CampaignWorkers(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := crashtest.DefaultCampaignConfig(1996)
				cfg.RunsPerCell = 2
				cfg.Workers = w
				rep, err := crashtest.RunCampaign(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Summary.RunsPerSec, "runs/s")
				b.ReportMetric(float64(rep.Summary.SpeculativeRuns), "spec_runs")
			}
		})
	}
}

// BenchmarkTable1Cell benchmarks a single crash-test run (inject, crash,
// warm reboot, verify) on Rio with protection.
func BenchmarkTable1Cell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := crashtest.RunOne(nil, crashtest.RioProt, fault.CopyOverrun,
			crashtest.DefaultRunConfig(uint64(7000+i)))
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkTable2Perf regenerates Table 2 per iteration (reduced scale)
// and reports the headline simulated times and speedups.
func BenchmarkTable2Perf(b *testing.B) {
	cfg := perf.DefaultConfig()
	cfg.CpRm.TreeBytes = 1 << 20
	cfg.Sdet.OpsPerScript = 60
	cfg.Andrew.TreeBytes = 200 << 10
	for i := 0; i < b.N; i++ {
		rows, err := cfg.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		r := perf.ComputeRatios(rows)
		b.ReportMetric(r.VsWriteThroughWrite[0], "speedup_vs_wtwrite_cprm")
		b.ReportMetric(r.VsUFS[0], "speedup_vs_ufs_cprm")
		b.ReportMetric(r.VsDelayed[0], "speedup_vs_delayed_cprm")
		b.ReportMetric(r.VsMFS[0], "ratio_vs_mfs_cprm")
		for _, row := range rows {
			if row.Spec.Label == "Rio with protection" {
				b.ReportMetric(row.CpRm().Seconds(), "rio_cprm_sim_s")
			}
		}
	}
}

// BenchmarkTable2Row benchmarks a single configuration's full workload
// trio (Rio with protection).
func BenchmarkTable2Row(b *testing.B) {
	cfg := perf.DefaultConfig()
	cfg.CpRm.TreeBytes = 1 << 20
	cfg.Sdet.OpsPerScript = 60
	cfg.Andrew.TreeBytes = 200 << 10
	spec := perf.Rows()[7] // Rio with protection
	for i := 0; i < b.N; i++ {
		if _, err := cfg.RunRow(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtectionOverhead reports the simulated cost of Rio's
// protection on cp+rm (paper: ~0%, 24s vs 25s).
func BenchmarkProtectionOverhead(b *testing.B) {
	cfg := perf.DefaultConfig()
	cfg.CpRm.TreeBytes = 1 << 20
	for i := 0; i < b.N; i++ {
		without, with, err := cfg.ProtectionOverhead()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(float64(with)/float64(without)-1), "protection_overhead_pct")
	}
}

// BenchmarkCodePatching reports the simulated overhead of the
// software-check protection fallback (paper: 20-50%).
func BenchmarkCodePatching(b *testing.B) {
	cfg := perf.DefaultConfig()
	for i := 0; i < b.N; i++ {
		tlb, patched, err := cfg.CodePatchingOverhead()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(float64(patched)/float64(tlb)-1), "patching_overhead_pct")
	}
}

// BenchmarkWarmReboot measures the full crash + warm reboot + restore
// cycle with a populated file cache.
func BenchmarkWarmReboot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := New(Config{Policy: PolicyRio, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			if err := sys.WriteFile(fmt.Sprintf("/f%02d", j), make([]byte, 10000)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		sys.Crash("bench")
		rep, err := sys.WarmReboot()
		if err != nil {
			b.Fatal(err)
		}
		if rep.DataRestored == 0 {
			b.Fatal("nothing restored")
		}
	}
}

// benchDurableWrite measures one durable 8 KB write+commit on a policy.
func benchDurableWrite(b *testing.B, policy Policy) {
	sys, err := New(Config{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	f, err := sys.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	block := make([]byte, 8192)
	start := sys.Elapsed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(block, int64(i%64)*8192); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simPer := float64(sys.Elapsed()-start) / float64(b.N)
	b.ReportMetric(simPer/1000, "sim_us/write")
}

// BenchmarkRioWrite: durable write on Rio — microseconds of simulated
// time, no disk.
func BenchmarkRioWrite(b *testing.B) { benchDurableWrite(b, PolicyRio) }

// BenchmarkWriteThroughWrite: the same durable write on the synchronous
// mount — milliseconds of simulated disk time.
func BenchmarkWriteThroughWrite(b *testing.B) { benchDurableWrite(b, PolicyUFSWTWrite) }

// BenchmarkKVMInterpreter measures the kernel VM's raw interpretation
// speed (simulated MIPS of the substrate) on an interpreted 8 KB bcopy
// from the staging region into the heap. Both regions start on a virtual
// page that is 0 mod 64, as every region of the kernel's layout does, so
// for the first half of the copy source and destination share a slot of
// the direct-mapped TLB, each load evicts the store's entry and each store
// the load's, and half of the copy's 2050 accesses miss. ns/step here
// therefore includes the TLB-miss path (a page-table map lookup), as a
// copy between two regions does in a real crash run.
func BenchmarkKVMInterpreter(b *testing.B) {
	m := mem.New(kernel.MinMemory)
	u := mmu.New(m)
	k := kernel.New(m, u, kernel.BuildText())
	src := k.StageIn(make([]byte, 8192))
	before := k.VM.Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.BCopy(kernel.HeapBase+4096, src, 8192); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	steps := k.VM.Steps - before
	b.ReportMetric(float64(steps)/float64(b.N), "instr/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkRegistryUpdate measures the sanctioned registry write path
// (protection open, store, CRC, protection close).
func BenchmarkRegistryUpdate(b *testing.B) {
	pol := internalfs.DefaultPolicy(internalfs.PolicyRio)
	opt := machine.DefaultOptions(pol)
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		b.Fatal(err)
	}
	f, err := m.FS.Create("/f")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 8192), 0); err != nil {
		b.Fatal(err)
	}
	buf := m.Cache.LookupData(f.Ino, 0)
	if buf == nil {
		b.Fatal("no buffer")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := m.Reg.Mutate(buf.Slot, func(e *registry.Entry) {
			e.Cksum = uint64(i)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = sim.Second
}
