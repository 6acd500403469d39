// Benchmarks regenerating the paper's evaluation. One benchmark per
// experiment (see DESIGN.md's experiment index):
//
//	BenchmarkTable1Campaign    — Table 1 (crash tests; reports corruption %)
//	BenchmarkTable2Perf        — Table 2 (reports simulated seconds + speedups)
//	BenchmarkProtectionOverhead— in-text §4: protection is essentially free
//	BenchmarkCodePatching      — in-text §2.1: software checks cost 20-50%
//	BenchmarkRioWrite / BenchmarkWriteThroughWrite — the microscopic view of
//	  the Table 2 gap: one 8 KB durable write on each system
//
// Benchmarks report simulated metrics via b.ReportMetric. What the
// simulator itself costs on the host is bench/'s to measure.
package rio

import (
	"testing"

	"rio/internal/crashtest"
	"rio/internal/perf"
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
