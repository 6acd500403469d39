package main

import (
	"encoding/json"
)

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics. The
// root BENCHMARK.json is this table printed by `-spec`; bench_test.go
// fails when the two drift apart.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
	// Exact marks a per-layer metric derived from simulator counters on a
	// serial replay: two runs at one seed must report the same bits.
	Exact bool
}

// Workload names. Later issues refer to these.
const (
	wlRW8K     = "serve-rw8k"
	wlMeta     = "serve-meta"
	wlSpill    = "serve-spill"
	wlRecover  = "recover-warm"
	wlCampaign = "campaign-interp"
)

var workloads = []workloadDef{
	{wlRW8K, "data path: 8 KB reads and overwrites on a working set that fits the cache, window 8; bypassed by serve-meta"},
	{wlMeta, "per-message cost: 512 B create/mv/stat/read/rm mailspool churn at depth 1; batching and 8 KB copies do nothing here"},
	{wlSpill, "working set 1.32x the data cache: miss, eviction, write-back, disk model; a hit-only fast path shows no change here"},
	{wlRecover, "Rio's thesis: write, crash, warm reboot, verify every acked byte; the serving fast paths do little here"},
	{wlCampaign, "Table 1 crash campaign on the interpreted kernel; bypasses server and wire, so a serving change must not move it"},
}

// runSeconds is BENCHMARK.json's run_seconds: the measured phase of one
// run. Warm-up (3 s) and set-up come on top.
const runSeconds = 20

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; "op" is the workload's unit of acknowledged work
// (a wire request on serve-*, a crash cycle on recover-warm, a crash
// run on campaign-interp). See README.md for the per-workload reading.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer comes from the traced run: the ladder's self times, exact
// counter deltas from the serial replay, unit times of each layer's
// exported functions on a scratch machine, and the server's queue
// counters from a short full-depth run. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	// Whole-request numbers that only the traced run can give.
	{Name: "depth1_us", Unit: "us", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim_us_per_op", Unit: "us", Better: "lower", Exact: true},
	{Name: "read_p50_us", Unit: "us", Better: "lower"},
	{Name: "write_p50_us", Unit: "us", Better: "lower"},
	// Demoted from end-to-end by the issue's rule for a metric that cannot
	// hold its bound: when the shared host slows they move 1.2 to 1.8
	// times as far as lat_p50_us does, past 25%, the widest bound allowed
	// (see README.md).
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "lat_tail_us", Unit: "us", Better: "lower"},
	{Name: "lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "gen_late_p99_us", Unit: "us", Better: "lower"},

	{Name: "wire.self_us", Unit: "us", Better: "lower"},
	{Name: "wire.req_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.req_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.resp_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.resp_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.overhead_bytes_per_op", Unit: "B", Better: "lower", Exact: true},

	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.tcp_self_us", Unit: "us", Better: "lower"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.avg_batch", Unit: "count", Better: "higher"},
	{Name: "server.avg_queue", Unit: "count", Better: "lower"},
	{Name: "server.yields_per_kop", Unit: "count", Better: "lower"},
	{Name: "server.writev_avg_frames", Unit: "count", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.retried", Unit: "count", Better: "lower"},
	{Name: "server.shard_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.bystander_p99_us", Unit: "us", Better: "lower"},

	{Name: "fs.self_us", Unit: "us", Better: "lower"},
	{Name: "fs.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "fs.create_ns", Unit: "ns", Better: "lower"},
	{Name: "fs.unlink_ns", Unit: "ns", Better: "lower"},
	{Name: "fs.rename_ns", Unit: "ns", Better: "lower"},
	{Name: "fs.write8k_ns", Unit: "ns", Better: "lower"},
	{Name: "fs.read8k_ns", Unit: "ns", Better: "lower"},
	{Name: "fs.allocs_per_create", Unit: "count", Better: "lower"},
	{Name: "fs.alloc_bytes_per_create", Unit: "B", Better: "lower"},
	{Name: "fs.alloc_bytes_per_unlink", Unit: "B", Better: "lower"},
	{Name: "fs.syscalls_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "fs.dcache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "fs.meta_updates_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "fs.fsck_ms", Unit: "ms", Better: "lower"},

	{Name: "cache.data_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.meta_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.evictions_per_kop", Unit: "count", Better: "lower", Exact: true},
	{Name: "cache.writebacks_per_kop", Unit: "count", Better: "lower", Exact: true},
	{Name: "cache.shadow_writes_per_kop", Unit: "count", Better: "lower", Exact: true},
	{Name: "cache.write8k_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.read_direct8k_ns", Unit: "ns", Better: "lower"},

	{Name: "registry.mutate_ns", Unit: "ns", Better: "lower"},
	{Name: "registry.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "registry.parse_us_per_kentry", Unit: "us", Better: "lower"},
	{Name: "registry.live_entries", Unit: "count", Better: "lower", Exact: true},

	{Name: "kernel.bcopy8k_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.cksum8k_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.write_block8k_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.steps_per_op", Unit: "count", Better: "lower", Exact: true},

	{Name: "kvm.steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "kvm.ns_per_step", Unit: "ns", Better: "lower"},

	{Name: "mmu.prot_toggles_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "mmu.set_protection_ns", Unit: "ns", Better: "lower"},
	{Name: "mmu.translate_ns", Unit: "ns", Better: "lower"},
	{Name: "mmu.tlb_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "mmu.traps", Unit: "count", Better: "lower", Exact: true},

	{Name: "disk.reads_per_kop", Unit: "count", Better: "lower", Exact: true},
	{Name: "disk.writes_per_kop", Unit: "count", Better: "lower", Exact: true},
	{Name: "disk.bytes_written_per_user_byte", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "disk.busy_sim_us_per_op", Unit: "us", Better: "lower", Exact: true},

	{Name: "warmreboot.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "warmreboot.warm_ms_d32", Unit: "ms", Better: "lower"},
	{Name: "warmreboot.us_per_dirty_page", Unit: "us", Better: "lower"},
	{Name: "warmreboot.down_ms", Unit: "ms", Better: "lower"},
	{Name: "warmreboot.sim_ms", Unit: "ms", Better: "lower"},
	{Name: "warmreboot.entries", Unit: "count", Better: "lower"},
	{Name: "warmreboot.data_restored", Unit: "count", Better: "lower"},
	{Name: "warmreboot.checksum_mismatches", Unit: "count", Better: "lower"},

	{Name: "txn.commit_us", Unit: "us", Better: "lower"},

	{Name: "crashtest.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "crashtest.discard_ratio", Unit: "ratio", Better: "lower"},
	{Name: "crashtest.speculative_ratio", Unit: "ratio", Better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to reported value.
type metricSet map[string]value

// fill returns every metric of defs, taking the value from vals and 0
// for a metric the run did not produce (a layer the workload bypasses).
func fill(defs []metricDef, vals map[string]float64) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(b, '\n')
}
