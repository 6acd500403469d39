#!/bin/sh
# Tier-1 gate: build, vet, full test suite, and the race detector over the
# concurrent campaign scheduler. Run via `make check` or directly.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# riolint enforces the invariants vet can't see: deterministic iteration,
# no host clock/randomness in sim packages, paired protection windows,
# sim.Mix-only seed derivation, pooled-buffer aliasing windows, the
# fleet's exec→persist→replicate→ack ordering, and bounds-checked wire
# decodes. A finding fails the gate; fix it or suppress with a reasoned
# //riolint: comment (see DESIGN.md). The -json report (findings plus
# per-analyzer wall time) lands in riolint.json, uploaded as a CI
# artifact; on failure the findings are echoed to the log.
go run ./cmd/riolint -json ./... > riolint.json || { cat riolint.json; exit 1; }
go test ./...
# The campaign scheduler fans runs across goroutines; guard it with the
# race detector (this re-runs the real mini-campaigns under -race, so it
# is the slowest step — add -short here if a quick pre-commit loop is
# needed; the scheduler concurrency tests still run in short mode).
go test -race -timeout 60m ./internal/crashtest/...
# The recovery path (warm reboot restart protocol, disk fault plans,
# retrying I/O) is what the double-fault campaign leans on; race-check it
# too — these packages are fast even under the detector. The machine
# storage that campaign workers recycle from run to run, and the
# interpreter loop every one of those runs spends its time in, ride along.
go test -race -timeout 10m ./internal/warmreboot/... ./internal/disk/... ./internal/ioretry/... ./internal/machine/... ./internal/kvm/...
# The serving layer is the one place real goroutines share state (shard
# queues, metrics, close/drain, and pooled request frames handed from a
# connection's reader to a shard and back to the pool —
# TestTCPIngressOwnershipRace is the test that needs the detector); the
# wire codec fuzz seeds ride along.
# The transaction layer (commit records, publish/apply/erase, the
# TxnTest torn-state oracle) joins the race gate: its campaign fans out
# across workers and its server integration rides the shard goroutines.
go test -race -timeout 10m ./internal/server/... ./internal/wire/... ./internal/txn/... ./internal/workload/...
# The fleet layer replicates shards across nodes: replica locks, the
# in-process transport, and the coordinator's tick all run under real
# concurrency in the campaign, so it joins the race gate.
go test -race -timeout 10m ./internal/fleet/...
# Double-fault campaign golden: a small fixed-seed campaign with storage
# faults and second crashes, diffed against testdata/crash-recovery.golden
# (10 s). Every "simulated behaviour is byte-identical" argument in DESIGN
# §7b rests on this diff, so it is part of the gate.
make crash-recovery
# Scenario suite smoke: every checked-in scenario runs at -workers 1
# and -workers 4 and the canonical JSON reports must diff clean — the
# scenario engine's byte-identical-at-any-worker-count guarantee,
# enforced on real specs. The specs include the torn-commit hunt
# (txn-hunt: every fault type on both Rio systems, storage faults and
# second crashes in the warm reboot and the txn roll-forward) and the
# fleet campaign (fleet-all-kinds: two plans of each fault kind,
# including the pairwise partition that probes for stale reads from a
# deposed primary). rioscn exits nonzero if any scenario loses an acked
# write, tears a commit, serves a stale read, or aborts a recovery. The
# -workers 4 reports land in scenario-reports/, uploaded as a CI artifact.
make scenarios
# Server smoke benchmark: rioload against riod's in-process transport,
# with a 1-shard baseline — fails if the run errors. The report lands in
# the untracked bench-reports/ (uploaded as a CI artifact), not over the
# tracked BENCH_server.json: a gate run leaves `git status` clean, and
# the snapshots change only when someone runs the bare make target.
make serve-bench SERVE_BENCH_OUT=bench-reports/BENCH_server.json
# Core-op microbenchmarks: riobench against one simulated machine,
# compared to the checked-in BENCH_core.json snapshot — fails if the run
# errors; the report is uploaded as a CI artifact.
make bench-core BENCH_CORE_OUT=bench-reports/BENCH_core.json
