# Tier-1 gate: `make check` runs the same commands CI should — build,
# vet, riolint, tests, the race gate (`make race`), the goldens and the
# scenario suite (scripts/check.sh is the single source of truth for the
# sequence; the race package list lives here, under `race`).

.PHONY: check build lint test race bench crash-recovery crash-recovery-golden cost-ledger-golden crash-table1 crash-txn crash-fleet scenarios scenarios-golden corpus corpus-golden loc

check:
	sh scripts/check.sh

build:
	go build ./...

# riolint: the repo's own static-analysis suite (internal/lint) — enforces
# the determinism and protection-discipline invariants the compiler can't
# see. Clean tree is a tier-1 gate; see DESIGN.md "Enforced invariants".
lint:
	go run ./cmd/riolint ./...

test:
	go test ./...

# The race gate: the one list of packages that run under the detector
# (scripts/check.sh calls this target). crashtest's scheduler fans the
# real mini-campaigns across goroutines and is the slow one (~3 min);
# scenario runs its crash, server and fleet kinds on it — the crash kind
# as a crashtest campaign, the fleet crash run among the others (the perf
# kind is simulated time on one goroutine);
# warmreboot, disk, mem, mmu, ioretry, machine and kvm are what a campaign
# worker recycles and spends its time in (mem and mmu hold the per-run
# stored and scrambled frame state on each worker's Storage); server and
# wire are where real goroutines share state (shard queues, metrics,
# close/drain, pooled request frames — TestTCPIngressOwnershipRace needs
# the detector); txn and workload ride the shard goroutines and the
# campaign workers; fleet
# runs replica locks, the in-process transport and the coordinator's tick
# concurrently; fs and cache own the reused image scratch and block pool
# every one of those goroutines' mounts writes through; rioload kills and
# revives a fleet machine under live load while the coordinator ticks on
# its own goroutine, with nothing serializing the fault against a round.
RACE_PKGS = ./internal/crashtest/... ./internal/scenario/... ./internal/warmreboot/... ./internal/disk/... \
	./internal/mem/... ./internal/mmu/... ./internal/ioretry/... \
	./internal/machine/... ./internal/kvm/... \
	./internal/server/... ./internal/wire/... ./internal/txn/... \
	./internal/workload/... ./internal/fleet/... ./internal/fs/... ./internal/cache/... \
	./cmd/rioload/...

race:
	go test -race -timeout 60m $(RACE_PKGS)

bench:
	go test -run '^$$' -bench . -benchtime 1x .

# Double-fault campaign smoke test: a small fixed-seed Table 1 campaign
# with storage faults and second crashes enabled (the spec
# testdata/crash-recovery.json), its rioscn output diffed against the
# golden report in testdata (-no-timing leaves out the wall-time lines).
# Regenerate the golden with `make crash-recovery-golden` after an
# intentional behaviour change.
CRASH_RECOVERY = go run ./cmd/rioscn -workers 4 -quiet -no-timing testdata/crash-recovery.json

crash-recovery:
	$(CRASH_RECOVERY) | diff -u testdata/crash-recovery.golden -
	@echo "crash-recovery: output matches golden"

# Table 1, full size: 50 crashing runs per (fault type, system) cell,
# 39 cells, seed 1996 (≈ 1½ min on one core). The double-fault table is
# the same campaign with storage faults and second crashes:
# `go run ./cmd/rioscn scenarios/full/table1-diskfaults.json`.
crash-table1:
	go run ./cmd/rioscn scenarios/full/table1.json

# Transactional campaign: the torn-commit hunt, full size (10 crashing
# runs per fault type on both Rio systems, storage faults and second
# crashes in the warm reboot and the txn roll-forward). Every multi-file
# commit must be all-or-nothing after crash + recovery; exits nonzero if
# any transaction tears or any recovery aborts. `make scenarios` runs
# scenarios/txn-hunt.json, 2 crashing runs per cell.
crash-txn:
	go run ./cmd/rioscn scenarios/full/txn-hunt.json

# Fleet campaign: machine-loss survival, full size. 77 seed-derived plans
# (11 per fault kind: machine kill, primary partition, backup loss, OS
# crash, pairwise partition, kill after a healed primary-backup cut,
# revival empty inside the failure detector's window); exits nonzero if
# any acked write fails to read back byte-equal or a deposed primary
# serves a stale read. `make scenarios` runs the 14-plan
# scenarios/fleet-all-kinds.json.
crash-fleet:
	go run ./cmd/rioscn scenarios/full/fleet-all-kinds.json

# Scenario suite: run every checked-in scenario (scenarios/*.json)
# through rioscn twice — once at 1 worker, once at 4 — and diff both sets
# of canonical JSON reports byte-for-byte against the golden copies
# checked in under scenario-reports/. Proves the engine's guarantee (any
# campaign cell reproduces byte-identically at any worker count) on every
# spec the repo ships — the txn hunt, the seven-kind fleet campaign and
# Table 2 (scenarios/table2.json, the perf kind) among them — pins every
# report, and exits nonzero if any scenario breaches its zero gates (lost
# acked writes, torn commits, stale reads, aborted recoveries). A failing
# run leaves its reports in scenario-reports-w1/ and -w4/. Regenerate the
# golden with `make scenarios-golden` after an intentional change.
scenarios:
	rm -rf scenario-reports-w1 scenario-reports-w4
	go run ./cmd/rioscn -workers 1 -quiet -no-timing -json-dir scenario-reports-w1 scenarios >/dev/null
	go run ./cmd/rioscn -workers 4 -quiet -json-dir scenario-reports-w4 scenarios
	diff -r scenario-reports scenario-reports-w1
	diff -r scenario-reports scenario-reports-w4
	rm -rf scenario-reports-w1 scenario-reports-w4
	@echo "scenarios: reports match scenario-reports/ at -workers 1 and -workers 4"

scenarios-golden:
	rm -rf scenario-reports
	go run ./cmd/rioscn -workers 4 -quiet -no-timing -json-dir scenario-reports scenarios >/dev/null

crash-recovery-golden:
	$(CRASH_RECOVERY) > testdata/crash-recovery.golden

# The disk-fault corpus: twelve big campaigns, one per workload with and
# without storage faults (scenarios/full/corpus, seed 4242, 4 runs a cell,
# ~25 s on two CPUs). Five of them breach a zero gate today (CHANGES.md
# FOUND lines), so rioscn's exit 1 is accepted; exit 2 is not, and neither
# is any difference of the reports or the stdout from the golden copies
# in testdata/corpus-reports/ (kept out of scenario-reports/, which `make
# scenarios` diffs whole). A mismatch leaves the fresh copies in
# corpus-reports-fresh/. `make corpus-golden` rewrites the golden after
# an intended change. $(call corpus-run,DIR) writes the reports and the
# stdout into DIR.
corpus-run = rm -rf $(1) && mkdir $(1) && go build -o .corpus-rioscn ./cmd/rioscn && \
	{ ./.corpus-rioscn -workers 2 -quiet -no-timing -json-dir $(1) scenarios/full/corpus \
		> $(1)/stdout.txt || [ $$? -eq 1 ]; }; s=$$?; rm -f .corpus-rioscn; exit $$s

corpus:
	$(call corpus-run,corpus-reports-fresh)
	diff -r testdata/corpus-reports corpus-reports-fresh
	rm -rf corpus-reports-fresh
	@echo "corpus: reports match testdata/corpus-reports/"

corpus-golden:
	$(call corpus-run,testdata/corpus-reports)

# The simulated-cost golden TestCostLedger compares exactly: regenerate
# after an intended change to the cost model (fs's CPU costs,
# disk.ServiceTime, the kernel routines' step counts), never after a
# host-side speed-up.
cost-ledger-golden:
	go test -run '^TestCostLedger$$' -v . | grep '^[a-z0-9-]*: ops=' > testdata/cost-ledger.golden

# The size every deletion PR reports: non-test Go lines outside bench/ and
# testdata/, per top-level directory (. is the root package) and in total.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' -e 'testdata/' | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; if (!sub("/.*", "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
