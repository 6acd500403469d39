# Tier-1 gate: `make check` runs the same commands CI should — build,
# vet, riolint, tests, the race gate (`make race`), the goldens and the
# scenario suite (scripts/check.sh is the single source of truth for the
# sequence; the race package list lives here, under `race`).

.PHONY: check build lint test race bench crash-recovery crash-recovery-golden cost-ledger-golden crash-txn crash-fleet scenarios loc

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
# real mini-campaigns across goroutines and is the slow one (~4 min);
# scenario runs its three plan kinds — the fleet crash run among them —
# on that scheduler;
# warmreboot, disk, ioretry, machine and kvm are what a campaign worker
# recycles and spends its time in; server and wire are where real
# goroutines share state (shard queues, metrics, close/drain, pooled
# request frames — TestTCPIngressOwnershipRace needs the detector); txn
# and workload ride the shard goroutines and the campaign workers; fleet
# runs replica locks, the in-process transport and the coordinator's tick
# concurrently; fs and cache own the reused image scratch and block pool
# every one of those goroutines' mounts writes through.
RACE_PKGS = ./internal/crashtest/... ./internal/scenario/... ./internal/warmreboot/... ./internal/disk/... \
	./internal/ioretry/... ./internal/machine/... ./internal/kvm/... \
	./internal/server/... ./internal/wire/... ./internal/txn/... \
	./internal/workload/... ./internal/fleet/... ./internal/fs/... ./internal/cache/...

race:
	go test -race -timeout 60m $(RACE_PKGS)

bench:
	go test -run '^$$' -bench . -benchtime 1x .

# Double-fault campaign smoke test: a small fixed-seed campaign with
# storage faults and second crashes enabled, diffed against the golden
# report in testdata (the campaign: summary line carries wall time and
# is filtered). Regenerate the golden with `make crash-recovery-golden`
# after an intentional behaviour change.
crash-recovery:
	go run ./cmd/riocrash -runs 2 -seed 1996 -workers 4 -disk-faults -quiet 2>/dev/null \
		| grep -v '^campaign:' | diff -u testdata/crash-recovery.golden -
	@echo "crash-recovery: output matches golden"

# Transactional campaign: the torn-commit hunt, full size (260 plans:
# 10 per fault type on both Rio systems, storage faults and second
# crashes in the warm reboot and the txn roll-forward). Every multi-file
# commit must be all-or-nothing after crash + recovery; exits nonzero if
# any transaction tears or any recovery aborts. `make scenarios` runs the
# 52-plan scenarios/txn-hunt.json.
crash-txn:
	go run ./cmd/rioscn scenarios/full/txn-hunt.json

# Fleet campaign: machine-loss survival, full size. 55 seed-derived plans
# (11 per fault kind: machine kill, primary partition, backup loss, OS
# crash, pairwise partition); exits nonzero if any acked write fails to
# read back byte-equal or a deposed primary serves a stale read. `make
# scenarios` runs the 10-plan scenarios/fleet-all-kinds.json.
crash-fleet:
	go run ./cmd/rioscn scenarios/full/fleet-all-kinds.json

# Scenario suite smoke: run every checked-in scenario (scenarios/*.json)
# through rioscn twice — once at 1 worker, once at 4 — and diff the
# canonical JSON reports byte-for-byte. Proves the tentpole guarantee
# (any campaign cell reproduces byte-identically at any worker count)
# on every spec the repo ships — the txn hunt and the five-kind fleet
# campaign among them — and exits nonzero if any scenario breaches its
# zero gates (lost acked writes, torn commits, stale reads, aborted
# recoveries). The -workers 4 reports land in scenario-reports/,
# uploaded as a CI artifact.
scenarios:
	rm -rf scenario-reports scenario-reports-w1
	go run ./cmd/rioscn -workers 1 -quiet -no-timing -json-dir scenario-reports-w1 scenarios >/dev/null
	go run ./cmd/rioscn -workers 4 -quiet -json-dir scenario-reports scenarios
	diff -r scenario-reports-w1 scenario-reports
	rm -rf scenario-reports-w1
	@echo "scenarios: reports byte-identical at -workers 1 and -workers 4"

crash-recovery-golden:
	mkdir -p testdata
	go run ./cmd/riocrash -runs 2 -seed 1996 -workers 4 -disk-faults -quiet 2>/dev/null \
		| grep -v '^campaign:' > testdata/crash-recovery.golden

# The simulated-cost golden TestCostLedger compares exactly: regenerate
# after an intended change to the cost model (fs.Costs, the disk model,
# the kernel routines' step counts), never after a host-side speed-up.
cost-ledger-golden:
	go test -run '^TestCostLedger$$' -v . | grep '^[a-z0-9-]*: ops=' > testdata/cost-ledger.golden

# The size every deletion PR reports: non-test Go lines outside bench/ and
# testdata/, per top-level directory (. is the root package) and in total.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' -e 'testdata/' | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; if (!sub("/.*", "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
