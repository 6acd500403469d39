#!/bin/sh
# Tier-1 gate: build, vet, riolint, full test suite, the race gate, the
# goldens and the scenario suite. Run via `make check` or directly.
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
# The race detector over every package that runs real goroutines or owns
# buffers they reuse — the list, and why each package is on it, is the
# Makefile's `race` target. It re-runs the real mini-campaigns under
# -race, so it is the slowest step (~4 min for crashtest alone).
make race
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
