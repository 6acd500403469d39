#!/bin/sh
# Tier-1 gate: build, gofmt, vet, riolint, full test suite, the race gate,
# the goldens, the scenario suite and the disk-fault corpus. Run via `make
# check` or directly.
set -eux

cd "$(dirname "$0")/.."

go build ./...
# Every Go file is gofmt-clean; the trace shows the ones that are not.
test -z "$(gofmt -l .)"
# The pairs script (alternating parent/change benchmark runs) parses.
sh -n scripts/pairs.sh
go vet ./...
# riolint enforces the invariants vet can't see: deterministic iteration,
# no host clock/randomness in sim packages, paired protection windows,
# sim.Mix-only seed derivation, pooled-buffer aliasing windows, and the
# fleet's exec→persist→replicate→ack ordering. Decode bounds are not
# linted: wire.Cursor enforces them and each decoder's hostile-input
# tests hold them. A finding fails the gate; fix it or suppress with a reasoned
# //riolint: comment (see DESIGN.md). The -json report (findings plus
# per-analyzer wall time) lands in riolint.json, uploaded as a CI
# artifact; on failure the findings are echoed to the log.
go run ./cmd/riolint -json ./... > riolint.json || { cat riolint.json; exit 1; }
go test ./...
# The race detector over every package that runs real goroutines or owns
# buffers they reuse — the list, and why each package is on it, is the
# Makefile's `race` target. It re-runs the real mini-campaigns under
# -race, so it is the slowest step (~3 min for crashtest alone).
make race
# Double-fault campaign golden: a small fixed-seed Table 1 campaign with
# storage faults and second crashes (the spec testdata/crash-recovery.json,
# run by rioscn), diffed against testdata/crash-recovery.golden (10 s).
# Every "simulated behaviour is byte-identical" argument in DESIGN §7b
# rests on this diff, so it is part of the gate.
make crash-recovery
# Scenario suite: every checked-in scenario runs at -workers 1 and
# -workers 4 and both sets of canonical JSON reports must match the
# golden copies in scenario-reports/ — the scenario engine's
# byte-identical-at-any-worker-count guarantee, enforced on real specs,
# and every report pinned. The specs include the torn-commit hunt
# (txn-hunt: every fault type on both Rio systems, storage faults and
# second crashes in the warm reboot and the txn roll-forward) and the
# fleet campaign (fleet-all-kinds: two plans of each fault kind,
# including the pairwise partition that probes for stale reads from a
# deposed primary) and Table 2 (table2, the perf kind: eight
# configurations' simulated times and the code-patching ablation).
# rioscn exits nonzero if any scenario loses an acked write, tears a
# commit, serves a stale read, or aborts a recovery. On a mismatch the
# fresh reports stay in scenario-reports-w1/ and -w4/, uploaded as a CI
# artifact.
make scenarios
# Disk-fault corpus: the twelve campaigns of scenarios/full/corpus,
# diffed against testdata/corpus-reports/ (reports and stdout). Five of
# them breach a zero gate today, so rioscn's exit 1 passes and exit 2
# fails; on a mismatch the fresh reports stay in corpus-reports-fresh/,
# uploaded as a CI artifact.
make corpus
