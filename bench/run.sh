#!/bin/sh
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then run it with the arguments given
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the build writes stays under .bench_build in the checkout:
# the Go build cache, its temporary files, and the binary. Run from the
# root of the checkout. In a directory without the repository's go.mod
# and sources the build fails and so does this script.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false \
	go build -o "$build/riobench" ./bench
exec "$build/riobench" "$@"
