#!/usr/bin/env bash
# Builds the benchmark and the shipped agrsimd daemon from the source in
# the current directory (the repository root), then runs the benchmark
# with the given arguments:
#
#   bash perfbench/run.sh --workload fig1 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --steady 10 --workload all --seconds 30
#
# Build outputs, the Go build cache and per-run scratch files all live
# under .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/agrsimd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/agrsimd and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/bin/agrsimd" ./cmd/agrsimd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --agrsimd "$out/bin/agrsimd" --workdir "$out" "$@"
