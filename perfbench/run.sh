#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload spec-closed --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, the binary and the traces of
# traced runs all stay under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
