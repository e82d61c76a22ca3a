#!/usr/bin/env bash
# Builds ensbench from this checkout and runs it with the arguments
# given, from the root of the checkout:
#
#   bash bench/run.sh --workload crawl --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, snapshots and span files all stay under
# .bench_build (or $CARGO_TARGET_DIR when set) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

# Keep every file the go command and the benchmark write inside the
# checkout, and never reach for the network or another toolchain.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$out/ensbench.$$" ./cmd/ensbench) >&2
mv "$out/ensbench.$$" "$out/ensbench"
exec "$out/ensbench" -work "$out/work" "$@"
