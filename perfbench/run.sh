#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload bulk-perm --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# ctl-churn store live under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/work"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/tmp
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
