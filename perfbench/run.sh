#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest_batch --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traced-run files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/trace" "$@"
