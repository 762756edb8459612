#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments, e.g.
#   bash e2ebench/run.sh --workload adhoc_local --seed 1 --seconds 20 --trace 0
# Run it from the root of the repository. Build products and the Go build
# cache go under $CARGO_TARGET_DIR (default .bench_build), so the run
# writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
