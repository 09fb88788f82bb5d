#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload pagerank-batch --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache, temp
# files, the binary) and every file a run writes stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/rexperf" .) >&2
exec "$out/rexperf" -workdir "$out/work" "$@"
