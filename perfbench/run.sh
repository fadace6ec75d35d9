#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
#
# Build outputs (binary, Go build cache, temporary files) stay under
# $CARGO_TARGET_DIR, or .bench_build when that is unset, so the run writes
# nothing outside the checkout. Build logs go to stderr; the result JSON is
# the last line of stdout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$here" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
