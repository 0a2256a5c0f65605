#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from source, then runs the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solve-open --seed 1 --seconds 12 --trace 0
#
# Everything it writes (binaries, the Go build cache, daemon state dirs,
# span files) goes under .bench_build in the repository root, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root" && go build -o "$build/bin/serve" ./cmd/serve)
(cd "$here" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" --serve "$build/bin/serve" --build "$build" "$@"
