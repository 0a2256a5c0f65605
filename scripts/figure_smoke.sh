#!/usr/bin/env sh
# figure_smoke.sh — end-to-end smoke test of one paper figure through
# the real cmd/experiments CLI.
#
# Usage: sh scripts/figure_smoke.sh <figure> [golden] [gate-flag]
#
# Runs <figure> small (-seeds 2) and requires:
#   1. when golden is given, the .dat output to match it byte for byte
#      (every figure is a pure function of its seeds, on every machine);
#   2. a 2-shard merged run (shard 0 at -workers 2, shard 1 at
#      -workers 1) to be byte-identical to the unsharded run;
#   3. when gate-flag is given, `experiments <gate-flag> -seeds 2` to
#      pass: the figure's per-cell dominance gate (-refine-gate: Refined
#      never costs more than the cheapest feasible constructive
#      heuristic; -churn-gate: repair within tolerance of re-solve on
#      every scenario and strictly fewer operators moved over the grid),
#      which the plotted means cannot witness.
# Run via `make sweep-smoke`, `make refine-smoke` or `make churn-smoke`.
# Refresh a golden after an intentional figure change with, e.g.:
#   go run ./cmd/experiments -seeds 2 -only refine -out /tmp/rs >/dev/null \
#     && cp /tmp/rs/refine.dat scripts/testdata/refine_smoke.dat
set -eu

[ $# -ge 1 ] && [ $# -le 3 ] || {
    echo "usage: $0 <figure> [golden] [gate-flag]" >&2
    exit 2
}
FIG=$1
GOLDEN=${2:-}
GATE=${3:-}
GO=${GO:-go}
DIR=${SMOKE_DIR:-.$FIG-smoke}

fail() {
    echo "$FIG-smoke: FAIL: $*" >&2
    exit 1
}

cleanup() {
    rm -rf "$DIR"
}
trap cleanup EXIT

rm -rf "$DIR"
mkdir -p "$DIR"

run() {
    "$GO" run ./cmd/experiments -seeds 2 -only "$FIG" "$@" >/dev/null
}

run -workers 2 -out "$DIR/full" || fail "unsharded $FIG figure run failed"
if [ -n "$GOLDEN" ]; then
    cmp "$DIR/full/$FIG.dat" "$GOLDEN" \
        || fail "$FIG.dat differs from the committed golden $GOLDEN"
fi

run -workers 2 -shard 0/2 -out "$DIR/shards" || fail "shard 0/2 failed"
run -workers 1 -shard 1/2 -out "$DIR/shards" || fail "shard 1/2 failed"
run -merge 2 -out "$DIR/shards" || fail "shard merge failed"
cmp "$DIR/full/$FIG.dat" "$DIR/shards/$FIG.dat" \
    || fail "sharded merge differs from the unsharded run"

if [ -n "$GATE" ]; then
    "$GO" run ./cmd/experiments "$GATE" -seeds 2 \
        || fail "dominance gate $GATE failed"
fi

echo "$FIG-smoke: ${GOLDEN:+golden match, }sharded merge identical${GATE:+, dominance gate passed}"
