#!/usr/bin/env bash
# Run every bench binary in BUILD_DIR/bench (each belongs to one gate
# of bench/gates.json) with --json/--csv into OUT_DIR (default: a
# temporary directory), then
#   check:   drift_check --gates — exit 1 on a missing/invalid report
#            or drift in a blocking gate (warn-only drift just prints);
#   refresh: drift_check --refresh — rewrite each gate's baseline
#            records (tolerance header kept), then check against it.
# GATE... limits which gates are checked or refreshed; drift_check is
# the only reader of the manifest and rejects an unknown gate name.
# A bench that fails leaves no report, so its gate fails as missing
# while every other gate still reports.
# Commit a refreshed baseline with the change that moved it; refresh
# the host-measured gates (perf, batch) on a CI-like machine.
#
# usage: bench/gates.sh check|refresh [BUILD_DIR [OUT_DIR [GATE...]]]
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
    check|refresh) MODE=$1 ;;
    *) echo "usage: $0 check|refresh [BUILD_DIR [OUT_DIR [GATE...]]]" >&2
       exit 2 ;;
esac
BUILD=${2:-build}
OUT=${3:-}
shift $(( $# < 3 ? $# : 3 ))
if [ -z "$OUT" ]; then
    OUT=$(mktemp -d)
    trap 'rm -rf "$OUT"' EXIT
fi
mkdir -p "$OUT"

for bin in "$BUILD"/bench/*; do
    name=$(basename "$bin")
    { [ -f "$bin" ] && [ -x "$bin" ] && [ "$name" != drift_check ]; } ||
        continue
    echo "== $name"
    rm -f "$OUT/BENCH_$name.json" "$OUT/BENCH_$name.csv"
    timeout 300 "$bin" --quiet \
        --json "$OUT/BENCH_$name.json" --csv "$OUT/BENCH_$name.csv" || {
        echo "bench $name failed (exit $?)" >&2
        rm -f "$OUT/BENCH_$name.json" "$OUT/BENCH_$name.csv"
    }
done

if [ "$MODE" = refresh ]; then
    "$BUILD/bench/drift_check" --refresh bench/gates.json "$OUT" "$@"
fi
"$BUILD/bench/drift_check" --gates bench/gates.json "$OUT" "$@"
