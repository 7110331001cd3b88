#!/bin/sh
# Runs every bench binary and collects the BENCH_<name>.json artifacts.
#
#   tools/bench.sh                    # full-fidelity run -> bench-results/
#   tools/bench.sh --smoke            # deterministic scaled-down run
#   tools/bench.sh --smoke --check    # + gate against bench/budgets/smoke.json
#   tools/bench.sh --smoke --record   # + flight-recorder artifacts
#                                     #   (REC_*.json + TRACE_*.json Chrome
#                                     #   traces + TIMELINE_*.json flexwatch
#                                     #   timelines, from the benches that
#                                     #   support recording)
#   OUT=dir BUILD=dir tools/bench.sh  # override output / build directories
#
# Full runs take minutes (they reproduce the paper figures at full
# iteration counts); --smoke runs in seconds and is what CI gates on.
# bench_fault_nfs runs entirely on the virtual clock (lossy-wire NFS
# read), so its figures and counters are exact in both modes.
set -eu

cd "$(dirname "$0")/.."
BUILD=${BUILD:-build}
OUT=${OUT:-bench-results}
SMOKE=
CHECK=
RECORD=

for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=--smoke ;;
    --check) CHECK=1 ;;
    --record) RECORD=--record ;;
    *)
      echo "usage: tools/bench.sh [--smoke] [--check] [--record]" >&2
      exit 1
      ;;
  esac
done

if [ -n "$CHECK" ] && [ -z "$SMOKE" ]; then
  echo "bench.sh: --check requires --smoke (budgets pin smoke runs)" >&2
  exit 1
fi

if [ ! -d "$BUILD/bench" ]; then
  echo "bench.sh: $BUILD/bench not found — build first (cmake -B $BUILD -S . && cmake --build $BUILD)" >&2
  exit 1
fi

mkdir -p "$OUT"
for bin in "$BUILD"/bench/bench_*; do
  [ -x "$bin" ] || continue
  echo "== $(basename "$bin") =="
  # Explicit propagation (not just set -e): name the failing binary and
  # exit with its status so CI logs point at the culprit immediately.
  "$bin" $SMOKE $RECORD "--json_dir=$OUT" || {
    status=$?
    echo "bench.sh: $(basename "$bin") exited $status" >&2
    exit "$status"
  }
done

echo "== artifacts =="
ls -l "$OUT"/BENCH_*.json
if [ -n "$RECORD" ]; then
  ls -l "$OUT"/REC_*.json "$OUT"/TRACE_*.json "$OUT"/TIMELINE_*.json
fi

if [ -n "$CHECK" ]; then
  echo "== budget gate =="
  "$BUILD"/tools/report/flexrpc_report check \
    --budgets=bench/budgets/smoke.json "--dir=$OUT"
  # The timeline gate needs the TIMELINE_*.json artifacts, which only the
  # --record benches emit. The budget file's schema selects the gate.
  if [ -n "$RECORD" ]; then
    echo "== timeline gate =="
    "$BUILD"/tools/report/flexrpc_report check \
      --budgets=bench/budgets/timeline.json "--dir=$OUT"
  fi
fi
