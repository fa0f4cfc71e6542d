#!/usr/bin/env bash
# Smoke check: configure, build, and run the test suite.
#
#   tools/check.sh                 # plain RelWithDebInfo build in build/
#   tools/check.sh thread          # TSan build in build-tsan/
#   tools/check.sh address         # ASan+UBSan build in build-asan/
#   tools/check.sh chaos           # seeded fault-injection gate (ctest -L
#                                  # chaos) under a small memory budget
#   IDF_SANITIZE=thread tools/check.sh         # same as `tools/check.sh thread`
#   IDF_SANITIZE=thread tools/check.sh chaos   # the CI chaos leg: TSan + chaos
#
# Chaos knobs (see docs/TESTING.md): IDF_CHAOS_SWEEP bounds the seed sweep,
# IDF_CHAOS_SEED replays one failing seed, IDF_MEMORY_BUDGET (default 64m in
# chaos mode) keeps the spill/reload machinery engaged.
#
# Remaining args are passed through to ctest (e.g. tools/check.sh -R Obs,
# or tools/check.sh thread -R "Cluster|Scheduler").
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE="${IDF_SANITIZE:-}"
CHAOS=0
while :; do
  case "${1:-}" in
    thread|address) SANITIZE="$1"; shift ;;
    chaos)          CHAOS=1; shift ;;
    *) break ;;
  esac
done
case "$SANITIZE" in
  "")       BUILD_DIR=build ;;
  thread)   BUILD_DIR=build-tsan ;;
  address)  BUILD_DIR=build-asan ;;
  *) echo "error: IDF_SANITIZE must be 'thread' or 'address'" >&2; exit 2 ;;
esac

cmake -B "$BUILD_DIR" -S . -DIDF_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
if [[ "$CHAOS" == 1 ]]; then
  # The differential gate must hold under memory pressure; default to a
  # budget small enough that evictions, spills, and reloads all fire.
  export IDF_MEMORY_BUDGET="${IDF_MEMORY_BUDGET:-64m}"
  echo "[check] chaos gate: IDF_MEMORY_BUDGET=$IDF_MEMORY_BUDGET" \
       "IDF_CHAOS_SWEEP=${IDF_CHAOS_SWEEP:-20 (default)}" >&2
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L chaos "$@"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
fi
