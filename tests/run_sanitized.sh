#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers. Usage:
#
#   tests/run_sanitized.sh                 # address+undefined, then thread
#   tests/run_sanitized.sh address         # one specific sanitizer
#   tests/run_sanitized.sh thread -L stress  # extra args forwarded to ctest
#
# Each sanitizer gets its own build tree (build-asan/, build-tsan/, ...),
# so incremental re-runs are cheap.
set -euo pipefail

cd "$(dirname "$0")/.."

run_one() {
  local sanitize="$1"
  shift
  local dir="build-${sanitize//,/-}"
  case "$sanitize" in
    address,undefined) dir="build-asan" ;;
    address) dir="build-asan" ;;
    thread) dir="build-tsan" ;;
    undefined) dir="build-ubsan" ;;
  esac

  echo "=== VSTORE_SANITIZE=$sanitize -> $dir ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DVSTORE_SANITIZE="$sanitize" > /dev/null
  cmake --build "$dir" -j "$(nproc)" > /dev/null

  # Make sanitizer findings fatal and readable.
  export ASAN_OPTIONS=abort_on_error=1
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

  if [ "$sanitize" = "thread" ]; then
    # TSan runs focus on the concurrency suite: the stress-labelled tests
    # (exchange, parallel join, the concurrent-table test that runs scans
    # against live writers and the tuple mover, the sharded-table test that
    # adds cross-shard updates and per-shard movers under parallel sharded
    # scans, and the system-views test that materializes DMVs under churn)
    # plus everything exercising the exchange, the relaxed-atomic metrics
    # registry, the Query Store's shared fingerprint map, and the query
    # tracer (lock-free span append from fragment threads, the active-query
    # registry, the slow-query ring), and the memory tracker (relaxed
    # charge/release from fragment threads, pressure listeners firing on
    # whichever thread lands the crossing charge); add "$@" to widen.
    ctest --test-dir "$dir" --output-on-failure \
        -R 'exchange|executor|integration|tpch|parallel|metrics|system|query_store|sharded|wal|durable|trace|memory' "$@"
    ctest --test-dir "$dir" --output-on-failure -L stress "$@"
    # The expression fuzzer is single-threaded, but the bytecode program
    # cache it hits is the one shared across parallel fragments — keep the
    # fuzz label in the TSan matrix too. Same for the LZSS decoder fuzzer
    # (archived blobs decode inside parallel scans).
    ctest --test-dir "$dir" --output-on-failure -L fuzz "$@"
    # Crash recovery under TSan: WAL group commit + checkpoint rotation
    # race committers against the checkpointing thread.
    ctest --test-dir "$dir" --output-on-failure -L recovery "$@"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" "$@"
    # Redundant with the full run today, but pinned so the differential
    # fuzzer (bytecode vs the row engine's EvalRow), the LZSS decoder
    # fuzzer (hostile compressed blobs), and the seeded crash-recovery
    # property loop always run sanitized even if the full pass above ever
    # narrows its selection.
    ctest --test-dir "$dir" --output-on-failure -L fuzz "$@"
    ctest --test-dir "$dir" --output-on-failure -L recovery "$@"
  fi
}

if [ "$#" -ge 1 ]; then
  sanitize="$1"
  shift
  run_one "$sanitize" "$@"
else
  run_one address,undefined
  run_one thread
fi
