#!/usr/bin/env bash
# Runs the pmtree test suite under ASan, UBSan and TSan via the
# CMakePresets.json configurations. The suite must be green under all
# three; TSan in particular covers ParallelAccessSimulator's worker merge,
# the cycle engine, the parallel cost evaluators (test_analysis_parallel
# runs them at 1/2/8 threads), the sharded engine runner
# (test_engine_sharded drives ShardedEngineRunner at 1/2/8 worker threads
# and asserts bit-identical merges, so any data race in the per-shard
# slot writes or the fold shows up both as a TSan report and as a
# mismatch), the lazy batch-accelerator publication
# (test_mapping_batch's ConcurrentFirstUseIsConsistent races four threads
# on a cold ColorMapping), degraded mode (test_engine_faults runs the
# fault-injected sharded engine at 1/2/8 threads and drives insert/erase
# batches through fail-stop fault epochs at 2/8 workers), and dynamic
# trees (test_dyn_incremental re-checks the incremental coloring
# bit-identical to a from-scratch rebuild after every mutation batch).
#
# The `engine` label selects the cycle engine's suites (test_engine_*):
# the event core against ReferenceEngine, healthy and under dense fault
# plans in every depth-sampling mode, the stage-granular session, the
# sharded runner and the metrics export.
#
# The serve layer is one control plane (src/serve/control.cpp) with two
# executors, so its coverage is one story. The `serve`-labelled suites
# race submitter threads into the striped inboxes, then run the same
# configurations inline (lane drains through parallel_chunks at 1/2/8
# workers) and staged (StagedRunner's SPSC token lists linked through the
# batch tokens, the ready-flag handoff, each consumer's list reset at the
# round barrier, and the barrier's park/wake at 1/2/8 pipeline workers)
# — across faults and retries, DRR and the shared pool, the
# epoch mappings migration and adaptive selection hand to workers, the
# dyn barrier's color publication (a release store worker-side
# color_of() must acquire) and arena touches from resolve workers. A race
# in any of them shows up as a TSan report and as a bit-identity mismatch
# against the inline run or a pinned fingerprint (test_serve_golden).
#
#   tests/run_sanitizers.sh             # all three sanitizers, full suite
#   tests/run_sanitizers.sh tsan        # one sanitizer
#   tests/run_sanitizers.sh tsan Sim    # ctest -R filter (regex)
#   tests/run_sanitizers.sh tsan -L serve   # ctest -L label
#   tests/run_sanitizers.sh asan -L engine  # the seven test_engine_* suites
#   tests/run_sanitizers.sh tsan -L serve 5 # ... 5 runs, stop at a failure
#   tests/run_sanitizers.sh tsan Sim 5      # same with a -R filter
#
# A trailing repeat count N runs the selected tests up to N times each
# (ctest --repeat until-fail:N): a race or a lost wakeup that shows once
# in a few runs fails the whole command.
#
# Benchmarks are off in the sanitizer presets (google-benchmark under TSan
# is noise, not signal); examples and tests build and run.
#
# After the sanitizers, the `nosimd` preset builds and runs the suite with
# the SIMD batch kernels compiled out — the scalar fallbacks must stay
# bit-identical (the batch == scalar differential suites make any drift a
# test failure, not just a perf note). Skipped when a single sanitizer is
# requested explicitly; run it alone with `tests/run_sanitizers.sh nosimd`.
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=(asan ubsan tsan nosimd)
if [[ $# -ge 1 && -n "$1" ]]; then
  sanitizers=("$1")
fi
filter=()
repeat_arg=3  # position of the optional repeat count
if [[ $# -ge 2 && "$2" == -L ]]; then
  filter=(-L "${3:?-L needs a label}")
  repeat_arg=4
elif [[ $# -ge 2 && -n "$2" ]]; then
  filter=(-R "$2")
fi
repeat=()
if [[ $# -ge $repeat_arg ]]; then
  count="${!repeat_arg}"
  if [[ ! "$count" =~ ^[1-9][0-9]*$ ]]; then
    echo "repeat count must be a positive integer, got '$count'" >&2
    exit 2
  fi
  repeat=(--repeat "until-fail:$count")
fi

jobs="$(nproc 2>/dev/null || echo 4)"
failed=()

for name in "${sanitizers[@]}"; do
  echo "==== [$name] configure ===="
  cmake --preset "$name"
  echo "==== [$name] build ===="
  cmake --build --preset "$name" -j "$jobs"
  echo "==== [$name] ctest ===="
  if ! ctest --test-dir "build-$name" --output-on-failure -j "$jobs" \
      "${filter[@]}" "${repeat[@]}"; then
    failed+=("$name")
  fi
done

if [[ ${#failed[@]} -ne 0 ]]; then
  echo "FAILED under: ${failed[*]}" >&2
  exit 1
fi
echo "All sanitizer runs clean: ${sanitizers[*]}"
