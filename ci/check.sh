#!/usr/bin/env bash
# CI gate: regular build + tests, a crash-recovery smoke stage with an
# elevated fault-injection trial count, a differential Gremlin fuzz stage
# with elevated trials, a metrics-overhead guard (enabled vs disabled
# registry on the micro-op benchmarks, budget 5%), a perf-smoke stage
# (bench_analytics --quick --check: the vectorized executor must match the
# row-at-a-time executor's results and not be slower), a paged LinkBench
# stage (perfbench linkbench_paged for two seconds: shadow check,
# CheckConsistency() and WAL reopen over a paged store), a
# concurrency flake gate (the Concurrent/Torture/StoreWorkload tests
# repeated until fail, up to 50 times), a schedule-exploration stage (the
# util/sched deterministic explorer suites at an elevated PCT trial count),
# a plan-verification gate (the differential harness at an elevated trial
# count with sql/verify.h forced on — zero false rejections
# — plus the SQLGRAPH_VERIFY_SELFTEST mutation modes, each of which must
# be rejected), static-analysis lint
# stages (the module-layering lint in ci/lint_layering.py and the
# lock-graph cross-check in ci/lint_lock_graph.py — each including a
# planted-fixture self-test — then clang -Wthread-safety -Werror build +
# clang-tidy over
# compile_commands.json; skipped with a notice when the clang toolchain is
# absent), a transaction gate (the MVCC suite plus the transactional
# crash-point oracle at an elevated trial count), ASan/UBSan and TSan
# builds + tests (the TSan pass re-runs the metrics/differential/WAL
# suites with concurrency and isolates the transaction-torture tests;
# Debug sanitizer builds run with the lock-rank validator on by default),
# a strict UBSan
# (-fno-sanitize-recover) full-suite pass, and a fuzz smoke stage that
# builds the six src/fuzz targets and replays their seed corpora plus a
# bounded mutation budget (libFuzzer under clang, the standalone driver
# under GCC).
#
#   ci/check.sh            # all stages
#   ci/check.sh --fast     # regular pass only
set -euo pipefail

cd "$(dirname "$0")/.."

run_pass() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure
}

echo "== regular build =="
run_pass build

echo "== WAL recovery smoke (elevated crash-point count) =="
SQLGRAPH_WAL_CRASH_TRIALS=600 \
  ./build/tests/sqlgraph_tests --gtest_filter='WalCrashRecoveryTest.*'

echo "== differential Gremlin fuzz (elevated trial count) =="
SQLGRAPH_DIFF_TRIALS=100 \
  ./build/tests/sqlgraph_tests --gtest_filter='*Differential*'

if [[ "${1:-}" != "--fast" ]]; then
  echo "== transaction gate (atomic-commit crash oracle, elevated trials) =="
  # The MVCC suite (tests/txn_test.cc) plus the transactional crash-point
  # property: with SQLGRAPH_TXN_TRIALS=200+ random crash points, recovery
  # must never surface a partially applied transaction (the unit-prefix
  # oracle in wal_test.cc diverges on any torn commit unit). The same
  # filters run again under TSan below — this pass catches logic failures
  # fast, that one catches races.
  SQLGRAPH_TXN_TRIALS=240 ./build/tests/sqlgraph_tests \
    --gtest_filter='Txn*:TxnCrashRecoveryTest.*'

  echo "== concurrency flake gate (concurrent/torture tests, 50 repeats) =="
  # Tests that race real threads pass or fail with the OS schedule, so one
  # green run says little. Repeating each on the Release build until it
  # fails (at most 50 times) turns a flaky test into a CI failure.
  ctest --test-dir build --output-on-failure \
    -R 'Concurrent|Torture|StoreWorkload' --repeat until-fail:50

  echo "== schedule exploration (PCT + exhaustive DFS, elevated trials) =="
  # The deterministic schedule explorer (util/sched.h): model-checks the
  # txn commit/GC vs snapshot paths, the WAL group-commit protocol model
  # and buffer-pool eviction, plus the mutation self-tests that prove a
  # planted race/reorder is caught and replays byte-identically. The
  # regular ctest pass already ran these at default trial counts; this
  # stage elevates the PCT trial budget (override SQLGRAPH_SCHED_TRIALS
  # to go deeper or to reproduce a CI failure locally).
  SQLGRAPH_SCHED_TRIALS="${SQLGRAPH_SCHED_TRIALS:-500}" \
    ./build/tests/sqlgraph_tests --gtest_filter='Sched*'

  echo "== metrics overhead guard (budget: 5% on micro-op read paths) =="
  # Same read-path benchmarks with the registry enabled vs disabled; the
  # sharded relaxed-atomic hot path must stay within budget. Medians over
  # repeated runs absorb scheduler noise; the budget applies to the mean of
  # the per-benchmark median ratios (single-benchmark jitter on shared CI
  # machines exceeds the real per-op cost by an order of magnitude).
  overhead_filter='BM_GetVertex|BM_OutNeighbors|BM_GetLinkList'
  SQLGRAPH_METRICS=1 ./build/bench/bench_micro_ops \
    --benchmark_filter="${overhead_filter}" \
    --benchmark_format=csv --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    >/tmp/bench_metrics_on.csv
  SQLGRAPH_METRICS=0 ./build/bench/bench_micro_ops \
    --benchmark_filter="${overhead_filter}" \
    --benchmark_format=csv --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    >/tmp/bench_metrics_off.csv
  awk -F, '
    FNR == 1 { file++ }
    /^"?BM_.*_median"?,/ {
      gsub(/"/, "", $1)
      if (file == 1) on[$1] = $4; else off[$1] = $4
    }
    END {
      sum = 0; n = 0
      for (b in on) {
        if (off[b] + 0 == 0) continue
        ratio = on[b] / off[b]
        printf "  %-44s on=%.1fns off=%.1fns ratio=%.3f\n", b, on[b], off[b], ratio
        sum += ratio; n++
      }
      mean = n ? sum / n : 0
      printf "  mean median-ratio over %d benchmarks: %.3f (budget 1.05)\n", n, mean
      exit !(n > 0 && mean <= 1.05)
    }' /tmp/bench_metrics_on.csv /tmp/bench_metrics_off.csv

  echo "== perf smoke (vectorized vs row-at-a-time analytics) =="
  # The batch executor must not lose to the row-at-a-time executor on the
  # scan/join-heavy analytics workloads (full-table scan + hash join +
  # aggregate); bench_analytics cross-checks result equality first and
  # exits non-zero on a mode mismatch or a slowdown.
  cmake --build build -j "$(nproc)" --target bench_analytics
  ./build/bench/bench_analytics --quick --check

  echo "== paged LinkBench shadow check (perfbench linkbench_paged) =="
  # The repository benchmark's linkbench_paged workload checks every request
  # against a NativeStore shadow, then runs CheckConsistency() and reopens
  # the WAL and compares it row by row, all over a paged store whose buffer
  # pool is smaller than the store. A two-second run puts those checks in
  # CI. The last stdout line is the JSON result: it must report
  # "correct": true and "failed": 0.
  paged_result="$(python3 perfbench/run.py --workload linkbench_paged \
    --seed 7 --seconds 2 --trace 0 | tail -n 1)"
  echo "  $paged_result"
  python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
    "$paged_result"

  echo "== plan verification gate (elevated trials + mutation self-tests) =="
  # The build above is unoptimized (no NDEBUG), so Options::verify_plans /
  # StoreConfig::verify_plans default ON and every plan in the regular
  # ctest pass already ran through sql/verify.h. This stage re-runs the
  # differential harness at an elevated trial count — every random
  # pipeline shape must verify with ZERO false rejections (a rejection
  # fails the oracle comparison) — then proves the verifier actually
  # rejects: each SQLGRAPH_VERIFY_SELFTEST mode plants a known-malformed
  # plan fragment through the real checkers, and a passing test run under
  # a plant means the checker went soft.
  SQLGRAPH_DIFF_TRIALS=100 SQLGRAPH_VERIFY_PLANS=1 \
    ./build/tests/sqlgraph_tests --gtest_filter='*Differential*'
  for mode in dangling-column join-key-type stale-epoch; do
    if SQLGRAPH_VERIFY_SELFTEST="${mode}" ./build/tests/sqlgraph_tests \
        --gtest_filter='ExecutorTest.SelectConstant' >/dev/null 2>&1; then
      echo "verifier failed to reject the '${mode}' planted defect" >&2
      exit 1
    fi
    echo "  planted defect '${mode}': rejected"
  done

  echo "== lint (module layering) =="
  # Pure-text lint: every cross-module #include edge under src/ must
  # conform to the CMake link DAG (ci/lint_layering.py mirrors its
  # transitive closure; files compiled into higher targets are
  # allowlisted with reasons). The second invocation asserts the lint
  # actually flags an upward include, using the planted fixture.
  python3 ci/lint_layering.py
  if python3 ci/lint_layering.py --root ci/testdata/layering_violation \
      2>/dev/null; then
    echo "lint_layering failed to flag the planted violation" >&2
    exit 1
  fi

  echo "== lint (lock-graph cross-check) =="
  # Pure-text lint: the LockRank enum, the DESIGN.md section-7 hierarchy
  # table and the GUARDED_BY coverage of every mutex member must agree.
  # The second invocation asserts the lint actually detects drift, using
  # the synthetic fixture tree.
  python3 ci/lint_lock_graph.py
  if python3 ci/lint_lock_graph.py --root ci/testdata/lock_graph_drift \
      2>/dev/null; then
    echo "lint_lock_graph failed to flag the drift fixture" >&2
    exit 1
  fi

  echo "== lint (thread-safety analysis + clang-tidy) =="
  # Clang's -Wthread-safety checks the GUARDED_BY/REQUIRES annotations in
  # util/thread_annotations.h (GCC compiles them away, so only this stage
  # verifies them); clang-tidy runs the curated check set in .clang-tidy.
  # Both are skipped — loudly, not silently — when the clang toolchain is
  # not installed, so the gate degrades instead of breaking on minimal
  # build images.
  if command -v clang++ >/dev/null 2>&1; then
    run_pass build-lint \
      -DCMAKE_CXX_COMPILER=clang++ -DSQLGRAPH_WERROR=ON \
      -DCMAKE_BUILD_TYPE=Debug
    if command -v clang-tidy >/dev/null 2>&1; then
      # compile_commands.json is exported by CMakeLists.txt; lint only
      # first-party sources (dependency headers are not ours to fix).
      git ls-files 'src/**/*.cc' | \
        xargs clang-tidy -p build-lint --quiet
    else
      echo "  clang-tidy not found; SKIPPING tidy checks"
    fi
  else
    echo "  clang++ not found; SKIPPING thread-safety + clang-tidy stage"
  fi

  echo "== ASan/UBSan build =="
  run_pass build-asan -DSQLGRAPH_SANITIZE=address -DCMAKE_BUILD_TYPE=Debug

  echo "== TSan build (metrics hot path + differential + WAL concurrency) =="
  run_pass build-tsan -DSQLGRAPH_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug

  echo "== TSan transaction torture (invariant transfer under contention) =="
  # The multi-threaded MVCC tests already ran once in the full TSan ctest
  # pass above; this re-run isolates them so a data race in the snapshot /
  # commit machinery fails with a readable report instead of drowning in
  # the suite output.
  ./build-tsan/tests/sqlgraph_tests --gtest_filter='TxnTortureTest.*'

  echo "== strict UBSan build (-fno-sanitize-recover, full suite) =="
  # The ASan pass above runs UBSan in recovering mode; this pass turns any
  # single UB report into a test failure.
  run_pass build-ubsan -DSQLGRAPH_SANITIZE=undefined -DCMAKE_BUILD_TYPE=Debug

  echo "== fuzz smoke (corpus replay + bounded mutations, ASan/UBSan) =="
  # All six targets build in both modes; the smoke replays the checked-in
  # corpora and spends a small deterministic mutation budget per target.
  # Real fuzzing sessions: build with clang and run the binaries directly.
  cmake -B build-fuzz -S . -DSQLGRAPH_FUZZ=ON -DSQLGRAPH_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-fuzz -j "$(nproc)" --target \
    fuzz_json fuzz_sql fuzz_gremlin fuzz_wal fuzz_snapshot fuzz_store_ops
  for target in fuzz_json fuzz_sql fuzz_gremlin fuzz_wal fuzz_snapshot \
                fuzz_store_ops; do
    echo "  -- ${target}"
    if command -v clang++ >/dev/null 2>&1; then
      # libFuzzer binary: bounded run over the seed corpus.
      ./build-fuzz/src/fuzz/"${target}" -runs=2000 -seed=1 \
        "tests/fuzz/corpus/${target}"
    else
      # Standalone driver: same corpus, same mutation budget.
      ./build-fuzz/src/fuzz/"${target}" -runs=2000 -seed=1 \
        "tests/fuzz/corpus/${target}" 2>/dev/null
    fi
  done
fi

echo "ci/check.sh: all passes green"
