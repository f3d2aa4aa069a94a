#!/usr/bin/env bash
# The single verification entry point (see README "Verifying a change").
# Steps, in the order they run:
#   1. docs   — lint that every DESIGN.md / ARCHITECTURE.md / EXPERIMENTS.md
#               section anchor referenced from README.md (and between those
#               documents) resolves, so renaming a heading cannot silently
#               orphan the execution-model documentation;
#   2. tier 1 — build everything and run the full test suite;
#   3. dict-smoke — a small-N run of the dictionary-encoding ablation
#               (bench_dict_strings --smoke): runs the categorical restrict /
#               group-by / string-key join workloads scalar, vectorized
#               without dictionaries, and vectorized with dictionaries,
#               asserting cell-identical outputs across all three, that the
#               dict restrict actually dispatched code-lane batches, and that
#               the dict join never fell back to string hashing; then
#               validates the JSON.
#   4. contention — a small-N run of the lock-contention harness
#               (bench_lock_contention --smoke): sweeps the epoch-pinned
#               catalog read (ReadPin + TableVersion + GetTable) and the same
#               reads under a shared_mutex at 1/8/32 reader threads, each
#               cell the best of five sweeps interleaved across the run,
#               asserting from one run that the 8-thread epoch-pinned rate is
#               at least 0.75x its 1-thread rate (readers never
#               re-serialize) and at least 1.0x the 8-thread shared_mutex
#               rate (the epoch domain at least matches the lock it replaced), and that
#               epoch pins were actually taken; then validates the JSON.
#   5. bench-smoke — 3-second runs of the interaction benchmark
#               (interaction_bench/run.py) for drill, serve, and navigate,
#               built against the current src/: an engine API change that
#               breaks the benchmark fails here, and each run must report
#               "correct": true with at least one edit, canvas, or frame
#               compared against the scalar oracle. Seed 5, because seed 1's
#               first sampled drill edit lies beyond a 3-second run. The serve
#               run also gates the session server: a failed, rejected or
#               expired request, or a timed phase without shared-tier hits,
#               makes "correct" false.
#   6. tsan   — rebuild with ThreadSanitizer and run the concurrency tests
#               (engines lending a runner to their boxes' morsel fan-out,
#               session server, determinism, fanned-out delta propagation,
#               epoch reclamation, and the morsel suite in batch_eval_test —
#               morsel bodies run concurrently on pool workers, including
#               groups started from a busy pool's own workers, so their
#               result-slot hand-off must be race-free);
#   7. asan   — rebuild with Address+UB sanitizers and run the columnar /
#               batch-evaluation / aggregates tests (the paths that index raw
#               column vectors through selection vectors, row maps and
#               dictionary codes) and determinism_test, whose drill chain
#               groups a Sample view through its composed row map under
#               every policy;
#   8. ubsan  — rebuild with UndefinedBehaviorSanitizer alone (unlike the
#               asan pass it traps on the first finding instead of
#               recovering; float-cast-overflow is named, GCC's
#               -fsanitize=undefined leaves it out) and run the
#               join/operator/aggregates tests and determinism_test — the
#               class of bug this catches mechanically is an out-of-range
#               double->integer cast, like the old HashKey one;
#   9. recovery — the crash-safety gate: the storage tests (which include
#               the nine-figure kill-and-recover snapshot/replay cycle) under
#               ThreadSanitizer — snapshotting runs on a background thread
#               concurrent with edits and queries — and the FaultFs
#               crash-injection property tests under Address+UB sanitizers,
#               where torn half-records are decoded from raw bytes;
#  10. nosimd — rebuild with -DTIOGA2_SIMD=OFF and rerun the full suite, so
#               the scalar fallback path (the only path on machines where the
#               SIMD tiers are compiled out) can never rot. The sanitizer
#               passes above inherit the default SIMD=ON build and therefore
#               sanitize the kernels themselves.
# Builds run at most $(nproc) jobs each: a bare -j is unbounded under make,
# and five build trees compile here.
# The epoch-reclamation tests (epoch_test, incl. the reader/retire torture
# case) run in the tsan, asan, AND ubsan passes: reclaim-while-pinned is a
# use-after-free asan turns into a hard failure, and pin/advance ordering
# bugs are races tsan reports.
# Pass --fast to run tier 1 only.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== docs: markdown anchor lint =="
scripts/lint_docs.sh

echo "== tier 1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j)

if [[ "${1:-}" == "--fast" ]]; then
  echo "OK (fast)"
  exit 0
fi

mkdir -p bench_out  # the smoke benches' --out paths below write into it
echo "== dict-smoke: dictionary-encoded string execution ablation, small N =="
cmake --build build -j "$(nproc)" --target bench_dict_strings
build/bench/bench_dict_strings --smoke --out=bench_out/dict_strings_smoke.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool bench_out/dict_strings_smoke.json >/dev/null
else
  grep -q '"restrict"' bench_out/dict_strings_smoke.json
  grep -q '"fig07"' bench_out/dict_strings_smoke.json
fi

echo "== contention: epoch-pinned catalog read vs shared_mutex, small N =="
cmake --build build -j "$(nproc)" --target bench_lock_contention
build/bench/bench_lock_contention --smoke --out=bench_out/lock_contention.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool bench_out/lock_contention.json >/dev/null
else
  grep -q '"catalog_resolve"' bench_out/lock_contention.json
fi

echo "== bench-smoke: interaction benchmark, 3 s per workload =="
for workload in drill serve navigate; do
  out=$(python3 interaction_bench/run.py --workload "$workload" --seed 5 \
    --seconds 3 --trace 0)
  printf '%s\n' "$out" | grep "output check:"
  printf '%s\n' "$out" | python3 -c '
import json, re, sys
lines = sys.stdin.read().splitlines()
checks = [re.search(r"output check: (\d+)", l) for l in lines]
compared = max([int(m.group(1)) for m in checks if m] or [0])
correct = json.loads(lines[-1]).get("correct")
if correct is not True or compared < 1:
    sys.exit("bench-smoke %s: correct=%s, compared=%d"
             % (sys.argv[1], correct, compared))
' "$workload"
done

echo "== tsan: runner + session server + determinism + epoch + morsel fan-out tests =="
cmake -B build-tsan -S . -DTIOGA2_TSAN=ON >/dev/null
cmake --build build-tsan -j "$(nproc)" --target \
  runtime_test session_server_test runtime_determinism_test delta_update_test \
  batch_eval_test epoch_test
(cd build-tsan && ctest --output-on-failure \
  -R 'runtime|session_server|delta_update|batch_eval|epoch')

# ^determinism_test$ is anchored so the filter skips runtime_determinism_test,
# which these two passes do not build.
echo "== asan: columnar + batch evaluation + aggregates + determinism + epoch tests =="
cmake -B build-asan -S . -DTIOGA2_ASAN=ON >/dev/null
cmake --build build-asan -j "$(nproc)" --target \
  columnar_test batch_eval_test operators_test display_relation_test \
  aggregates_test determinism_test epoch_test
(cd build-asan && ctest --output-on-failure \
  -R 'columnar_test|batch_eval_test|operators_test|display_relation_test|aggregates_test|^determinism_test$|epoch_test')

echo "== ubsan: join + operator + aggregates + determinism + epoch tests =="
cmake -B build-ubsan -S . -DTIOGA2_UBSAN=ON >/dev/null
cmake --build build-ubsan -j "$(nproc)" --target \
  join_test operators_test columnar_test batch_eval_test aggregates_test \
  determinism_test epoch_test
(cd build-ubsan && ctest --output-on-failure \
  -R 'join_test|operators_test|columnar_test|batch_eval_test|aggregates_test|^determinism_test$|epoch_test')

echo "== recovery: storage snapshot/replay under tsan, crash injection under asan =="
cmake --build build-tsan -j "$(nproc)" --target storage_test
(cd build-tsan && ctest --output-on-failure -R 'storage_test')
cmake --build build-asan -j "$(nproc)" --target storage_test storage_crash_test
(cd build-asan && ctest --output-on-failure -R 'storage_test|storage_crash_test')

echo "== nosimd: full suite with the SIMD tiers compiled out =="
cmake -B build-nosimd -S . -DTIOGA2_SIMD=OFF >/dev/null
cmake --build build-nosimd -j "$(nproc)"
(cd build-nosimd && ctest --output-on-failure -j)

echo "OK"
