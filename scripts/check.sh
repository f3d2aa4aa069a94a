#!/usr/bin/env bash
# The single verification entry point (see README "Verifying a change").
# Steps, in the order they run:
#   1. docs   — lint that every DESIGN.md / ARCHITECTURE.md / EXPERIMENTS.md
#               section anchor referenced from README.md (and between those
#               documents) resolves, so renaming a heading cannot silently
#               orphan the execution-model documentation, and that every
#               file path those four documents name in backticks exists;
#   2. tier 1 — build everything and run the full test suite;
#   3. dict-smoke — a small-N run of bench_dict_strings --smoke: runs the
#               categorical restrict / group-by / string-key join workloads
#               scalar and vectorized (a string column is its sorted
#               dictionary, so the vectorized runs work on codes), asserting
#               cell-identical outputs between the two and that the
#               vectorized restrict dispatched dictionary-code batches; then
#               validates the JSON.
#   4. bench-smoke — 3-second runs of the interaction benchmark
#               (interaction_bench/run.py) for drill, serve, and navigate,
#               built against the current src/: an engine API change that
#               breaks the benchmark fails here, and each run must report
#               "correct": true with at least one edit, canvas, or frame
#               compared against the scalar oracle. Seed 5, because seed 1's
#               first sampled drill edit lies beyond a 3-second run. The serve
#               run also gates the session server: a failed, rejected or
#               expired request, or a timed phase without shared-tier hits,
#               makes "correct" false.
#   5. tsan   — rebuild with ThreadSanitizer and run the tests whose threads
#               share state: the session server (concurrent sessions over
#               one catalog and one shared memo tier, including the
#               catalog-churn torture case), catalog_csv_test (a ReadPin
#               held across a ReplaceTable on another thread), the thread
#               pool and shared memo tier in runtime_test, the
#               determinism and delta-propagation suites, batch_eval_test,
#               and render_image_test, whose threads render one shared value and
#               must build its render image once. An evaluation runs on its
#               calling thread, so the races left to find are between
#               sessions, not inside one;
#   6. asan   — rebuild with Address+UB sanitizers and run the columnar /
#               batch-evaluation / aggregates tests (the paths that index raw
#               column vectors through selection vectors, row maps and
#               dictionary codes), join_test, whose string-key joins index
#               remap tables and code arrays by raw index,
#               determinism_test, whose drill chain
#               groups a Sample view through its composed row map under
#               every policy, program_io_test, which parses hostile
#               saved programs, render_image_test, whose render images
#               index per-row arrays by row id, and render_test and
#               raster_reference_test, whose raster loops compute their own
#               pixel ranges;
#   7. ubsan  — rebuild with UndefinedBehaviorSanitizer alone (unlike the
#               asan pass it traps on the first finding instead of
#               recovering; float-cast-overflow is named, GCC's
#               -fsanitize=undefined leaves it out) and run the
#               join/operator/aggregates tests, display_relation_test
#               (whose Restricts feed computed-attribute vectors to the
#               filter's comparison loop), determinism_test,
#               program_io_test, the render-image and raster tests, and the
#               date, builtins and storage tests (integer and date arithmetic
#               at the INT64 extremes, day counts decoded from raw bytes) —
#               the class of bug this catches mechanically is an
#               out-of-range double->integer cast, like the old HashKey one
#               or a pixel coordinate past INT_MAX, or a signed overflow;
#   8. recovery — the crash-safety gate: the storage tests (which include
#               the nine-figure kill-and-recover snapshot/replay cycle) under
#               ThreadSanitizer — snapshotting runs on a background thread
#               concurrent with edits and queries — and the FaultFs
#               crash-injection property tests under Address+UB sanitizers,
#               where torn half-records are decoded from raw bytes;
#   9. nosimd — rebuild with -DTIOGA2_SIMD=OFF and rerun the full suite, so
#               the scalar fallback path (the only path on machines where the
#               SIMD tiers are compiled out) can never rot. The sanitizer
#               passes above inherit the default SIMD=ON build and therefore
#               sanitize the kernels themselves.
# Builds run at most $(nproc) jobs each: a bare -j is unbounded under make,
# and five build trees compile here.
# Pass --fast to run tier 1 only.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== docs: markdown anchor and file-path lint =="
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
echo "== dict-smoke: string workloads scalar vs vectorized on dictionary codes, small N =="
cmake --build build -j "$(nproc)" --target bench_dict_strings
build/bench/bench_dict_strings --smoke --out=bench_out/dict_strings_smoke.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool bench_out/dict_strings_smoke.json >/dev/null
else
  grep -q '"restrict"' bench_out/dict_strings_smoke.json
  grep -q '"fig07"' bench_out/dict_strings_smoke.json
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

echo "== tsan: session server + catalog + runtime + determinism + batch evaluation + render image tests =="
cmake -B build-tsan -S . -DTIOGA2_TSAN=ON >/dev/null
cmake --build build-tsan -j "$(nproc)" --target \
  runtime_test session_server_test runtime_determinism_test delta_update_test \
  batch_eval_test catalog_csv_test render_image_test
(cd build-tsan && ctest --output-on-failure \
  -R 'runtime|session_server|delta_update|batch_eval|catalog_csv|render_image')

# ^determinism_test$ is anchored so the filter skips runtime_determinism_test,
# which these two passes do not build.
echo "== asan: columnar + batch evaluation + join + aggregates + determinism + program_io + render image + raster tests =="
cmake -B build-asan -S . -DTIOGA2_ASAN=ON >/dev/null
cmake --build build-asan -j "$(nproc)" --target \
  columnar_test batch_eval_test operators_test join_test display_relation_test \
  aggregates_test determinism_test program_io_test render_image_test render_test \
  raster_reference_test
(cd build-asan && ctest --output-on-failure \
  -R 'columnar_test|batch_eval_test|operators_test|join_test|display_relation_test|aggregates_test|^determinism_test$|program_io_test|render_image_test|^render_test$|raster_reference_test')

echo "== ubsan: join + operator + aggregates + display relation + determinism + program_io + render image + raster + date + builtins + storage tests =="
cmake -B build-ubsan -S . -DTIOGA2_UBSAN=ON >/dev/null
cmake --build build-ubsan -j "$(nproc)" --target \
  join_test operators_test columnar_test batch_eval_test aggregates_test \
  display_relation_test determinism_test program_io_test render_image_test render_test \
  raster_reference_test date_test builtins_test storage_test
(cd build-ubsan && ctest --output-on-failure \
  -R 'join_test|operators_test|columnar_test|batch_eval_test|aggregates_test|display_relation_test|^determinism_test$|program_io_test|render_image_test|^render_test$|raster_reference_test|^date_test$|^builtins_test$|^storage_test$')

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
