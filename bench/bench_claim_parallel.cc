// Parallel-runtime claim: evaluating a multi-layer visualization with the
// engine fanning boxes out across a ThreadPool (ExecPolicy::runner) is
// faster than inline evaluation, with bit-identical results
// (runtime_determinism_test asserts the equality; this bench measures the
// speedup and exports it to bench_out/).
//
// The program is Figure 7 *as drawn*: three independent layers — Dots,
// Labels, and the Louisiana map — each with its own source-to-display chain,
// overlaid at the end. Inline, the engine walks the layers one after
// another; fanned out, it fires them concurrently, bounded by the heaviest
// single chain.

#include "bench/bench_common.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "testing/fig_programs.h"

namespace tioga2::bench {
namespace {

constexpr size_t kStations = 20000;
constexpr size_t kNumDays = 5;

/// Builds Figure 7 with fully independent layers (each layer restricts the
/// station table itself, as in the paper's drawing) and returns the id of
/// the final Overlay — the evaluation target.
std::string BuildFig7AsDrawn(Environment* env) {
  ui::Session& session = env->session();
  auto chain = [&session](std::string previous,
                          std::initializer_list<std::pair<
                              std::string, std::map<std::string, std::string>>>
                              boxes) {
    for (const auto& [type, params] : boxes) {
      std::string id = Must(session.AddBox(type, params), type.c_str());
      MustOk(session.Connect(previous, 0, id, 0), "connect");
      previous = id;
    }
    return previous;
  };
  auto scatter = [&](const char* what) {
    return chain(Must(session.AddTable("Stations"), what), {
        {"Restrict", {{"predicate", "state = \"LA\""}}},
        {"SetLocation", {{"dim", "0"}, {"attr", "longitude"}}},
        {"SetLocation", {{"dim", "1"}, {"attr", "latitude"}}},
        {"AddLocationDimension", {{"attr", "altitude"}}}});
  };
  std::string dots = chain(scatter("dots"), {
      {"AddAttribute",
       {{"name", "c"}, {"definition", "circle(0.05, \"#c81e1e\", true)"}}},
      {"SetDisplay", {{"attr", "c"}}},
      {"SetRange", {{"min", "2"}, {"max", "1000"}}},
      {"SetName", {{"name", "Dots"}}}});
  std::string labels = chain(scatter("labels"), {
      {"AddAttribute",
       {{"name", "l"},
        {"definition",
         "circle(0.05, \"#c81e1e\", true) + offset(text(name, 0.1), -0.25, -0.2)"}}},
      {"SetDisplay", {{"attr", "l"}}},
      {"SetRange", {{"min", "0"}, {"max", "2"}}},
      {"SetName", {{"name", "Labels"}}}});
  std::string map = chain(Must(session.AddTable("LouisianaMap"), "map"), {
      {"SetLocation", {{"dim", "0"}, {"attr", "x"}}},
      {"SetLocation", {{"dim", "1"}, {"attr", "y"}}},
      {"AddAttribute", {{"name", "seg"}, {"definition", "line(dx, dy, \"#646464\")"}}},
      {"SetDisplay", {{"attr", "seg"}}},
      {"SetName", {{"name", "Map"}}}});
  std::string overlay1 = Must(session.AddBox("Overlay", {{"offset", ""}}), "o1");
  MustOk(session.Connect(map, 0, overlay1, 0), "w");
  MustOk(session.Connect(dots, 0, overlay1, 1), "w");
  std::string overlay2 = Must(session.AddBox("Overlay", {{"offset", ""}}), "o2");
  MustOk(session.Connect(overlay1, 0, overlay2, 0), "w");
  MustOk(session.Connect(labels, 0, overlay2, 1), "w");
  Must(session.AddViewer(overlay2, 0, "fig7"), "viewer");
  return overlay2;
}

/// Lends `engine` `pool`, so independent boxes fan out across it.
void LendRunner(dataflow::Engine* engine, runtime::ThreadPool* pool) {
  db::ExecPolicy policy = db::DefaultExecPolicy();
  policy.runner = pool;
  engine->set_exec_policy(policy);
}

/// Best-of-`reps` cold-cache evaluation time in microseconds.
template <typename Invalidate, typename Evaluate>
double BestColdMicros(int reps, Invalidate invalidate, Evaluate evaluate) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    invalidate();
    auto start = std::chrono::steady_clock::now();
    evaluate();
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (i == 0 || micros < best) best = micros;
  }
  return best;
}

void Report() {
  ReportHeader("Parallel runtime",
               "multi-layer programs evaluate layers concurrently");
  Environment env;
  MustOk(env.LoadDemoData(kStations, kNumDays), "load");
  std::string target = BuildFig7AsDrawn(&env);
  ui::Session& session = env.session();
  const int reps = 5;

  double serial_us = BestColdMicros(
      reps, [&] { ClearMemo(session.engine(), session.graph()); },
      [&] {
        Must(session.engine().Evaluate(session.graph(), target, 0), "serial");
      });
  std::string serial_print = testing::FingerprintBoxValue(
      Must(session.engine().Evaluate(session.graph(), target, 0), "serial"));
  std::printf("  serial engine:       %10.0f us (cold cache, best of %d)\n",
              serial_us, reps);

  runtime::Metrics metrics;
  std::map<size_t, double> parallel_us;
  bool identical = true;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    runtime::ThreadPool pool(threads);
    dataflow::Engine engine(&env.catalog());
    LendRunner(&engine, &pool);
    if (threads == 4) engine.set_observer(&metrics);
    parallel_us[threads] = BestColdMicros(
        reps, [&] { ClearMemo(engine, session.graph()); },
        [&] { Must(engine.Evaluate(session.graph(), target, 0), "parallel"); });
    identical =
        identical &&
        testing::FingerprintBoxValue(Must(
            engine.Evaluate(session.graph(), target, 0), "parallel")) ==
            serial_print;
    std::printf("  parallel, %zu thread%s %10.0f us (speedup %.2fx)\n", threads,
                threads == 1 ? ": " : "s:", parallel_us[threads],
                serial_us / parallel_us[threads]);
  }
  double speedup4 = serial_us / parallel_us[4];
  std::printf("  outputs bit-identical to serial: %s\n", identical ? "yes" : "NO");
  // The speedup is bounded by the machine: on a single-core box the layers
  // time-slice one core and the most a correct scheduler can do is stay out
  // of the way (overhead < 15%). With >= 4 cores the three independent
  // layers must deliver the >= 1.5x claim.
  unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 4) {
    std::printf("  claim (>= 1.5x at 4 threads, %u cores): %.2fx -> %s\n", cores,
                speedup4, speedup4 >= 1.5 ? "REPRODUCED" : "NOT reproduced");
  } else {
    bool low_overhead = speedup4 >= 1.0 / 1.15;
    std::printf("  claim: only %u core(s) visible; no wall-clock speedup is "
                "possible here.\n  checked instead: scheduler overhead at 4 "
                "threads %.1f%% -> %s\n",
                cores, (1.0 / speedup4 - 1.0) * 100.0,
                low_overhead ? "PASS (re-run on >= 4 cores for the speedup)"
                             : "FAIL");
  }

  std::ofstream out(OutDir() + "/claim_parallel.json");
  out << "{\n  \"benchmark\": \"claim_parallel\",\n"
      << "  \"program\": \"fig07_as_drawn\",\n"
      << "  \"extra_stations\": " << kStations << ",\n"
      << "  \"hardware_cores\": " << cores << ",\n"
      << "  \"serial_us\": " << serial_us << ",\n"
      << "  \"parallel_us\": {";
  bool first = true;
  for (const auto& [threads, micros] : parallel_us) {
    out << (first ? "" : ", ") << "\"" << threads << "\": " << micros;
    first = false;
  }
  out << "},\n"
      << "  \"speedup_4_threads\": " << speedup4 << ",\n"
      << "  \"outputs_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"metrics_4_threads\": " << metrics.ToJson() << "\n}\n";
  std::printf("  wrote %s/claim_parallel.json\n", OutDir().c_str());
}

void BM_SerialColdEval(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(static_cast<size_t>(state.range(0)), kNumDays), "load");
  std::string target = BuildFig7AsDrawn(&env);
  ui::Session& session = env.session();
  for (auto _ : state) {
    ClearMemo(session.engine(), session.graph());
    benchmark::DoNotOptimize(
        session.engine().Evaluate(session.graph(), target, 0));
  }
  state.counters["stations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SerialColdEval)->Arg(4000);

void BM_ParallelColdEval(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(4000, kNumDays), "load");
  std::string target = BuildFig7AsDrawn(&env);
  runtime::ThreadPool pool(static_cast<size_t>(state.range(0)));
  dataflow::Engine engine(&env.catalog());
  LendRunner(&engine, &pool);
  for (auto _ : state) {
    ClearMemo(engine, env.session().graph());
    benchmark::DoNotOptimize(
        engine.Evaluate(env.session().graph(), target, 0));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelColdEval)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
