// Paper claim (§2): "Execution is lazy, evaluating only what is required to
// produce the demanded visualization", and (§1.2) incremental modifications
// give immediate feedback.
//
// Reproduction + ablation (DESIGN.md §4): lazy demand-driven evaluation vs
// the eager evaluate-everything baseline on a program with many undemanded
// branches, and memoized vs cold recomputation after a one-box edit.

#include "bench/bench_common.h"

namespace tioga2::bench {
namespace {

/// Builds a program with one demanded chain and `branches` undemanded
/// side-branches hanging off the source (each a Restrict + Project).
void BuildBranchy(Environment* env, int branches) {
  ui::Session& session = env->session();
  std::string stations = Must(session.AddTable("Stations"), "t");
  std::string demanded =
      Must(session.AddBox("Restrict", {{"predicate", "state = \"LA\""}}), "r");
  MustOk(session.Connect(stations, 0, demanded, 0), "w");
  Must(session.AddViewer(demanded, 0, "demanded"), "viewer");
  for (int i = 0; i < branches; ++i) {
    std::string r = Must(
        session.AddBox("Restrict",
                       {{"predicate", "altitude > " + std::to_string(i * 10)}}),
        "r");
    std::string p =
        Must(session.AddBox("Project", {{"columns", "name,altitude"}}), "p");
    MustOk(session.Connect(stations, 0, r, 0), "w");
    MustOk(session.Connect(r, 0, p, 0), "w");
  }
}

void Report() {
  ReportHeader("Claim: lazy evaluation",
               "\"execution is lazy, evaluating only what is required\" (§2)");
  Environment env;
  MustOk(env.LoadDemoData(5000, 10), "load");
  BuildBranchy(&env, 16);
  ui::Session& session = env.session();
  session.engine().ResetStats();
  MustOk(session.EvaluateCanvas("demanded").status(), "lazy");
  uint64_t lazy_fired = session.engine().stats().boxes_fired;
  ClearMemo(session.engine(), session.graph());
  session.engine().ResetStats();
  MustOk(session.engine().EvaluateAll(session.graph()), "eager");
  uint64_t eager_fired = session.engine().stats().boxes_fired;
  std::printf("  program: 1 demanded chain + 16 idle branches (%zu boxes)\n",
              session.graph().num_boxes());
  std::printf("  lazy (demanded viewer only): %llu boxes fired\n",
              static_cast<unsigned long long>(lazy_fired));
  std::printf("  eager (whole program):       %llu boxes fired (%.1fx more work)\n",
              static_cast<unsigned long long>(eager_fired),
              static_cast<double>(eager_fired) / static_cast<double>(lazy_fired));

  // Incremental feedback: edit one box, recompute.
  ClearMemo(session.engine(), session.graph());
  MustOk(session.EvaluateCanvas("demanded").status(), "warm");
  session.engine().ResetStats();
  MustOk(session.EvaluateCanvas("demanded").status(), "memo");
  std::printf("  re-evaluation after no edit: %llu boxes fired, %llu cache hits\n",
              static_cast<unsigned long long>(session.engine().stats().boxes_fired),
              static_cast<unsigned long long>(session.engine().stats().cache_hits));
}

void BM_LazyDemandedOnly(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(2000, 10), "load");
  BuildBranchy(&env, static_cast<int>(state.range(0)));
  ui::Session& session = env.session();
  for (auto _ : state) {
    ClearMemo(session.engine(), session.graph());
    benchmark::DoNotOptimize(session.EvaluateCanvas("demanded"));
  }
  state.counters["idle_branches"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_LazyDemandedOnly)->Arg(0)->Arg(8)->Arg(32);

void BM_EagerWholeProgram(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(2000, 10), "load");
  BuildBranchy(&env, static_cast<int>(state.range(0)));
  ui::Session& session = env.session();
  for (auto _ : state) {
    ClearMemo(session.engine(), session.graph());
    MustOk(session.engine().EvaluateAll(session.graph()), "eager");
  }
  state.counters["idle_branches"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EagerWholeProgram)->Arg(0)->Arg(8)->Arg(32);

void BM_IncrementalEditMemoized(benchmark::State& state) {
  // Edit the tail of a deep chain: with memoization only the edited suffix
  // re-fires, so feedback latency is independent of upstream depth.
  Environment env;
  MustOk(env.LoadDemoData(2000, 10), "load");
  ui::Session& session = env.session();
  std::string previous = Must(session.AddTable("Stations"), "t");
  for (int64_t i = 0; i < state.range(0); ++i) {
    std::string box = Must(
        session.AddBox("Restrict",
                       {{"predicate", "altitude > " + std::to_string(i)}}),
        "r");
    MustOk(session.Connect(previous, 0, box, 0), "w");
    previous = box;
  }
  std::string tail = Must(session.AddBox("Restrict", {{"predicate", "true"}}), "tail");
  MustOk(session.Connect(previous, 0, tail, 0), "w");
  Must(session.AddViewer(tail, 0, "deep"), "viewer");
  MustOk(session.EvaluateCanvas("deep").status(), "warm");
  int64_t flip = 0;
  for (auto _ : state) {
    MustOk(session.ReplaceBox(
               tail, "Restrict",
               {{"predicate", (flip++ % 2) == 0 ? "altitude >= 0" : "true"}}),
           "edit");
    benchmark::DoNotOptimize(session.EvaluateCanvas("deep"));
  }
  state.counters["chain_depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_IncrementalEditMemoized)->Arg(2)->Arg(8)->Arg(32);

void BM_IncrementalEditCold(benchmark::State& state) {
  // The no-memoization baseline: invalidate everything on each edit.
  Environment env;
  MustOk(env.LoadDemoData(2000, 10), "load");
  ui::Session& session = env.session();
  std::string previous = Must(session.AddTable("Stations"), "t");
  for (int64_t i = 0; i < state.range(0); ++i) {
    std::string box = Must(
        session.AddBox("Restrict",
                       {{"predicate", "altitude > " + std::to_string(i)}}),
        "r");
    MustOk(session.Connect(previous, 0, box, 0), "w");
    previous = box;
  }
  std::string tail = Must(session.AddBox("Restrict", {{"predicate", "true"}}), "tail");
  MustOk(session.Connect(previous, 0, tail, 0), "w");
  Must(session.AddViewer(tail, 0, "deep"), "viewer");
  int64_t flip = 0;
  for (auto _ : state) {
    MustOk(session.ReplaceBox(
               tail, "Restrict",
               {{"predicate", (flip++ % 2) == 0 ? "altitude >= 0" : "true"}}),
           "edit");
    ClearMemo(session.engine(), session.graph());
    benchmark::DoNotOptimize(session.EvaluateCanvas("deep"));
  }
  state.counters["chain_depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_IncrementalEditCold)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
