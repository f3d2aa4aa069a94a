#ifndef TIOGA2_BENCH_BENCH_COMMON_H_
#define TIOGA2_BENCH_BENCH_COMMON_H_

// Shared helpers for the figure-reproduction benchmarks. Each bench binary
// prints a human-readable reproduction report for its figure (what the
// paper shows, what this build produces — recorded in EXPERIMENTS.md), then
// runs google-benchmark timings.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "tioga2/environment.h"

namespace tioga2::bench {

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void MustOk(Status status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// Drops every memoized box output of `engine` (cold-cache timings).
inline void ClearMemo(dataflow::Engine& engine, const dataflow::Graph& graph) {
  Must(engine.Invalidate(graph, dataflow::Invalidation::All()), "invalidate");
}

/// Directory for rendered artifacts; created on first use.
inline std::string OutDir() {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  return "bench_out";
}

inline void ReportHeader(const char* id, const char* paper_content) {
  std::printf("==============================================================\n");
  std::printf("Reproduction %s\n", id);
  std::printf("  paper: %s\n", paper_content);
}

/// Builds the Figure 4 Louisiana scatter program inside `env`'s session:
/// Stations -> Restrict(LA) -> SetLocation(lon/lat) -> Altitude slider ->
/// circle display. Returns the id of the final box; the canvas is
/// registered as `canvas`.
inline std::string BuildScatter(Environment* env, const std::string& canvas) {
  ui::Session& session = env->session();
  std::string stations = Must(session.AddTable("Stations"), "Stations");
  std::string previous = stations;
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = Must(session.AddBox(type, params), type.c_str());
    MustOk(session.Connect(previous, 0, id, 0), "connect");
    previous = id;
  };
  chain("Restrict", {{"predicate", "state = \"LA\""}});
  chain("SetLocation", {{"dim", "0"}, {"attr", "longitude"}});
  chain("SetLocation", {{"dim", "1"}, {"attr", "latitude"}});
  chain("AddLocationDimension", {{"attr", "altitude"}});
  chain("AddAttribute",
        {{"name", "dot"}, {"definition", "circle(0.05, \"#c81e1e\", true)"}});
  chain("SetDisplay", {{"attr", "dot"}});
  Must(session.AddViewer(previous, 0, canvas), "viewer");
  return previous;
}

/// Runs google-benchmark with a short default min time so the whole bench
/// suite stays fast on one core; callers may still override on the command
/// line.
inline int RunBenchmarks(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.05";
  bool user_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0) user_set = true;
  }
  if (!user_set) args.push_back(min_time.data());
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace tioga2::bench

#endif  // TIOGA2_BENCH_BENCH_COMMON_H_
