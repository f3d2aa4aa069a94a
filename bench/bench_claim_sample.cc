// Paper claim (§4.2): "Sample is useful for improving interactive response
// by reducing the size of data sets to be processed."
//
// Reproduction: end-to-end canvas latency (evaluate + render) of a large
// observation scatter as a function of the sampling probability. The claim
// holds if latency scales down roughly linearly with p while the picture
// stays representative. The report times evaluation (Refresh) apart from
// rendering (RenderTo) over kColdRuns cold runs per probability and prints
// each as median [q1, q3]: a best-of-few figure cannot separate an operator
// change from the spread between process runs on a shared host.

#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/str_util.h"
#include "db/operators.h"

namespace tioga2::bench {
namespace {

void BuildSampled(Environment* env, double probability, const std::string& canvas) {
  ui::Session& session = env->session();
  std::string previous = Must(session.AddTable("Observations"), "obs");
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = Must(session.AddBox(type, params), type.c_str());
    MustOk(session.Connect(previous, 0, id, 0), "connect");
    previous = id;
  };
  if (probability < 1.0) {
    chain("Sample", {{"probability", FormatDouble(probability)}, {"seed", "42"}});
  }
  chain("AddAttribute", {{"name", "t"}, {"definition", "float(days(obs_date))"}});
  chain("SetLocation", {{"dim", "0"}, {"attr", "t"}});
  chain("SetLocation", {{"dim", "1"}, {"attr", "temperature"}});
  chain("AddAttribute", {{"name", "d"}, {"definition", "point(\"#1e46c8\")"}});
  chain("SetDisplay", {{"attr", "d"}});
  Must(session.AddViewer(previous, 0, canvas), "viewer");
}

constexpr int kColdRuns = 15;

/// "median [q1, q3]" of `ms`, by nearest rank.
std::string Quartiles(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  auto at = [&ms](double q) {
    return ms[static_cast<size_t>(q * static_cast<double>(ms.size() - 1) + 0.5)];
  };
  char text[64];
  std::snprintf(text, sizeof(text), "%.2f [%.2f, %.2f]", at(0.5), at(0.25),
                at(0.75));
  return text;
}

void Report() {
  ReportHeader("Claim: Sample for interactive response",
               "\"Sample is useful for improving interactive response\" (§4.2)");
  Environment env;
  MustOk(env.LoadDemoData(100, 365), "load");  // 115 stations x 365 days
  std::printf("  workload: %zu observation tuples end-to-end (evaluate + render)\n",
              Must(env.catalog().GetTable("Observations"), "t")->num_rows());
  std::printf("  %d cold runs per p; each column is median [q1, q3] in ms\n",
              kColdRuns);
  std::printf("  %-6s %8s  %-22s %-22s %-22s\n", "p", "tuples", "evaluate",
              "render", "total");
  for (double p : {0.01, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    Environment fresh;
    MustOk(fresh.LoadDemoData(100, 365), "load");
    BuildSampled(&fresh, p, "series");
    auto viewer = Must(fresh.GetViewer("series"), "viewer");
    MustOk(viewer->FitContent(640, 480), "fit");
    render::Framebuffer fb(640, 480);
    render::RasterSurface surface(&fb);
    // A cold engine each run: the interactive case is a fresh query.
    std::vector<double> evaluate_ms;
    std::vector<double> render_ms;
    std::vector<double> total_ms;
    size_t drawn = 0;
    for (int run = 0; run < kColdRuns; ++run) {
      ClearMemo(fresh.session().engine(), fresh.session().graph());
      fb.Clear(draw::kWhite);
      auto start = std::chrono::steady_clock::now();
      MustOk(viewer->Refresh(), "refresh");
      auto evaluated = std::chrono::steady_clock::now();
      auto stats = Must(viewer->RenderTo(&surface), "render");
      auto end = std::chrono::steady_clock::now();
      evaluate_ms.push_back(
          std::chrono::duration<double, std::milli>(evaluated - start).count());
      render_ms.push_back(
          std::chrono::duration<double, std::milli>(end - evaluated).count());
      total_ms.push_back(
          std::chrono::duration<double, std::milli>(end - start).count());
      drawn = stats.tuples_drawn + stats.tuples_culled_viewport +
              stats.tuples_culled_slider;
    }
    std::printf("  %-6g %8zu  %-22s %-22s %-22s\n", p, drawn,
                Quartiles(evaluate_ms).c_str(), Quartiles(render_ms).c_str(),
                Quartiles(total_ms).c_str());
  }
}

void BM_EndToEndBySampleProbability(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(100, 365), "load");
  double probability = static_cast<double>(state.range(0)) / 100.0;
  BuildSampled(&env, probability, "series");
  auto viewer = Must(env.GetViewer("series"), "viewer");
  MustOk(viewer->FitContent(640, 480), "fit");
  render::Framebuffer fb(640, 480);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    ClearMemo(env.session().engine(), env.session().graph());
    fb.Clear(draw::kWhite);
    MustOk(viewer->Refresh(), "refresh");
    benchmark::DoNotOptimize(viewer->RenderTo(&surface));
  }
  state.counters["p_percent"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EndToEndBySampleProbability)->Arg(1)->Arg(10)->Arg(25)->Arg(100);

void BM_SampleOperatorOnly(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(100, 365), "load");
  auto observations = Must(env.catalog().GetTable("Observations"), "t");
  double probability = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::Sample(observations, probability, 42));
  }
  state.counters["p_percent"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SampleOperatorOnly)->Arg(1)->Arg(25)->Arg(100);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
