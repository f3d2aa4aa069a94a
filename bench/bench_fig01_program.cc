// Figure 1: the program window with Stations -> Restrict -> Viewer and the
// default two-dimensional table view (§4, §5.2).
//
// Reproduction: builds the exact program of Figure 1 through the Session,
// evaluates it through the lazy engine, and renders the default
// terminal-monitor-style display to bench_out/fig01.ppm.
// Benchmarks: program construction, cold and memoized evaluation, and the
// default-display render.

#include "bench/bench_common.h"

namespace tioga2::bench {
namespace {

constexpr size_t kExtraStations = 200;

void Report() {
  ReportHeader("Figure 1",
               "program window + canvas with default table view of LA stations");
  Environment env;
  MustOk(env.LoadDemoData(kExtraStations, /*num_days=*/30), "load");
  ui::Session& session = env.session();
  std::string stations = Must(session.AddTable("Stations"), "Stations");
  std::string restrict =
      Must(session.AddBox("Restrict", {{"predicate", "state = \"LA\""}}), "Restrict");
  MustOk(session.Connect(stations, 0, restrict, 0), "connect");
  Must(session.AddViewer(restrict, 0, "fig1"), "viewer");

  auto content = Must(session.EvaluateCanvas("fig1"), "evaluate");
  auto relation = Must(display::AsRelation(content), "relation");
  std::printf("  built program: %s", session.graph().ToString().c_str());
  std::printf("  result: %zu LA stations of %zu total\n", relation.num_rows(),
              kExtraStations + 15);
  auto viewer = Must(env.GetViewer("fig1"), "viewer");
  MustOk(viewer->FitContent(800, 600), "fit");
  auto stats =
      Must(env.RenderViewer(viewer, 800, 600, OutDir() + "/fig01.ppm"), "render");
  std::printf("  rendered default table display: %zu tuples -> %s/fig01.ppm\n",
              stats.tuples_drawn, OutDir().c_str());
}

void BM_BuildProgram(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(kExtraStations, 30), "load");
  for (auto _ : state) {
    ui::Session session(&env.catalog());
    std::string stations = Must(session.AddTable("Stations"), "Stations");
    std::string restrict =
        Must(session.AddBox("Restrict", {{"predicate", "state = \"LA\""}}), "R");
    MustOk(session.Connect(stations, 0, restrict, 0), "connect");
    Must(session.AddViewer(restrict, 0, "fig1"), "viewer");
    benchmark::DoNotOptimize(session.graph().num_boxes());
  }
}
BENCHMARK(BM_BuildProgram);

void BM_EvaluateCold(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(static_cast<size_t>(state.range(0)), 30), "load");
  ui::Session& session = env.session();
  std::string stations = Must(session.AddTable("Stations"), "Stations");
  std::string restrict =
      Must(session.AddBox("Restrict", {{"predicate", "state = \"LA\""}}), "R");
  MustOk(session.Connect(stations, 0, restrict, 0), "connect");
  Must(session.AddViewer(restrict, 0, "fig1"), "viewer");
  for (auto _ : state) {
    ClearMemo(session.engine(), session.graph());
    benchmark::DoNotOptimize(session.EvaluateCanvas("fig1"));
  }
  state.counters["stations"] = static_cast<double>(state.range(0)) + 15;
}
BENCHMARK(BM_EvaluateCold)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EvaluateMemoized(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(10000, 30), "load");
  ui::Session& session = env.session();
  std::string stations = Must(session.AddTable("Stations"), "Stations");
  std::string restrict =
      Must(session.AddBox("Restrict", {{"predicate", "state = \"LA\""}}), "R");
  MustOk(session.Connect(stations, 0, restrict, 0), "connect");
  Must(session.AddViewer(restrict, 0, "fig1"), "viewer");
  MustOk(session.EvaluateCanvas("fig1").status(), "warm");
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.EvaluateCanvas("fig1"));
  }
}
BENCHMARK(BM_EvaluateMemoized);

void BM_RenderDefaultTable(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(kExtraStations, 30), "load");
  ui::Session& session = env.session();
  std::string stations = Must(session.AddTable("Stations"), "Stations");
  std::string restrict =
      Must(session.AddBox("Restrict", {{"predicate", "state = \"LA\""}}), "R");
  MustOk(session.Connect(stations, 0, restrict, 0), "connect");
  Must(session.AddViewer(restrict, 0, "fig1"), "viewer");
  auto viewer = Must(env.GetViewer("fig1"), "viewer");
  MustOk(viewer->FitContent(800, 600), "fit");
  render::Framebuffer fb(800, 600);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    fb.Clear(draw::kWhite);
    benchmark::DoNotOptimize(viewer->RenderTo(&surface));
  }
}
BENCHMARK(BM_RenderDefaultTable);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
