// Figure 9: magnifying glasses — a viewer inside a viewer, optionally
// showing an alternative display attribute (§7.2).
//
// Reproduction: temperature-vs-time with a precipitation magnifier rendered
// to bench_out/fig09.ppm. Benchmarks: render with/without the glass, zoom
// sweep, and the alternative-display switch cost.

#include "bench/bench_common.h"

namespace tioga2::bench {
namespace {

void BuildFig9(Environment* env) {
  ui::Session& session = env->session();
  std::string previous = Must(session.AddTable("Observations"), "obs");
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = Must(session.AddBox(type, params), type.c_str());
    MustOk(session.Connect(previous, 0, id, 0), "connect");
    previous = id;
  };
  chain("Restrict", {{"predicate", "station_id = 1"}});
  chain("AddAttribute", {{"name", "t"}, {"definition", "float(days(obs_date))"}});
  chain("SetLocation", {{"dim", "0"}, {"attr", "t"}});
  chain("SetLocation", {{"dim", "1"}, {"attr", "temperature"}});
  chain("AddAttribute", {{"name", "temp_d"}, {"definition", "point(\"#c81e1e\")"}});
  chain("AddAttribute",
        {{"name", "precip_d"},
         {"definition", "rect(0.9, precipitation * 15.0, \"#1e46c8\", true)"}});
  chain("SetDisplay", {{"attr", "temp_d"}});
  Must(session.AddViewer(previous, 0, "fig9"), "viewer");
}

viewer::MagnifyingGlass Glass(double zoom, bool alternative) {
  viewer::MagnifyingGlass glass;
  glass.rect = render::DeviceRect{380, 80, 220, 200};
  glass.zoom = zoom;
  if (alternative) glass.display_attribute = "precip_d";
  return glass;
}

void Report() {
  ReportHeader("Figure 9", "using a magnifying glass (alternative precipitation display)");
  Environment env;
  MustOk(env.LoadDemoData(10, 365), "load");
  BuildFig9(&env);
  auto viewer = Must(env.GetViewer("fig9"), "viewer");
  MustOk(viewer->FitContent(800, 600), "fit");
  viewer->AddMagnifyingGlass(Glass(4.0, /*alternative=*/true));
  auto stats = Must(env.RenderViewer(viewer, 800, 600, OutDir() + "/fig09.ppm"),
                    "render");
  std::printf("  temperature series with precipitation magnifier: %zu tuples "
              "(outer + magnified)\n",
              stats.tuples_drawn);
  std::printf("  glass: zoom 4x over device rect (380,80)+(220x200), display "
              "attribute 'precip_d'\n");
}

void BM_RenderWithoutGlass(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(10, 365), "load");
  BuildFig9(&env);
  auto viewer = Must(env.GetViewer("fig9"), "viewer");
  MustOk(viewer->FitContent(640, 480), "fit");
  render::Framebuffer fb(640, 480);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    fb.Clear(draw::kWhite);
    benchmark::DoNotOptimize(viewer->RenderTo(&surface));
  }
}
BENCHMARK(BM_RenderWithoutGlass);

void BM_RenderWithGlass(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(10, 365), "load");
  BuildFig9(&env);
  auto viewer = Must(env.GetViewer("fig9"), "viewer");
  MustOk(viewer->FitContent(640, 480), "fit");
  viewer->AddMagnifyingGlass(Glass(static_cast<double>(state.range(0)),
                                   /*alternative=*/state.range(1) == 1));
  render::Framebuffer fb(640, 480);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    fb.Clear(draw::kWhite);
    benchmark::DoNotOptimize(viewer->RenderTo(&surface));
  }
  state.counters["zoom"] = static_cast<double>(state.range(0));
  state.counters["alt_display"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_RenderWithGlass)
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({4, 1});

void BM_SwapDisplayAttribute(benchmark::State& state) {
  // The Figure 9 construction uses Swap Attributes to realize the
  // alternative display; measure the box-level path.
  Environment env;
  MustOk(env.LoadDemoData(10, 365), "load");
  ui::Session& session = env.session();
  std::string previous = Must(session.AddTable("Observations"), "obs");
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = Must(session.AddBox(type, params), type.c_str());
    MustOk(session.Connect(previous, 0, id, 0), "connect");
    previous = id;
  };
  chain("AddAttribute", {{"name", "a"}, {"definition", "point()"}});
  chain("AddAttribute", {{"name", "b"}, {"definition", "circle(1)"}});
  chain("SwapAttributes", {{"a", "a"}, {"b", "b"}});
  Must(session.AddViewer(previous, 0, "swapped"), "viewer");
  for (auto _ : state) {
    ClearMemo(session.engine(), session.graph());
    benchmark::DoNotOptimize(session.EvaluateCanvas("swapped"));
  }
}
BENCHMARK(BM_SwapDisplayAttribute);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
