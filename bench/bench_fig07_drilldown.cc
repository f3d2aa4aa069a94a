// Figures 6+7: drill down — Set Range, Overlay, Shuffle, and the elevation
// map. "Station names disappear at high elevations, where they would be
// illegible" (§6.1).
//
// Reproduction: builds the Figure 7 composite (map + dots + labels with
// elevation ranges), renders it above and below the range boundary, and
// prints the elevation map. Benchmarks: render at both elevations, the
// elevation-range pre-filter ablation, and Overlay/Shuffle edits.

#include "bench/bench_common.h"

namespace tioga2::bench {
namespace {

/// Builds the Figure 7 program; returns the canvas name.
void BuildFig7(Environment* env) {
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
  std::string stations = Must(session.AddTable("Stations"), "Stations");
  std::string scatter = chain(stations, {
      {"Restrict", {{"predicate", "state = \"LA\""}}},
      {"SetLocation", {{"dim", "0"}, {"attr", "longitude"}}},
      {"SetLocation", {{"dim", "1"}, {"attr", "latitude"}}},
      {"AddLocationDimension", {{"attr", "altitude"}}}});
  std::string dots = chain(scatter, {
      {"AddAttribute",
       {{"name", "c"}, {"definition", "circle(0.05, \"#c81e1e\", true)"}}},
      {"SetDisplay", {{"attr", "c"}}},
      {"SetRange", {{"min", "2"}, {"max", "1000"}}},
      {"SetName", {{"name", "Dots"}}}});
  std::string labels = chain(scatter, {
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
}

void Report() {
  ReportHeader("Figure 7", "overlaid displays with restricted elevation ranges");
  Environment env;
  MustOk(env.LoadDemoData(100, 10), "load");
  BuildFig7(&env);
  auto viewer = Must(env.GetViewer("fig7"), "viewer");
  viewer->mutable_camera()->MoveTo(-91.5, 31.0);

  viewer->mutable_camera()->SetElevation(5.0);
  auto high = Must(env.RenderViewer(viewer, 800, 600, OutDir() + "/fig07_high.ppm"),
                   "render high");
  std::printf("  elevation 5.0: drew %zu tuples, %zu relation(s) outside range "
              "(Labels hidden)\n",
              high.tuples_drawn, high.relations_skipped);

  viewer->mutable_camera()->MoveTo(-90.5, 30.2);
  viewer->mutable_camera()->SetElevation(1.2);
  auto low = Must(env.RenderViewer(viewer, 800, 600, OutDir() + "/fig07_low.ppm"),
                  "render low");
  std::printf("  elevation 1.2: drew %zu tuples, %zu relation(s) outside range "
              "(Dots hidden, names visible)\n",
              low.tuples_drawn, low.relations_skipped);

  auto bars = Must(viewer->ElevationMap(0), "elevation map");
  std::printf("  elevation map (drawing order, ranges):\n");
  for (const auto& bar : bars) {
    std::printf("    %zu. %-7s [%g, %g]\n", bar.drawing_order,
                bar.relation_name.c_str(), bar.min_elevation, bar.max_elevation);
  }
  for (const std::string& warning : env.session().LastWarnings()) {
    std::printf("  warning surfaced (§6.1): %s\n", warning.c_str());
  }
}

void BM_RenderHighElevation(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(100, 10), "load");
  BuildFig7(&env);
  auto viewer = Must(env.GetViewer("fig7"), "viewer");
  viewer->mutable_camera()->MoveTo(-91.5, 31.0);
  viewer->mutable_camera()->SetElevation(5.0);
  render::Framebuffer fb(640, 480);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    fb.Clear(draw::kWhite);
    benchmark::DoNotOptimize(viewer->RenderTo(&surface));
  }
}
BENCHMARK(BM_RenderHighElevation);

void BM_RenderLowElevation(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(100, 10), "load");
  BuildFig7(&env);
  auto viewer = Must(env.GetViewer("fig7"), "viewer");
  viewer->mutable_camera()->MoveTo(-90.5, 30.2);
  viewer->mutable_camera()->SetElevation(1.2);
  render::Framebuffer fb(640, 480);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    fb.Clear(draw::kWhite);
    benchmark::DoNotOptimize(viewer->RenderTo(&surface));
  }
}
BENCHMARK(BM_RenderLowElevation);

void BM_ElevationRangeAblation(benchmark::State& state) {
  // Ablation (DESIGN.md §4): the whole-relation elevation-range pre-filter
  // vs a composite whose members are always "in range" (ranges widened), so
  // every tuple must be considered. arg 0 = with ranges, 1 = without.
  Environment env;
  MustOk(env.LoadDemoData(3000, 10), "load");
  ui::Session& session = env.session();
  std::string stations = Must(session.AddTable("Stations"), "t");
  std::string previous = stations;
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = Must(session.AddBox(type, params), type.c_str());
    MustOk(session.Connect(previous, 0, id, 0), "connect");
    previous = id;
  };
  chain("SetLocation", {{"dim", "0"}, {"attr", "longitude"}});
  chain("SetLocation", {{"dim", "1"}, {"attr", "latitude"}});
  chain("AddAttribute",
        {{"name", "l"},
         {"definition", "circle(0.1, \"#c81e1e\", true) + text(name, 0.2)"}});
  chain("SetDisplay", {{"attr", "l"}});
  bool use_range = state.range(0) == 0;
  chain("SetRange", {{"min", use_range ? "0" : "0"},
                     {"max", use_range ? "2" : "100000"}});
  Must(session.AddViewer(previous, 0, "abl"), "viewer");
  auto viewer = Must(env.GetViewer("abl"), "viewer");
  MustOk(viewer->FitContent(640, 480), "fit");  // elevation far above 2
  render::Framebuffer fb(640, 480);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    fb.Clear(draw::kWhite);
    benchmark::DoNotOptimize(viewer->RenderTo(&surface));
  }
  state.SetLabel(use_range ? "range-prefilter(skips relation)" : "no-range(draws all)");
}
BENCHMARK(BM_ElevationRangeAblation)->Arg(0)->Arg(1);

void BM_OverlayEdit(benchmark::State& state) {
  Environment env;
  MustOk(env.LoadDemoData(1000, 10), "load");
  ui::Session& session = env.session();
  std::string a = Must(session.AddTable("Stations"), "a");
  std::string b = Must(session.AddTable("LouisianaMap"), "b");
  std::string overlay = Must(session.AddBox("Overlay", {{"offset", ""}}), "o");
  MustOk(session.Connect(a, 0, overlay, 0), "w");
  MustOk(session.Connect(b, 0, overlay, 1), "w");
  Must(session.AddViewer(overlay, 0, "ov"), "viewer");
  for (auto _ : state) {
    ClearMemo(session.engine(), session.graph());
    benchmark::DoNotOptimize(session.EvaluateCanvas("ov"));
  }
}
BENCHMARK(BM_OverlayEdit);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
