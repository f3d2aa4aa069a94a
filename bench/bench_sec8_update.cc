// §8: update in Tioga-2 — click a screen object, engage the update dialog,
// install the new tuple, and recompute downstream visualizations.
//
// Reproduction: the inventory scenario of §8 ("the user would find an item
// of interest and then wish to order a certain number of the item, thereby
// decreasing the quantity on hand"). Benchmarks: hit testing, the update
// install, and the invalidation-plus-recompute cost vs table size.

#include "bench/bench_common.h"

#include "common/rng.h"
#include "db/relation.h"

namespace tioga2::bench {
namespace {

db::RelationPtr Inventory(size_t items) {
  db::Schema schema =
      Must(db::Schema::Make({db::Column{"item", types::DataType::kString},
                             db::Column{"shelf_x", types::DataType::kFloat},
                             db::Column{"shelf_y", types::DataType::kFloat},
                             db::Column{"on_hand", types::DataType::kInt}}),
           "schema");
  db::RelationBuilder builder(std::make_shared<const db::Schema>(std::move(schema)));
  Rng rng(11);
  for (size_t i = 0; i < items; ++i) {
    builder.AddRowUnchecked(db::Tuple{
        types::Value::String("ITEM_" + std::to_string(i)),
        types::Value::Float(rng.Uniform(0, 100)),
        types::Value::Float(rng.Uniform(0, 100)),
        types::Value::Int(static_cast<int64_t>(rng.NextBounded(50)))});
  }
  return builder.Build();
}

void SetUpStore(Environment* env, size_t items) {
  MustOk(env->catalog().RegisterTable("Inventory", Inventory(items)), "register");
  ui::Session& session = env->session();
  std::string inventory = Must(session.AddTable("Inventory"), "table");
  std::string previous = inventory;
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = Must(session.AddBox(type, params), type.c_str());
    MustOk(session.Connect(previous, 0, id, 0), "connect");
    previous = id;
  };
  chain("SetLocation", {{"dim", "0"}, {"attr", "shelf_x"}});
  chain("SetLocation", {{"dim", "1"}, {"attr", "shelf_y"}});
  chain("AddAttribute",
        {{"name", "d"},
         {"definition",
          "circle(1.5, if(on_hand = 0, \"#c81e1e\", \"#1ea03c\"), true)"}});
  chain("SetDisplay", {{"attr", "d"}});
  Must(session.AddViewer(previous, 0, "store"), "viewer");
}

void Report() {
  ReportHeader("Section 8", "update: click a screen object, decrease quantity on hand");
  Environment env;
  SetUpStore(&env, 50);
  auto viewer = Must(env.GetViewer("store"), "viewer");
  MustOk(viewer->FitContent(400, 400), "fit");
  render::Framebuffer fb(400, 400, draw::kWhite);
  render::RasterSurface surface(&fb);
  MustOk(viewer->RenderTo(&surface).status(), "render");

  // Click the first item.
  auto table = Must(env.catalog().GetTable("Inventory"), "table");
  double dx = 0;
  double dy = 0;
  viewer->camera().WorldToDevice(table->at(0, 1).float_value(),
                                 table->at(0, 2).float_value(), &dx, &dy);
  auto hit = Must(viewer->HitTestAt(&surface, dx, dy), "hit");
  if (!hit.has_value()) {
    std::printf("  (click missed; overlapping items)\n");
    return;
  }
  std::printf("  clicked tuple row %zu of '%s'\n", hit->row,
              hit->relation_name.c_str());
  int64_t before = table->at(hit->row, 3).int_value();
  MustOk(env.session().ClickUpdate("store", *hit, "Inventory",
                                   {{"on_hand", std::to_string(before - 1)}}),
         "update");
  auto after = Must(env.catalog().GetTable("Inventory"), "table");
  std::printf("  on_hand %lld -> %lld; table version %llu (downstream canvases "
              "recompute)\n",
              static_cast<long long>(before),
              static_cast<long long>(after->at(hit->row, 3).int_value()),
              static_cast<unsigned long long>(
                  Must(env.catalog().TableVersion("Inventory"), "version")));
}

void BM_HitTest(benchmark::State& state) {
  Environment env;
  SetUpStore(&env, static_cast<size_t>(state.range(0)));
  auto viewer = Must(env.GetViewer("store"), "viewer");
  MustOk(viewer->FitContent(400, 400), "fit");
  render::Framebuffer fb(400, 400);
  render::RasterSurface surface(&fb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(viewer->HitTestAt(&surface, 200, 200));
  }
  state.counters["items"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_HitTest)->Arg(100)->Arg(1000)->Arg(5000);

void BM_UpdateInstall(benchmark::State& state) {
  Environment env;
  SetUpStore(&env, static_cast<size_t>(state.range(0)));
  update::UpdateManager& updates = env.session().updates();
  int64_t counter = 0;
  for (auto _ : state) {
    MustOk(updates
               .ApplyUpdate("Inventory", 0,
                            {{"on_hand", std::to_string(counter++ % 50)}})
               .status(),
           "update");
  }
  state.counters["items"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_UpdateInstall)->Arg(100)->Arg(1000)->Arg(10000);

void BM_UpdateThenRecompute(benchmark::State& state) {
  // The §8 end-to-end path: install + re-evaluate the canvas (the table
  // version bump invalidates the memoized Table box).
  Environment env;
  SetUpStore(&env, static_cast<size_t>(state.range(0)));
  ui::Session& session = env.session();
  MustOk(session.EvaluateCanvas("store").status(), "warm");
  int64_t counter = 0;
  for (auto _ : state) {
    MustOk(session.updates()
               .ApplyUpdate("Inventory", 0,
                            {{"on_hand", std::to_string(counter++ % 50)}})
               .status(),
           "update");
    benchmark::DoNotOptimize(session.EvaluateCanvas("store"));
  }
  state.counters["items"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_UpdateThenRecompute)->Arg(100)->Arg(1000);

void BM_InvalidationScope(benchmark::State& state) {
  // Ablation for the §8 invalidation policy: after a single-table update,
  // ClickUpdate evicts only the boxes downstream of the edited table
  // (Invalidation::DownstreamOf), so canvases over other tables stay
  // memoized. arg 0 = targeted invalidation, arg 1 = clearing the whole
  // memo cache (Invalidation::All).
  Environment env;
  MustOk(env.LoadDemoData(2000, 5), "load");
  SetUpStore(&env, 1000);
  BuildScatter(&env, "stations");  // unrelated canvas over the Stations table
  ui::Session& session = env.session();
  MustOk(session.EvaluateCanvas("store").status(), "warm store");
  MustOk(session.EvaluateCanvas("stations").status(), "warm stations");
  bool targeted = state.range(0) == 0;
  int64_t counter = 0;
  for (auto _ : state) {
    MustOk(session.updates()
               .ApplyUpdate("Inventory", 0,
                            {{"on_hand", std::to_string(counter++ % 50)}})
               .status(),
           "update");
    if (targeted) {
      Must(session.engine().Invalidate(
               session.graph(), dataflow::Invalidation::DownstreamOf("Inventory")),
           "invalidate");
    } else {
      ClearMemo(session.engine(), session.graph());
    }
    benchmark::DoNotOptimize(session.EvaluateCanvas("store"));
    benchmark::DoNotOptimize(session.EvaluateCanvas("stations"));
  }
  state.SetLabel(targeted ? "downstream-only(stations stays warm)"
                          : "invalidate-all(stations recomputes)");
}
BENCHMARK(BM_InvalidationScope)->Arg(0)->Arg(1);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
