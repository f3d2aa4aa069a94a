// Delta propagation equivalence: after randomized single-tuple §8 edits,
// every figure program evaluates to bit-identical outputs and stamps whether
// the engine maintained its memo cache incrementally (Invalidation::Delta)
// or recomputed from scratch. This is the guarantee that makes the delta
// fast path invisible: same fingerprints, same stamps, only less work.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "boxes/relational_boxes.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"

namespace tioga2::testing {
namespace {

/// A canvas evaluation target: the edge feeding a viewer box.
struct Target {
  std::string canvas;
  std::string from;
  size_t from_port = 0;
};

std::vector<Target> TargetsOf(const dataflow::Graph& graph) {
  std::vector<Target> targets;
  for (const std::string& id : graph.BoxIds()) {
    const auto* viewer =
        dynamic_cast<const boxes::ViewerBox*>(graph.GetBox(id).value());
    if (viewer == nullptr) continue;
    std::optional<dataflow::Edge> edge = graph.IncomingEdge(id, 0);
    if (!edge.has_value()) continue;
    targets.push_back(Target{viewer->canvas(), edge->from_box, edge->from_port});
  }
  return targets;
}

/// The base tables the program reads (sorted, unique).
std::vector<std::string> TablesOf(const dataflow::Graph& graph) {
  std::vector<std::string> tables;
  for (const std::string& id : graph.BoxIds()) {
    const auto* table =
        dynamic_cast<const boxes::TableBox*>(graph.GetBox(id).value());
    if (table == nullptr) continue;
    if (std::find(tables.begin(), tables.end(), table->table()) == tables.end()) {
      tables.push_back(table->table());
    }
  }
  std::sort(tables.begin(), tables.end());
  return tables;
}

/// Builds `program` into a fresh environment.
std::unique_ptr<Environment> BuildEnv(const FigProgram& program) {
  auto env = std::make_unique<Environment>();
  EXPECT_TRUE(env->LoadDemoData(program.extra_stations, program.num_days).ok())
      << program.name;
  Status built = program.build(env.get());
  EXPECT_TRUE(built.ok()) << program.name << ": " << built.message();
  return env;
}

/// One planned single-tuple edit, absolute (the full replacement tuple), so
/// replaying the same plan on an identically seeded environment installs
/// byte-identical tables.
struct Edit {
  std::string table;
  size_t row = 0;
  db::Tuple new_tuple;
};

/// Perturbs one numeric value of one pseudo-random row per table, two rounds.
/// Deterministic: the RNG is seeded from nothing but the program name, and
/// the plan is built against the freshly loaded (seeded) demo tables.
std::vector<Edit> PlanEdits(Environment* env, const dataflow::Graph& graph,
                            const std::string& program_name) {
  std::mt19937_64 rng(0x7109a2 ^ std::hash<std::string>{}(program_name));
  std::vector<Edit> edits;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& table : TablesOf(graph)) {
      auto relation = env->catalog().GetTable(table);
      if (!relation.ok() || relation.value()->num_rows() == 0) continue;
      const db::Relation& rel = *relation.value();
      size_t row = rng() % rel.num_rows();
      std::vector<size_t> numeric;
      for (size_t c = 0; c < rel.num_columns(); ++c) {
        const types::Value& v = rel.at(row, c);
        if (v.is_int() || v.is_float()) numeric.push_back(c);
      }
      if (numeric.empty()) continue;
      size_t col = numeric[rng() % numeric.size()];
      db::Tuple tuple = rel.row(row);
      if (tuple[col].is_int()) {
        tuple[col] = types::Value::Int(tuple[col].int_value() +
                                       1 + static_cast<int64_t>(rng() % 5));
      } else {
        tuple[col] = types::Value::Float(tuple[col].float_value() +
                                         0.25 * (1.0 + static_cast<double>(rng() % 4)));
      }
      edits.push_back(Edit{table, row, std::move(tuple)});
    }
  }
  return edits;
}

/// Reference outcome: a fresh environment with the edits installed before
/// any evaluation, evaluated cold through the serial engine.
struct Reference {
  std::map<std::string, std::string> fingerprints;  // canvas -> fingerprint
  std::map<std::string, std::optional<uint64_t>> stamps;
};

Reference FullRecompute(const FigProgram& program, const std::vector<Edit>& edits) {
  Reference ref;
  auto env = BuildEnv(program);
  for (const Edit& edit : edits) {
    auto delta = env->catalog().UpdateRow(edit.table, edit.row, edit.new_tuple);
    EXPECT_TRUE(delta.ok()) << edit.table << ": " << delta.status().message();
  }
  ui::Session& session = env->session();
  for (const Target& t : TargetsOf(session.graph())) {
    auto value = session.engine().Evaluate(session.graph(), t.from, t.from_port);
    EXPECT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
    if (value.ok()) ref.fingerprints[t.canvas] = FingerprintBoxValue(value.value());
  }
  for (const std::string& id : session.graph().BoxIds()) {
    ref.stamps[id] = session.engine().cache().StampOf(id);
  }
  return ref;
}

TEST(DeltaUpdateTest, DeltaMatchesFullRecomputeOnEveryFigProgram) {
  for (const FigProgram& program : AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    auto env = BuildEnv(program);
    ui::Session& session = env->session();
    std::vector<Target> targets = TargetsOf(session.graph());
    ASSERT_EQ(targets.size(), program.canvases.size());

    // Warm the cache (the delta path maintains memoized entries; with a cold
    // cache there is nothing to maintain).
    for (const Target& t : targets) {
      auto value = session.engine().Evaluate(session.graph(), t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
    }

    std::vector<Edit> edits = PlanEdits(env.get(), session.graph(), program.name);
    ASSERT_FALSE(edits.empty());
    size_t applied = 0;
    for (const Edit& edit : edits) {
      auto delta = env->catalog().UpdateRow(edit.table, edit.row, edit.new_tuple);
      ASSERT_TRUE(delta.ok()) << edit.table << ": " << delta.status().message();
      auto result = session.engine().Invalidate(
          session.graph(), dataflow::Invalidation::Delta(delta.value()));
      ASSERT_TRUE(result.ok()) << result.status().message();
      applied += result.value().deltas_applied;
    }
    // Every program reads at least one table whose source box is warm, and
    // TableBox always accepts its own table's delta.
    EXPECT_GT(applied, 0u);

    Reference ref = FullRecompute(program, edits);
    for (const Target& t : targets) {
      auto value = session.engine().Evaluate(session.graph(), t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
      ASSERT_EQ(ref.fingerprints.count(t.canvas), 1u);
      EXPECT_EQ(FingerprintBoxValue(value.value()), ref.fingerprints.at(t.canvas))
          << t.canvas;
    }
    for (const std::string& id : session.graph().BoxIds()) {
      ASSERT_EQ(ref.stamps.count(id), 1u) << id;
      EXPECT_EQ(session.engine().cache().StampOf(id), ref.stamps.at(id)) << id;
    }
  }
}

// Boxes without a delta fast path (fig03's Sample and Join) decline and are
// evicted; the counters say so, and the results stay correct anyway.
TEST(DeltaUpdateTest, BoxesWithoutFastPathFallBackToEviction) {
  std::vector<FigProgram> programs = AllFigPrograms();
  const FigProgram& fig03 = programs[1];
  ASSERT_EQ(fig03.name, "fig03");

  auto env = BuildEnv(fig03);
  ui::Session& session = env->session();
  std::vector<Target> targets = TargetsOf(session.graph());
  for (const Target& t : targets) {
    ASSERT_TRUE(
        session.engine().Evaluate(session.graph(), t.from, t.from_port).ok());
  }

  // Edit Observations: its delta flows into Sample, which has no fast path.
  auto relation = env->catalog().GetTable("Observations");
  ASSERT_TRUE(relation.ok());
  db::Tuple tuple = relation.value()->row(0);
  auto temp = relation.value()->schema()->ColumnIndex("temperature");
  ASSERT_TRUE(temp.ok());
  tuple[temp.value()] =
      types::Value::Float(tuple[temp.value()].float_value() + 1.0);
  std::vector<Edit> edits = {Edit{"Observations", 0, tuple}};
  auto delta = env->catalog().UpdateRow("Observations", 0, edits[0].new_tuple);
  ASSERT_TRUE(delta.ok());
  auto result = session.engine().Invalidate(
      session.graph(), dataflow::Invalidation::Delta(delta.value()));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().deltas_applied, 0u);     // the Table box accepts
  EXPECT_GT(result.value().delta_fallbacks, 0u);    // Sample declines
  EXPECT_GT(result.value().entries_evicted, 0u);    // ... and is evicted
  EXPECT_EQ(session.engine().stats().delta_fallbacks,
            result.value().delta_fallbacks);

  Reference ref = FullRecompute(fig03, edits);
  for (const Target& t : targets) {
    auto value = session.engine().Evaluate(session.graph(), t.from, t.from_port);
    ASSERT_TRUE(value.ok()) << t.canvas;
    EXPECT_EQ(FingerprintBoxValue(value.value()), ref.fingerprints.at(t.canvas))
        << t.canvas;
  }
}

// The delta renderer: after a single-tuple edit, repainting only the dirty
// rectangles produces a framebuffer byte-identical to a full Clear + render
// of the new content.
TEST(DeltaUpdateTest, RenderDeltaToIsPixelIdenticalToFullRepaint) {
  std::vector<FigProgram> programs = AllFigPrograms();
  const FigProgram& fig07 = programs[4];
  ASSERT_EQ(fig07.name, "fig07");

  auto env = BuildEnv(fig07);
  ui::Session& session = env->session();
  auto viewer = env->GetViewer("fig7");
  ASSERT_TRUE(viewer.ok()) << viewer.status().message();
  constexpr int kW = 320, kH = 240;
  ASSERT_TRUE(viewer.value()->FitContent(kW, kH).ok());

  viewer::RenderOptions options;
  options.registry = &session.registry();
  render::Framebuffer fb_delta(kW, kH);
  render::RasterSurface surface_delta(&fb_delta);
  ASSERT_TRUE(viewer.value()->RenderTo(&surface_delta, options).ok());

  // Nudge one Louisiana station: its dot and label move a little.
  auto stations = env->catalog().GetTable("Stations");
  ASSERT_TRUE(stations.ok());
  auto state_col = stations.value()->schema()->ColumnIndex("state");
  auto lat_col = stations.value()->schema()->ColumnIndex("latitude");
  ASSERT_TRUE(state_col.ok());
  ASSERT_TRUE(lat_col.ok());
  std::optional<size_t> target_row;
  for (size_t r = 0; r < stations.value()->num_rows(); ++r) {
    const types::Value& state = stations.value()->at(r, state_col.value());
    if (state.is_string() && state.string_value() == "LA") {
      target_row = r;
      break;
    }
  }
  ASSERT_TRUE(target_row.has_value());
  db::Tuple tuple = stations.value()->row(*target_row);
  tuple[lat_col.value()] =
      types::Value::Float(tuple[lat_col.value()].float_value() + 0.05);
  auto delta = env->catalog().UpdateRow("Stations", *target_row, tuple);
  ASSERT_TRUE(delta.ok());
  auto result = session.engine().Invalidate(
      session.graph(), dataflow::Invalidation::Delta(delta.value()));
  ASSERT_TRUE(result.ok());

  // The whole fig07 chain is delta-capable, so the canvas value must carry
  // an edit script — that is what the dirty-rect renderer consumes.
  const Target* fig7_target = nullptr;
  std::vector<Target> targets = TargetsOf(session.graph());
  for (const Target& t : targets) {
    if (t.canvas == "fig7") fig7_target = &t;
  }
  ASSERT_NE(fig7_target, nullptr);
  auto box_deltas = result.value().box_deltas.find(fig7_target->from);
  ASSERT_NE(box_deltas, result.value().box_deltas.end())
      << "canvas value fell back to recompute";
  ASSERT_GT(box_deltas->second.size(), fig7_target->from_port);
  const dataflow::ValueDelta& canvas_delta =
      box_deltas->second[fig7_target->from_port];
  ASSERT_FALSE(canvas_delta.unchanged());

  auto stats = viewer.value()->RenderDeltaTo(&surface_delta, canvas_delta,
                                             draw::kWhite, options);
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  render::Framebuffer fb_full(kW, kH);
  render::RasterSurface surface_full(&fb_full);
  ASSERT_TRUE(viewer.value()->RenderTo(&surface_full, options).ok());

  size_t mismatches = 0;
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      if (!(fb_delta.Get(x, y) == fb_full.Get(x, y))) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The render drew something at all.
  EXPECT_GT(fb_full.CountPixelsNotEqual(draw::kWhite), 0u);

  // A delta the renderer cannot bound (an insert op) falls back to a full
  // repaint — still pixel-identical.
  dataflow::ValueDelta insert_delta = canvas_delta;
  insert_delta.members[0].ops[0].kind = dataflow::RowOp::Kind::kInsert;
  render::Framebuffer fb_fallback(kW, kH);
  render::RasterSurface surface_fallback(&fb_fallback);
  ASSERT_TRUE(viewer.value()->RenderTo(&surface_fallback, options).ok());
  auto fallback = viewer.value()->RenderDeltaTo(&surface_fallback, insert_delta,
                                                draw::kWhite, options);
  ASSERT_TRUE(fallback.ok()) << fallback.status().message();
  mismatches = 0;
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      if (!(fb_fallback.Get(x, y) == fb_full.Get(x, y))) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace tioga2::testing
