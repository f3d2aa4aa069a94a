// Determinism goldens: the whole pipeline — data generation, evaluation,
// rasterization — must be bit-for-bit reproducible, and the raster and SVG
// backends must agree on what gets drawn.

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "data/generators.h"
#include "db/exec_policy.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"
#include "types/date.h"

namespace tioga2 {
namespace {

/// Builds the Figure 4 scatter in a fresh environment and renders it;
/// returns the PPM bytes.
std::string RenderScatterPpm() {
  Environment env;
  EXPECT_TRUE(env.LoadDemoData(/*extra_stations=*/100, /*num_days=*/5).ok());
  ui::Session& session = env.session();
  std::string previous = session.AddTable("Stations").value();
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = session.AddBox(type, params).value();
    EXPECT_TRUE(session.Connect(previous, 0, id, 0).ok());
    previous = id;
  };
  chain("Restrict", {{"predicate", "state = \"LA\""}});
  chain("SetLocation", {{"dim", "0"}, {"attr", "longitude"}});
  chain("SetLocation", {{"dim", "1"}, {"attr", "latitude"}});
  chain("AddAttribute",
        {{"name", "dot"},
         {"definition",
          "circle(0.06, lerp_color(\"#1e46c8\", \"#c81e1e\", altitude / 300.0), "
          "true) + offset(text(name, 0.1), -0.3, -0.2)"}});
  chain("SetDisplay", {{"attr", "dot"}});
  EXPECT_TRUE(session.AddViewer(previous, 0, "golden").ok());
  auto viewer = env.GetViewer("golden").value();
  EXPECT_TRUE(viewer->FitContent(320, 240).ok());
  render::Framebuffer fb(320, 240, draw::kWhite);
  render::RasterSurface surface(&fb);
  EXPECT_TRUE(viewer->RenderTo(&surface).ok());
  return fb.ToPpm();
}

TEST(DeterminismTest, IdenticalPixelsAcrossRuns) {
  std::string first = RenderScatterPpm();
  std::string second = RenderScatterPpm();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second) << "render is not deterministic";
  // And it actually drew something.
  EXPECT_GT(first.size(), 320u * 240u);
}

TEST(DeterminismTest, SampleBoxStableAcrossEvaluations) {
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(500, 5).ok());
  ui::Session& session = env.session();
  std::string stations = session.AddTable("Stations").value();
  std::string sample =
      session.AddBox("Sample", {{"probability", "0.3"}, {"seed", "99"}}).value();
  ASSERT_TRUE(session.Connect(stations, 0, sample, 0).ok());
  ASSERT_TRUE(session.AddViewer(sample, 0, "sampled").ok());
  auto first = display::AsRelation(session.EvaluateCanvas("sampled").value()).value();
  ASSERT_TRUE(session.engine()
                  .Invalidate(session.graph(),
                              dataflow::Invalidation::DownstreamOf("Stations"))
                  .ok());
  auto second = display::AsRelation(session.EvaluateCanvas("sampled").value()).value();
  EXPECT_TRUE(db::RelationEquals(*first.base(), *second.base()));
}

/// Pins the process-default execution policy for a scope. Engines without
/// their own policy follow it.
class PolicyGuard {
 public:
  explicit PolicyGuard(const db::ExecPolicy& policy) : saved_(db::DefaultExecPolicy()) {
    db::SetDefaultExecPolicy(policy);
  }
  ~PolicyGuard() { db::SetDefaultExecPolicy(saved_); }

 private:
  db::ExecPolicy saved_;
};

struct DrillOutcome {
  size_t joined_rows = 0;
  std::string fingerprint;
  std::map<std::string, std::optional<uint64_t>> stamps;
  bool sample_is_view = false;
};

/// Evaluates the drill chain — Observations -> AddAttribute -> Restrict ->
/// Sample -> GroupBy -> Join Stations — over freshly generated tables under
/// `policy`.
DrillOutcome EvaluateDrillChain(const db::ExecPolicy& policy) {
  PolicyGuard guard(policy);
  Environment env;
  db::RelationPtr stations = data::MakeStations(100, 3).value();
  db::RelationPtr observations =
      data::MakeObservations(*stations, types::Date::FromYmd(1985, 4, 1), 60, 4)
          .value();
  EXPECT_TRUE(env.catalog().RegisterTable("Stations", stations).ok());
  EXPECT_TRUE(env.catalog().RegisterTable("Observations", observations).ok());
  ui::Session& session = env.session();
  std::string previous = session.AddTable("Observations").value();
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = session.AddBox(type, params).value();
    EXPECT_TRUE(session.Connect(previous, 0, id, 0).ok());
    previous = id;
    return id;
  };
  chain("AddAttribute",
        {{"name", "celsius"}, {"definition", "(temperature - 32.0) * 5.0 / 9.0"}});
  chain("Restrict", {{"predicate", "temperature > 50.0"}});
  const std::string sample = chain("Sample", {{"probability", "0.8"}, {"seed", "7"}});
  const std::string grouped = chain(
      "GroupBy", {{"keys", "station_id"},
                  {"aggs", "avg:temperature:avg_t;count::n;max:precipitation:max_p"}});
  const std::string join =
      session.AddBox("Join", {{"predicate", "station_id = station_id_2"}}).value();
  EXPECT_TRUE(session.Connect(grouped, 0, join, 0).ok());
  EXPECT_TRUE(session.Connect(session.AddTable("Stations").value(), 0, join, 1).ok());

  DrillOutcome outcome;
  auto joined = session.engine().Evaluate(session.graph(), join, 0);
  EXPECT_TRUE(joined.ok()) << joined.status().ToString();
  if (!joined.ok()) return outcome;
  outcome.fingerprint = testing::FingerprintBoxValue(joined.value());
  auto joined_relation = display::AsRelation(std::get<display::Displayable>(*joined));
  if (joined_relation.ok()) outcome.joined_rows = joined_relation->num_rows();
  for (const std::string& id : session.graph().BoxIds()) {
    outcome.stamps[id] = session.engine().cache().StampOf(id);
  }
  auto sampled = session.engine().Evaluate(session.graph(), sample, 0);
  EXPECT_TRUE(sampled.ok());
  if (sampled.ok()) {
    auto relation = display::AsRelation(std::get<display::Displayable>(*sampled));
    outcome.sample_is_view = relation.ok() && relation->base()->is_view();
  }
  return outcome;
}

TEST(DeterminismTest, DrillChainIdenticalUnderEveryPolicy) {
  db::ExecPolicy scalar;
  scalar.vectorized = false;
  scalar.simd = db::SimdLevel::kScalar;
  db::ExecPolicy vectorized;
  vectorized.simd = db::SimdLevel::kScalar;
  db::ExecPolicy avx2;
  avx2.simd = db::SimdLevel::kAVX2;  // clamps to the best level the host runs

  const DrillOutcome oracle = EvaluateDrillChain(scalar);
  ASSERT_GT(oracle.joined_rows, 50u);  // one row per station with a kept day
  EXPECT_FALSE(oracle.sample_is_view);
  const std::pair<const char*, db::ExecPolicy> passes[] = {
      {"vectorized", vectorized}, {"avx2", avx2}};
  for (const auto& [name, policy] : passes) {
    SCOPED_TRACE(name);
    const DrillOutcome outcome = EvaluateDrillChain(policy);
    EXPECT_EQ(outcome.fingerprint, oracle.fingerprint);
    EXPECT_EQ(outcome.stamps, oracle.stamps);
    EXPECT_TRUE(outcome.sample_is_view);
  }
}

TEST(DeterminismTest, RasterAndSvgBackendsAgreeOnContent) {
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(0, 5).ok());
  ui::Session& session = env.session();
  std::string previous = session.AddTable("Stations").value();
  auto chain = [&](const std::string& type,
                   const std::map<std::string, std::string>& params) {
    std::string id = session.AddBox(type, params).value();
    ASSERT_TRUE(session.Connect(previous, 0, id, 0).ok());
    previous = id;
  };
  chain("SetLocation", {{"dim", "0"}, {"attr", "longitude"}});
  chain("SetLocation", {{"dim", "1"}, {"attr", "latitude"}});
  chain("AddAttribute",
        {{"name", "dot"}, {"definition", "circle(0.1, \"#c81e1e\", true)"}});
  chain("SetDisplay", {{"attr", "dot"}});
  ASSERT_TRUE(session.AddViewer(previous, 0, "agree").ok());
  auto viewer = env.GetViewer("agree").value();
  ASSERT_TRUE(viewer->FitContent(320, 240).ok());

  // Raster: 15 filled red circles worth of ink.
  render::Framebuffer fb(320, 240, draw::kWhite);
  render::RasterSurface raster(&fb);
  auto raster_stats = viewer->RenderTo(&raster).value();
  // SVG: exactly one <circle> element per drawn tuple.
  render::SvgSurface svg(320, 240);
  svg.Clear(draw::kWhite);
  auto svg_stats = viewer->RenderTo(&svg).value();
  EXPECT_EQ(raster_stats.tuples_drawn, svg_stats.tuples_drawn);
  std::string doc = svg.ToSvg();
  size_t circles = 0;
  for (size_t pos = doc.find("<circle"); pos != std::string::npos;
       pos = doc.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, svg_stats.tuples_drawn);
  EXPECT_GT(fb.CountPixels(draw::Color{0xC8, 0x1E, 0x1E}), svg_stats.tuples_drawn);
}

}  // namespace
}  // namespace tioga2
