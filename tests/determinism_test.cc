// Determinism goldens: the whole pipeline — data generation, evaluation,
// rasterization — must be bit-for-bit reproducible, and the raster and SVG
// backends must agree on what gets drawn.

#include <gtest/gtest.h>

#include "tioga2/environment.h"

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
