// Render images (DisplayRelation::Image): a frame reads each value's
// locations and drawables from an image built once per evaluation path.
// The scalar oracle and the default policy must therefore agree on every
// pixel, RenderStats, hit test and wormhole lookup of every figure canvas;
// the image's sharing and lifetime rules are checked beside that.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/relation.h"
#include "expr/batch.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"
#include "viewer/canvas_renderer.h"
#include "viewer/viewer.h"

namespace tioga2 {
namespace {

using display::Composite;
using display::DisplayRelation;
using display::RenderImage;
using types::DataType;
using types::Value;

constexpr int kWidth = 320;
constexpr int kHeight = 240;

db::ExecPolicy ScalarPolicy() {
  db::ExecPolicy policy;
  policy.vectorized = false;
  policy.simd = db::SimdLevel::kScalar;
  return policy;
}

/// Pins the process-default policy (the one HitTest and FindWormholeAt
/// read) for a scope.
class PolicyGuard {
 public:
  explicit PolicyGuard(const db::ExecPolicy& policy) : saved_(db::DefaultExecPolicy()) {
    db::SetDefaultExecPolicy(policy);
  }
  ~PolicyGuard() { db::SetDefaultExecPolicy(saved_); }

 private:
  db::ExecPolicy saved_;
};

std::string StatsString(const viewer::RenderStats& s) {
  return "total=" + std::to_string(s.tuples_total) +
         " drawn=" + std::to_string(s.tuples_drawn) +
         " slider=" + std::to_string(s.tuples_culled_slider) +
         " viewport=" + std::to_string(s.tuples_culled_viewport) +
         " skipped=" + std::to_string(s.relations_skipped) +
         " errors=" + std::to_string(s.tuple_errors) +
         " wormholes=" + std::to_string(s.wormholes_rendered);
}

/// What one canvas shows under one policy.
struct Observation {
  std::vector<std::string> frames;   // PPM bytes per camera
  std::vector<std::string> answers;  // stats, hits and wormholes, in order
  uint64_t drawn = 0;
};

/// Renders every canvas of `program`, evaluated and rendered under
/// `policy`, at its fitted cameras, zoomed out 3×, zoomed in 3×, and fitted
/// with every slider keeping its upper half (factor 0), and probes hit tests
/// and wormhole lookups on a seeded grid of points at each. fig09 gets a
/// magnifying glass that switches to its precipitation display.
Observation Observe(const testing::FigProgram& program, const db::ExecPolicy& policy) {
  PolicyGuard guard(policy);
  Observation out;
  Environment env;
  EXPECT_TRUE(env.LoadDemoData(program.extra_stations, program.num_days).ok());
  Status built = program.build(&env);
  EXPECT_TRUE(built.ok()) << built.ToString();
  env.session().engine().set_exec_policy(policy);
  viewer::RenderOptions options;
  options.policy = policy;
  for (const std::string& canvas : program.canvases) {
    viewer::Viewer viewer("parity", canvas, &env.session().registry());
    Status fitted = viewer.FitContent(kWidth, kHeight);
    EXPECT_TRUE(fitted.ok()) << canvas << ": " << fitted.ToString();
    if (program.name == "fig09") {
      viewer::MagnifyingGlass glass;
      glass.rect = render::DeviceRect{100, 70, 120, 100};
      glass.zoom = 3.0;
      glass.display_attribute = "precip_d";
      viewer.AddMagnifyingGlass(glass);
    }
    std::vector<viewer::Camera> homes;
    for (size_t m = 0; m < viewer.num_members(); ++m) {
      homes.push_back(viewer.camera_of(m));
    }
    // The last pass sets each slider dimension to keep its upper half.
    std::vector<viewer::Camera> sliders = homes;
    for (size_t m = 0; m < sliders.size(); ++m) {
      const display::DisplayRelation& relation =
          viewer.content().members()[m].entries()[0].relation;
      for (size_t d = 2; d < relation.Dimension(); ++d) {
        std::vector<double> values;
        for (size_t r = 0; r < relation.num_rows(); ++r) {
          Result<std::vector<double>> location = relation.LocationOf(r);
          if (location.ok()) values.push_back((*location)[d]);
        }
        if (values.empty()) continue;
        std::nth_element(values.begin(), values.begin() + values.size() / 2,
                         values.end());
        sliders[m].SetSlider(d, viewer::SliderRange{values[values.size() / 2], 1e300});
      }
    }
    Rng rng(0x5eed);
    for (double factor : {1.0, 3.0, 1.0 / 3.0, 0.0}) {
      for (size_t m = 0; m < homes.size(); ++m) {
        *viewer.mutable_camera_of(m) = factor == 0.0 ? sliders[m] : homes[m];
        if (factor != 0.0) viewer.mutable_camera_of(m)->Zoom(1.0 / factor);
      }
      render::Framebuffer fb(kWidth, kHeight);
      render::RasterSurface surface(&fb);
      surface.Clear(draw::kWhite);
      Result<viewer::RenderStats> stats = viewer.RenderTo(&surface, options);
      EXPECT_TRUE(stats.ok()) << canvas << ": " << stats.status().ToString();
      if (!stats.ok()) continue;
      out.drawn += stats->tuples_drawn;
      out.frames.push_back(fb.ToPpm());
      out.answers.push_back(canvas + " x" + std::to_string(factor) + " " +
                            StatsString(*stats));
      for (int probe = 0; probe < 40; ++probe) {
        const double dx = rng.Uniform(0, kWidth);
        const double dy = rng.Uniform(0, kHeight);
        Result<std::optional<viewer::Hit>> hit = viewer.HitTestAt(&surface, dx, dy);
        std::string answer = "hit@" + std::to_string(probe) + " ";
        if (!hit.ok()) {
          answer += hit.status().ToString();
        } else if (hit->has_value()) {
          answer += std::to_string((*hit)->group_member) + "/" +
                    std::to_string((*hit)->member) + "/" + std::to_string((*hit)->row) +
                    "/" + (*hit)->relation_name;
        } else {
          answer += "none";
        }
        out.answers.push_back(answer);
        const viewer::Camera& camera = viewer.camera();
        double wx = 0;
        double wy = 0;
        camera.DeviceToWorld(dx, dy, &wx, &wy);
        Result<std::optional<draw::WormholeSpec>> hole = viewer::FindWormholeAt(
            viewer.content().members()[viewer.active_member()], camera, wx, wy);
        out.answers.push_back(
            "hole@" + std::to_string(probe) + " " +
            (!hole.ok() ? hole.status().ToString()
                        : hole->has_value() ? (*hole)->destination_canvas : "none"));
      }
    }
  }
  return out;
}

TEST(RenderImageParityTest, EveryFigureCanvasIdenticalUnderScalarAndDefault) {
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    const uint64_t batches0 = metrics.render_location_batches.load();
    const uint64_t fallbacks0 = metrics.render_scalar_fallbacks.load();
    Observation scalar = Observe(program, ScalarPolicy());
    // The scalar path builds its images row by row and counts neither.
    EXPECT_EQ(metrics.render_location_batches.load(), batches0);
    EXPECT_EQ(metrics.render_scalar_fallbacks.load(), fallbacks0);
    Observation batched = Observe(program, db::DefaultExecPolicy());
    EXPECT_GT(metrics.render_location_batches.load(), batches0);
    EXPECT_GT(scalar.drawn, 0u);
    EXPECT_EQ(scalar.answers, batched.answers);
    ASSERT_EQ(scalar.frames.size(), batched.frames.size());
    for (size_t i = 0; i < scalar.frames.size(); ++i) {
      EXPECT_TRUE(scalar.frames[i] == batched.frames[i]) << "frame " << i << " differs";
    }
  }
}

TEST(RenderImageParityTest, MagnifyingGlassKeepsItsSwitchedValueAcrossFrames) {
  // fig09's glass draws the canvas's value through its precipitation display.
  // Frames of an unchanged canvas reuse the switched value, so three frames
  // build one image for the canvas and one for the glass. An edit rebuilds
  // each once, and the edited frame matches a fresh viewer's.
  const auto programs = testing::AllFigPrograms();
  const auto fig09 = std::find_if(programs.begin(), programs.end(),
                                  [](const auto& p) { return p.name == "fig09"; });
  ASSERT_NE(fig09, programs.end());
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(fig09->extra_stations, fig09->num_days).ok());
  ASSERT_TRUE(fig09->build(&env).ok());
  viewer::MagnifyingGlass glass;
  glass.rect = render::DeviceRect{100, 70, 120, 100};
  glass.zoom = 3.0;
  glass.display_attribute = "precip_d";
  auto frame = [](const viewer::Viewer& viewer) {
    render::Framebuffer fb(kWidth, kHeight);
    render::RasterSurface surface(&fb);
    surface.Clear(draw::kWhite);
    Result<viewer::RenderStats> stats = viewer.RenderTo(&surface);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return fb.ToPpm();
  };
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  auto builds = [&] {
    return metrics.render_location_batches.load() + metrics.render_scalar_fallbacks.load();
  };

  viewer::Viewer viewer("glass", "fig9", &env.session().registry());
  ASSERT_TRUE(viewer.FitContent(kWidth, kHeight).ok());
  viewer.AddMagnifyingGlass(glass);
  const uint64_t before = builds();
  const std::string first = frame(viewer);
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(frame(viewer) == first);
  EXPECT_EQ(builds() - before, 2u);

  std::string restrict_box;
  for (const std::string& id : env.session().graph().BoxIds()) {
    if (env.session().graph().GetBox(id).value()->type_name() == "Restrict") {
      restrict_box = id;
    }
  }
  ASSERT_TRUE(
      env.session().ReplaceBox(restrict_box, "Restrict", {{"predicate", "station_id = 2"}})
          .ok());
  ASSERT_TRUE(viewer.Refresh().ok());
  const uint64_t edited = builds();
  const std::string after = frame(viewer);
  EXPECT_TRUE(frame(viewer) == after);
  EXPECT_EQ(builds() - edited, 2u);
  EXPECT_FALSE(after == first);

  viewer::Viewer fresh("fresh", "fig9", &env.session().registry());
  ASSERT_TRUE(fresh.Refresh().ok());
  *fresh.mutable_camera() = viewer.camera();
  fresh.AddMagnifyingGlass(glass);
  EXPECT_TRUE(frame(fresh) == after);
}

/// Rows (x, y, z, hue) displayed as `circle(1.0, hue, true)`, with z a
/// slider dimension: a bad `hue` makes that row's display fail.
DisplayRelation Dots(const std::vector<std::string>& hues) {
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < hues.size(); ++i) {
    const double v = static_cast<double>(i);
    rows.push_back({Value::Float(v), Value::Float(v), Value::Float(v * 10),
                    Value::String(hues[i])});
  }
  auto base = db::MakeRelation({db::Column{"px", DataType::kFloat},
                                db::Column{"py", DataType::kFloat},
                                db::Column{"pz", DataType::kFloat},
                                db::Column{"hue", DataType::kString}},
                               rows)
                  .value();
  return DisplayRelation::WithDefaults("dots", base)
      .value()
      .SetLocationAttribute(0, "px")
      .value()
      .SetLocationAttribute(1, "py")
      .value()
      .AddLocationDimension("pz")
      .value()
      .AddAttribute("dot", "circle(1.0, hue, true)")
      .value()
      .SetDisplayAttribute("dot")
      .value();
}

TEST(RenderImageTest, CopiesShareAndEveryEditStartsAFreshImage) {
  const DisplayRelation dots = Dots({"#ff0000", "#00ff00", "#0000ff"});
  std::shared_ptr<const RenderImage> image = dots.Image();
  DisplayRelation copy = dots;
  EXPECT_EQ(copy.Image(), image);
  Composite composite(copy);
  EXPECT_EQ(composite.entries()[0].relation.Image(), image);

  auto base = dots.base();
  const std::vector<std::pair<std::string, Result<DisplayRelation>>> edits = {
      {"AddAttribute", dots.AddAttribute("w", "px * 2.0")},
      {"SetAttribute", dots.SetAttribute("dot", "circle(2.0, hue, true)")},
      {"RemoveAttribute", dots.AddAttribute("w", "1.0").value().RemoveAttribute("w")},
      {"SwapAttributes", dots.SwapAttributes("px", "py")},
      {"ScaleAttribute", dots.ScaleAttribute("px", 2.0)},
      {"TranslateAttribute", dots.TranslateAttribute("py", 1.0)},
      {"CombineDisplays", dots.CombineDisplays("both", "dot", "dot", 1.0, 0.0)},
      {"SetLocationAttribute", dots.SetLocationAttribute(0, "py")},
      {"AddLocationDimension", dots.AddLocationDimension("px")},
      {"RemoveLocationDimension", dots.RemoveLocationDimension(2)},
      {"SetDisplayAttribute", dots.SetDisplayAttribute("_display")},
      {"SetElevationRange", dots.SetElevationRange(0, 10)},
      {"Restrict", dots.Restrict("px >= 0.0")},
      {"Project", dots.Project({"px", "py", "pz", "hue"})},
      {"Sample", dots.Sample(1.0, 7)},
      {"WithBase", dots.WithBase(base)},
  };
  for (const auto& [name, edited] : edits) {
    ASSERT_TRUE(edited.ok()) << name << ": " << edited.status().ToString();
    EXPECT_NE(edited->Image(), image) << name << " shared its input's image";
  }
  // One value, two paths: the scalar oracle never reads the batch image.
  EXPECT_NE(dots.Image(ScalarPolicy()), image);
  EXPECT_EQ(dots.Image(ScalarPolicy()), dots.Image(ScalarPolicy()));
}

TEST(RenderImageTest, SliderCullPrecedesADisplayError) {
  // Row 1's colour does not parse, so the batch falls back to the per-row
  // path, which marks only that row's display as failed.
  const DisplayRelation dots = Dots({"#ff0000", "not a colour", "#0000ff"});
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  for (const db::ExecPolicy& policy : {ScalarPolicy(), db::ExecPolicy{}}) {
    SCOPED_TRACE(policy.vectorized ? "vectorized" : "scalar");
    const uint64_t fallbacks0 = metrics.render_scalar_fallbacks.load();
    std::shared_ptr<const RenderImage> image = dots.Image(policy);
    EXPECT_EQ(metrics.render_scalar_fallbacks.load() - fallbacks0,
              policy.vectorized ? 1u : 0u);
    EXPECT_EQ(image->errors[1], RenderImage::kDisplayError);
    EXPECT_EQ(image->errors[0] | image->errors[2], 0);

    viewer::RenderOptions options;
    options.policy = policy;
    render::Framebuffer fb(100, 100);
    render::RasterSurface surface(&fb);
    viewer::Camera camera(1, 1, 20, 100, 100);
    viewer::RenderStats open =
        viewer::RenderComposite(Composite(dots), camera, &surface, options).value();
    EXPECT_EQ(open.tuple_errors, 1u);
    EXPECT_EQ(open.tuples_culled_slider, 0u);
    EXPECT_EQ(open.tuples_drawn, 2u);
    // z = 10 is row 1's: a slider excluding it culls the row before its
    // display error can count.
    camera.SetSlider(2, viewer::SliderRange{15, 100});
    viewer::RenderStats culled =
        viewer::RenderComposite(Composite(dots), camera, &surface, options).value();
    EXPECT_EQ(culled.tuple_errors, 0u);
    EXPECT_EQ(culled.tuples_culled_slider, 2u);
    EXPECT_EQ(culled.tuples_drawn, 1u);
  }
}

TEST(RenderImageTest, ImageFreedWhenNoViewerHoldsItWhileTheMemoHoldsTheValue) {
  const testing::FigProgram program = testing::AllFigPrograms()[5];  // fig08
  ASSERT_EQ(program.name, "fig08");
  Environment env;
  ASSERT_TRUE(env.LoadDemoData(program.extra_stations, program.num_days).ok());
  ASSERT_TRUE(program.build(&env).ok());
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  std::weak_ptr<const RenderImage> fig8_image;
  std::weak_ptr<const RenderImage> temps_image;
  {
    auto viewer =
        std::make_unique<viewer::Viewer>("v", "fig8", &env.session().registry());
    ASSERT_TRUE(viewer->FitContent(kWidth, kHeight).ok());
    viewer->mutable_camera()->Zoom(4.0);  // close enough to open the wormholes
    render::Framebuffer fb(kWidth, kHeight);
    render::RasterSurface surface(&fb);
    const uint64_t builds0 = metrics.render_location_batches.load();
    viewer::RenderStats first = viewer->RenderTo(&surface).value();
    ASSERT_GT(first.wormholes_rendered, 1u);
    // One image for fig8's relation, one for temps, however many wormholes.
    EXPECT_EQ(metrics.render_location_batches.load() - builds0, 2u);
    // A frame of an unchanged value only culls and rasterizes.
    ASSERT_TRUE(viewer->Refresh().ok());
    viewer::RenderStats second = viewer->RenderTo(&surface).value();
    EXPECT_EQ(metrics.render_location_batches.load() - builds0, 2u);
    EXPECT_EQ(StatsString(first), StatsString(second));

    fig8_image = viewer->content().members()[0].entries()[0].relation.Image();
    const display::Displayable temps = env.session().registry().Resolve("temps").value();
    temps_image = display::AsGroup(temps).members()[0].entries()[0].relation.Image();
    EXPECT_EQ(metrics.render_location_batches.load() - builds0, 2u);
  }
  // The session's memo still holds both values, but no viewer holds their
  // images.
  EXPECT_TRUE(fig8_image.expired());
  EXPECT_TRUE(temps_image.expired());
  EXPECT_TRUE(env.session().registry().Resolve("fig8").ok());
}

TEST(RenderImageTest, ConcurrentRendersOfOneValueBuildItsImageOnce) {
  std::vector<std::string> hues;
  for (int i = 0; i < 3000; ++i) hues.push_back(i % 2 == 0 ? "#c81e1e" : "#1e46c8");
  const DisplayRelation dots = Dots(hues);
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  const uint64_t builds0 = metrics.render_location_batches.load();
  std::atomic<int> ready{0};
  viewer::ImageSet held[2];
  std::string pixels[2];
  auto render = [&](int t) {
    render::Framebuffer fb(200, 150);
    render::RasterSurface surface(&fb);
    Composite composite(dots);  // each thread's own copy of the shared value
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    Result<viewer::RenderStats> stats = viewer::RenderComposite(
        composite, viewer::Camera(1500, 1500, 3000, 200, 150), &surface, {}, &held[t]);
    EXPECT_TRUE(stats.ok());
    pixels[t] = fb.ToPpm();
  };
  std::thread a(render, 0);
  std::thread b(render, 1);
  a.join();
  b.join();
  EXPECT_EQ(metrics.render_location_batches.load() - builds0, 1u);
  ASSERT_EQ(held[0].size(), 1u);
  ASSERT_EQ(held[1].size(), 1u);
  EXPECT_EQ(held[0][0], held[1][0]);
  EXPECT_EQ(pixels[0], pixels[1]);
}

}  // namespace
}  // namespace tioga2
