// navigate: one analyst touring a national station scatter. After warm-up
// every Refresh is a memo hit, so the time of an interaction sits in viewer
// culling, display evaluation and rasterization; nothing fires and neither
// db nor the server is touched. This is the workload for renderer changes
// (columnar drawables, raster items) and the one that should not move for
// firing-path or server changes.

#include <cmath>
#include <iterator>
#include <memory>

#include "common/rng.h"
#include "data/generators.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "tioga2/environment.h"
#include "workload.h"

namespace ibench {
namespace {

using tioga2::render::Framebuffer;
using tioga2::render::RasterSurface;
using tioga2::viewer::Camera;
using tioga2::viewer::MagnifyingGlass;
using tioga2::viewer::SliderRange;
using tioga2::viewer::Viewer;

/// Synthetic stations beyond the 15 Louisiana cities of the demo data.
constexpr size_t kStations = 10000;
constexpr int kWidth = 640;
constexpr int kHeight = 480;
/// The national view, and the lowest elevation the tour descends to: below
/// it filled circles and label glyphs cover so many pixels per tuple that a
/// single frame would cost many medians.
const Camera kHome(-97.0, 37.0, 45.0, kWidth, kHeight);
constexpr double kZoomStep = 1.3;
constexpr int kZoomFrames = 16;  // 45 / 1.3^16 = 0.68, above the 0.6 floor
constexpr double kPassElevation = 1.0;
constexpr size_t kCaptures = 8;
/// Zoom and magnifier targets: fixed points inside the data, visited in a
/// seeded rotation with seeded jitter, so every run visits each about
/// equally often and the seed changes the data and the path, not the mix of
/// frame costs.
const std::pair<double, double> kTargets[] = {
    {-110.0, 35.0}, {-100.0, 40.0}, {-90.0, 33.0}, {-85.0, 38.0},
    {-105.0, 43.0}, {-95.0, 31.0},  {-80.0, 36.0}, {-115.0, 40.0}};
constexpr size_t kNumTargets = std::size(kTargets);

enum Class { kPan, kZoom, kSlider, kWormhole, kMagnify, kGroup };
const std::vector<std::string> kClasses = {"pan",      "zoom",    "slider",
                                           "wormhole", "magnify", "group"};

/// One leg of the tour cycle: a class and its number of frames.
struct Leg {
  Class cls;
  int frames;
};
const std::vector<Leg> kLegs = {{kPan, 12},     {kZoom, 2 * kZoomFrames},
                                {kSlider, 8},   {kWormhole, 11},
                                {kMagnify, 8},  {kGroup, 10}};

int CycleFrames() {
  int n = 0;
  for (const Leg& leg : kLegs) n += leg.frames;
  return n;
}

/// Builds the tour program into `session` and saves it as "nav":
///  - "nation": Louisiana map + national dots (variable colour, above
///    elevation 2) + labelled dots (below 2) + wormholes at the Louisiana
///    cities (below 1.5) into "series";
///  - "series": one station's daily temperatures, the wormhole destination;
///  - "panels": a replicated group of per-state, per-altitude-band scatters.
void BuildProgram(tioga2::ui::Session* session) {
  Chain c(session);
  std::string stations = c.Table("Stations");
  std::string located =
      c.Extend(stations, {{"SetLocation", {{"dim", "0"}, {"attr", "longitude"}}},
                          {"SetLocation", {{"dim", "1"}, {"attr", "latitude"}}},
                          {"AddLocationDimension", {{"attr", "altitude"}}}});
  std::string dots = c.Extend(
      located,
      {{"AddAttribute",
        {{"name", "c"},
         {"definition",
          "circle(0.2, lerp_color(\"#1e46c8\", \"#c81e1e\", altitude / 6000.0), true)"}}},
       {"SetDisplay", {{"attr", "c"}}},
       {"SetRange", {{"min", "2"}, {"max", "1000"}}},
       {"SetName", {{"name", "Dots"}}}});
  std::string labels = c.Extend(
      located, {{"AddAttribute",
                 {{"name", "l"},
                  {"definition",
                   "circle(0.03, \"#c81e1e\", true) + offset(text(name, 0.05), 0.04, "
                   "-0.02)"}}},
                {"SetDisplay", {{"attr", "l"}}},
                {"SetRange", {{"min", "0"}, {"max", "2"}}},
                {"SetName", {{"name", "Labels"}}}});
  std::string holes = c.Extend(
      stations, {{"Restrict", {{"predicate", "state = \"LA\""}}},
                 {"SetLocation", {{"dim", "0"}, {"attr", "longitude"}}},
                 {"SetLocation", {{"dim", "1"}, {"attr", "latitude"}}},
                 {"AddAttribute",
                  {{"name", "w"},
                   {"definition", "viewer(0.3, 0.2, \"series\", 5600.0, 65.0, 120.0)"}}},
                 {"SetDisplay", {{"attr", "w"}}},
                 {"SetRange", {{"min", "0"}, {"max", "1.5"}}},
                 {"SetName", {{"name", "Holes"}}}});
  std::string map = c.Extend(c.Table("LouisianaMap"),
                             {{"SetLocation", {{"dim", "0"}, {"attr", "x"}}},
                              {"SetLocation", {{"dim", "1"}, {"attr", "y"}}},
                              {"AddAttribute",
                               {{"name", "seg"},
                               {"definition", "line(dx, dy, \"#646464\")"}}},
                              {"SetDisplay", {{"attr", "seg"}}},
                              {"SetName", {{"name", "Map"}}}});
  std::string overlay = c.Join2("Overlay", {{"offset", ""}}, map, dots);
  overlay = c.Join2("Overlay", {{"offset", ""}}, overlay, labels);
  overlay = c.Join2("Overlay", {{"offset", ""}}, overlay, holes);
  c.View(overlay, "nation");

  std::string series = c.Extend(
      c.Table("Observations"),
      {{"Restrict", {{"predicate", "station_id = 1"}}},
       {"AddAttribute", {{"name", "t"}, {"definition", "float(days(obs_date))"}}},
       {"SetLocation", {{"dim", "0"}, {"attr", "t"}}},
       {"SetLocation", {{"dim", "1"}, {"attr", "temperature"}}},
       {"AddAttribute", {{"name", "d"}, {"definition", "point(\"#1e46c8\")"}}},
       {"SetDisplay", {{"attr", "d"}}}});
  c.View(series, "series");

  std::string panels = c.Extend(
      stations,
      {{"SetLocation", {{"dim", "0"}, {"attr", "longitude"}}},
       {"SetLocation", {{"dim", "1"}, {"attr", "latitude"}}},
       {"AddAttribute",
        {{"name", "p"},
         {"definition",
          "circle(0.15, lerp_color(\"#1ea03c\", \"#c81e1e\", altitude / 6000.0), "
          "true)"}}},
       {"SetDisplay", {{"attr", "p"}}},
       {"Replicate",
        {{"rows", "state = \"TX\";state = \"MS\";state = \"AR\";state = \"AL\""},
         {"columns", "altitude <= 3000;altitude > 3000"}}}});
  c.View(panels, "panels");
  MustOk(session->SaveProgram("nav"), "save nav");
}

/// A frame kept for the oracle check: the viewer state and its pixels.
struct CapturedFrame {
  std::string canvas;
  std::vector<Camera> cameras;
  size_t active = 0;
  std::vector<MagnifyingGlass> glasses;
  std::string pixels;
};

class Tour : public Script {
 public:
  explicit Tour(const Options& options) : seed_(options.seed) {
    auto stations = Must(tioga2::data::MakeStations(kStations, seed_), "stations");
    auto la = Must(tioga2::data::MakeStations(0, seed_), "la stations");
    auto observations = Must(tioga2::data::MakeObservations(
                                 *la, tioga2::types::Date::FromYmd(1985, 1, 1), 365,
                                 seed_ + 1),
                             "observations");
    MustOk(env_.catalog().RegisterTable("Stations", stations), "register Stations");
    MustOk(env_.catalog().RegisterTable("Observations", observations), "register obs");
    MustOk(env_.catalog().RegisterTable(
               "LouisianaMap", Must(tioga2::data::MakeLouisianaMap(), "map")),
           "register map");
    for (size_t row = 0; row < la->num_rows(); ++row) {
      la_.push_back({la->at(row, 3).AsDouble(), la->at(row, 4).AsDouble()});
    }
    BuildProgram(&env_.session());

    analyst_ = std::make_unique<tioga2::ui::Session>(&env_.catalog());
    int64_t t0 = NowNs();
    MustOk(analyst_->LoadProgram("nav"), "load nav");
    load_program_ms_ = NsToMs(NowNs() - t0);
    nation_ = std::make_unique<Viewer>("nation", "nation", &analyst_->registry());
    panels_ = std::make_unique<Viewer>("panels", "panels", &analyst_->registry());
    MustOk(nation_->Refresh(), "refresh nation");
    MustOk(panels_->FitContent(kWidth, kHeight), "fit panels");
    for (size_t m = 0; m < panels_->num_members(); ++m) {
      panel_homes_.push_back(panels_->camera_of(m));
    }
    *nation_->mutable_camera() = kHome;
    WarmUp();
  }

  tioga2::ui::Session& analyst() { return *analyst_; }
  double load_program_ms() const { return load_program_ms_; }
  const FrameTarget& target() const { return target_; }

  int ClassOf(uint64_t k) const override { return Locate(k).cls; }

  bool Step(uint64_t k, InteractionTrace* trace) override {
    Position p = Locate(k);
    Viewer* viewer = p.cls == kGroup ? panels_.get() : nation_.get();
    bool ok = true;
    {
      ScopedSpan span(trace, "viewer.gesture");
      ok = Gesture(p);
    }
    if (!ok) return false;
    tioga2::Result<tioga2::viewer::RenderStats> stats =
        RenderFrame(viewer, &target_, trace);
    if (!stats.ok() || stats->tuples_drawn == 0) return false;
    last_ = viewer;
    return true;
  }

  void Capture(uint64_t) override {
    CapturedFrame c;
    c.canvas = last_->canvas_name();
    for (size_t m = 0; m < last_->num_members(); ++m) {
      c.cameras.push_back(last_->camera_of(m));
    }
    c.active = last_->active_member();
    c.glasses = last_->magnifying_glasses();
    c.pixels = target_.fb.ToPpm();
    captures_.push_back(std::move(c));
  }

  /// Re-renders every captured frame from a fresh session evaluating the
  /// same program under the scalar oracle; returns the mismatches.
  std::vector<std::string> CheckCaptures() {
    std::vector<std::string> problems;
    tioga2::ui::Session oracle(&env_.catalog());
    MustOk(oracle.LoadProgram("nav"), "oracle load");
    oracle.engine().set_exec_policy(OraclePolicy());
    tioga2::viewer::RenderOptions options;
    options.policy = OraclePolicy();
    for (const CapturedFrame& c : captures_) {
      Viewer viewer("oracle", c.canvas, &oracle.registry());
      tioga2::Status status = viewer.Refresh();
      for (size_t m = 0; status.ok() && m < c.cameras.size(); ++m) {
        if (m >= viewer.num_members()) {
          status = tioga2::Status::Internal("member count differs");
          break;
        }
        *viewer.mutable_camera_of(m) = c.cameras[m];
      }
      if (status.ok()) status = viewer.SetActiveMember(c.active);
      for (const MagnifyingGlass& glass : c.glasses) viewer.AddMagnifyingGlass(glass);
      Framebuffer fb(kWidth, kHeight);
      RasterSurface surface(&fb);
      surface.Clear(tioga2::draw::kWhite);
      if (status.ok()) status = viewer.RenderTo(&surface, options).status();
      if (!status.ok()) {
        problems.push_back("oracle render of " + c.canvas + ": " + status.ToString());
      } else if (fb.ToPpm() != c.pixels) {
        problems.push_back("frame on " + c.canvas + " differs from the scalar oracle");
      }
    }
    checked_ = captures_.size();
    return problems;
  }

  size_t checked() const { return checked_; }

 private:
  struct Position {
    Class cls = kPan;
    int j = 0;  // frame within the leg
    uint64_t cycle = 0;
  };

  Position Locate(uint64_t k) const {
    static const int kCycle = CycleFrames();
    Position p;
    p.cycle = k / static_cast<uint64_t>(kCycle);
    int offset = static_cast<int>(k % static_cast<uint64_t>(kCycle));
    for (size_t leg = 0; leg < kLegs.size(); ++leg) {
      if (offset < kLegs[leg].frames) {
        p.cls = kLegs[leg].cls;
        p.j = offset;
        return p;
      }
      offset -= kLegs[leg].frames;
    }
    return p;
  }

  /// Seeded choices of one tour cycle; a pure function of (seed, cycle).
  struct CyclePlan {
    double pan_angle;
    std::pair<double, double> zoom_target;
    std::pair<double, double> hole;
    std::pair<double, double> magnify_at;
    size_t first_member;
  };

  CyclePlan Plan(uint64_t cycle) const {
    tioga2::Rng rng(seed_ * 1000003ULL + cycle);
    const size_t turn = static_cast<size_t>(seed_ + cycle);
    auto jittered = [&rng](std::pair<double, double> at) {
      return std::pair<double, double>{at.first + rng.Uniform(-0.5, 0.5),
                                       at.second + rng.Uniform(-0.5, 0.5)};
    };
    CyclePlan plan;
    plan.pan_angle = rng.Uniform(0.0, 2.0 * M_PI);
    plan.zoom_target = jittered(kTargets[turn % kNumTargets]);
    plan.magnify_at = jittered(kTargets[(turn + 3) % kNumTargets]);
    plan.hole = la_[turn % la_.size()];
    plan.first_member = turn % 8;
    return plan;
  }

  bool Gesture(const Position& p) {
    if (p.j == 0) plan_ = Plan(p.cycle);
    Camera* camera = nation_->mutable_camera();
    switch (p.cls) {
      case kPan: {
        double step = 0.06 * camera->elevation();
        double dx = step * std::cos(plan_.pan_angle);
        double dy = step * std::sin(plan_.pan_angle);
        // Reflect at the edges of the data so the tour stays over stations.
        if (camera->center_x() + dx < -118 || camera->center_x() + dx > -76) {
          plan_.pan_angle = M_PI - plan_.pan_angle;
          dx = -dx;
        }
        if (camera->center_y() + dy < 29 || camera->center_y() + dy > 45) {
          plan_.pan_angle = -plan_.pan_angle;
          dy = -dy;
        }
        nation_->Pan(dx, dy);
        return true;
      }
      case kZoom: {
        const bool in = p.j < kZoomFrames;
        if (p.j == 2 * kZoomFrames - 1) {
          *camera = kHome;
          return true;
        }
        const std::pair<double, double> home{kHome.center_x(), kHome.center_y()};
        auto [tx, ty] = in ? plan_.zoom_target : home;
        nation_->Pan(0.35 * (tx - camera->center_x()), 0.35 * (ty - camera->center_y()));
        nation_->Zoom(in ? kZoomStep : 1.0 / kZoomStep);
        return true;
      }
      case kSlider:
        if (p.j == 7) {
          nation_->SetSlider(2, SliderRange{});
        } else {
          double lo = 500.0 * p.j;
          nation_->SetSlider(2, SliderRange{lo, lo + 2500.0});
        }
        return true;
      case kWormhole:
        return WormholeGesture(p.j, camera);
      case kMagnify:
        if (p.j == 0) {
          *camera = Camera(plan_.magnify_at.first, plan_.magnify_at.second, 8.0, kWidth,
                           kHeight);
          MagnifyingGlass glass;
          glass.rect = tioga2::render::DeviceRect{240, 180, 160, 120};
          glass.zoom = 5.0;
          nation_->AddMagnifyingGlass(glass);
        } else if (p.j == 7) {
          if (!nation_->RemoveMagnifyingGlass(0).ok()) return false;
          *camera = kHome;
        } else {
          nation_->Pan(0.4, 0.25);
        }
        return true;
      case kGroup: {
        size_t member = (plan_.first_member + static_cast<size_t>(p.j / 2)) %
                        panels_->num_members();
        if (!panels_->SetActiveMember(member).ok()) return false;
        if (p.j % 2 == 0) {
          panels_->Zoom(1.6);
          panels_->Pan(0.5, -0.3);
        } else {
          *panels_->mutable_camera() = panel_homes_[member];
        }
        return true;
      }
    }
    return false;
  }

  /// Approach a Louisiana wormhole, pass through to "series", pan along the
  /// series, travel back, and return home.
  bool WormholeGesture(int j, Camera* camera) {
    if (j == 0) {
      *camera = Camera(plan_.hole.first + 0.15, plan_.hole.second + 0.1, 3.0, kWidth,
                       kHeight);
      return true;
    }
    if (j <= 3) {
      nation_->Zoom(1.45);  // 3.0 -> 0.98, at the pass-through elevation
      return true;
    }
    if (j == 4) {
      tioga2::Result<bool> passed = nation_->TryPassThrough(kPassElevation);
      return passed.ok() && *passed;
    }
    if (j <= 8) {
      nation_->Pan(12.0, 0.0);
      return true;
    }
    if (j == 9) {
      tioga2::Result<bool> back = nation_->TravelBack();
      return back.ok() && *back;
    }
    *camera = kHome;
    return true;
  }

  /// Pays lazy work before timing: renders every canvas and every layer
  /// once (national dots, labels with wormholes, the series behind a
  /// wormhole, a magnifying glass, the slider, the panels), then returns
  /// every camera home.
  void WarmUp() {
    auto frame = [this](Viewer* viewer) {
      tioga2::Result<tioga2::viewer::RenderStats> stats =
          RenderFrame(viewer, &target_, nullptr);
      if (!stats.ok() || stats->tuples_drawn == 0) {
        throw SetupError("warm-up frame failed");
      }
    };
    Camera* camera = nation_->mutable_camera();
    frame(nation_.get());
    *camera = Camera(la_[0].first + 0.15, la_[0].second + 0.1, 0.9, kWidth, kHeight);
    frame(nation_.get());
    if (!Must(nation_->TryPassThrough(kPassElevation), "warm-up pass-through")) {
      throw SetupError("warm-up did not pass through a wormhole");
    }
    frame(nation_.get());
    Must(nation_->TravelBack(), "warm-up travel back");
    *camera = Camera(la_[0].first, la_[0].second, 8.0, kWidth, kHeight);
    MagnifyingGlass glass;
    glass.rect = tioga2::render::DeviceRect{240, 180, 160, 120};
    glass.zoom = 5.0;
    nation_->AddMagnifyingGlass(glass);
    frame(nation_.get());
    MustOk(nation_->RemoveMagnifyingGlass(0), "warm-up glass");
    *camera = kHome;
    nation_->SetSlider(2, SliderRange{0, 2500});
    frame(nation_.get());
    nation_->SetSlider(2, SliderRange{});
    frame(panels_.get());
  }

  const uint64_t seed_;
  tioga2::Environment env_;
  std::unique_ptr<tioga2::ui::Session> analyst_;
  std::unique_ptr<Viewer> nation_;
  std::unique_ptr<Viewer> panels_;
  std::vector<Camera> panel_homes_;
  std::vector<std::pair<double, double>> la_;
  CyclePlan plan_{};
  FrameTarget target_{kWidth, kHeight};
  Viewer* last_ = nullptr;
  std::vector<CapturedFrame> captures_;
  size_t checked_ = 0;
  double load_program_ms_ = 0;
};

}  // namespace

WorkloadResult RunNavigate(const Options& options) {
  WorkloadResult result;
  result.classes = kClasses;
  std::unique_ptr<Tour> tour = SetUp<Tour>(options, &result.setup_s);
  const tioga2::dataflow::Engine& engine = tour->analyst().engine();
  uint64_t next = 0;
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  uint64_t fired0 = engine.stats().boxes_fired;
  result.timed = RunLoop(*tour, untraced_s, options.seed, &next, nullptr, kCaptures);
  result.peak_rss_mb = PeakRssMb();
  if (engine.stats().boxes_fired != fired0) {
    result.problems.push_back("navigate fired boxes in its timed phase");
  }

  if (options.trace) {
    Tracer tracer(kClasses);
    tioga2::dataflow::EngineStats e0 = engine.stats();
    BatchCounters b0 = BatchCounters::Read();
    result.traced = RunLoop(*tour, options.seconds / 2, options.seed, &next, &tracer, 0);
    tioga2::dataflow::EngineStats e1 = engine.stats();
    const double n = static_cast<double>(result.traced.samples.size());
    std::map<std::string, double>& l = result.layers;
    PutBatchLayers(BatchCounters::Read() - b0, n, &l);
    PutRenderLayers({&tour->target()}, &l);
    const double fires = static_cast<double>(e1.boxes_fired - e0.boxes_fired);
    const double hits = static_cast<double>(e1.cache_hits - e0.cache_hits);
    l["dataflow.boxes_fired"] = fires / n;
    l["dataflow.cache_hits"] = hits / n;
    l["dataflow.memo_hit_ratio"] = hits + fires > 0 ? hits / (hits + fires) : 0;
    l["ui.load_program_ms"] = tour->load_program_ms();
    PutViewerSpans(tracer, &l);
    if (fires != 0) result.problems.push_back("navigate fired boxes in its traced phase");
    tracer.WriteChromeTrace(".bench_build/traces/navigate.trace.json");
  }
  std::vector<std::string> mismatches = tour->CheckCaptures();
  result.timed.failed += mismatches.size();
  result.problems.insert(result.problems.end(), mismatches.begin(), mismatches.end());
  std::printf("  output check: %zu frames compared with the scalar oracle, %zu differ\n",
              tour->checked(), mismatches.size());
  return result;
}

}  // namespace ibench
