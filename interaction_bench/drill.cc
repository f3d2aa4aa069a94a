// drill: one analyst editing the program over a large Observations table.
// Every edit changes a stamp, so every interaction fires a chain (Restrict,
// Sample, GroupBy, Join and the display boxes) and its time sits in
// dataflow, boxes, db and expr kernels, with a small render at the end. This
// is the workload for firing-path and operator or kernel changes, and the
// one that should not move for renderer changes.

#include <cmath>
#include <cstdio>
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
using tioga2::viewer::Viewer;

/// 1,015 stations x 200 days = 203,000 observations.
constexpr size_t kStations = 1000;
constexpr size_t kDays = 200;
constexpr int kWidth = 640;
constexpr int kHeight = 480;
constexpr size_t kCaptures = 4;

enum Class { kNumeric, kDict, kCompound, kComputed, kSample };
const std::vector<std::string> kClasses = {"restrict.numeric", "restrict.dict",
                                           "restrict.compound", "restrict.computed",
                                           "sample"};
/// The repeating edit sequence: Restrict rewrites down the numeric-SIMD,
/// dictionary-string, compound and computed-attribute paths, and a Sample
/// probability change (§4.2).
const std::vector<Class> kCycle = {kNumeric, kDict,     kComputed, kCompound,
                                   kNumeric, kDict,     kComputed, kSample};

/// The box types stepped one by one in the traced run.
const std::vector<std::string> kBoxTypes = {"Table", "Restrict",     "Sample",
                                            "GroupBy", "Join",       "AddAttribute",
                                            "SetLocation", "SetDisplay"};

/// Observations -> AddAttribute(celsius) -> Restrict -> Sample -> GroupBy
/// (per station) -> Join Stations -> located, coloured dots.
void BuildProgram(tioga2::ui::Session* session) {
  Chain c(session);
  std::string grouped = c.Extend(
      c.Table("Observations"),
      {{"AddAttribute",
        {{"name", "celsius"}, {"definition", "(temperature - 32.0) * 5.0 / 9.0"}}},
       {"Restrict", {{"predicate", "temperature > 50.0"}}},
       {"Sample", {{"probability", "0.8"}, {"seed", "7"}}},
       {"GroupBy",
        {{"keys", "station_id"},
         {"aggs", "avg:temperature:avg_t;count::n;max:precipitation:max_p"}}}});
  std::string joined = c.Join2("Join", {{"predicate", "station_id = station_id_2"}},
                               grouped, c.Table("Stations"));
  std::string tail = c.Extend(
      joined,
      {{"SetLocation", {{"dim", "0"}, {"attr", "longitude"}}},
       {"SetLocation", {{"dim", "1"}, {"attr", "latitude"}}},
       {"AddAttribute",
        {{"name", "dot"},
         {"definition",
          "circle(0.3, lerp_color(\"#1e46c8\", \"#c81e1e\", (avg_t - 20.0) / 80.0), "
          "true)"}}},
       {"SetDisplay", {{"attr", "dot"}}}});
  c.View(tail, "drill");
  MustOk(session->SaveProgram("drill"), "save drill");
}

std::string Fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

/// The program state an edit leaves behind: the two edited parameters.
struct EditState {
  std::string predicate = "temperature > 50.0";
  std::string probability = "0.8";
};

struct CapturedFrame {
  EditState state;
  Camera camera;
  std::string pixels;
};

class Edits : public Script {
 public:
  explicit Edits(const Options& options) : seed_(options.seed) {
    auto stations = Must(tioga2::data::MakeStations(kStations, seed_), "stations");
    auto observations = Must(tioga2::data::MakeObservations(
                                 *stations, tioga2::types::Date::FromYmd(1985, 1, 1),
                                 kDays, seed_ + 1),
                             "observations");
    MustOk(env_.catalog().RegisterTable("Stations", stations), "register Stations");
    MustOk(env_.catalog().RegisterTable("Observations", observations), "register obs");
    BuildProgram(&env_.session());

    analyst_ = std::make_unique<tioga2::ui::Session>(&env_.catalog());
    int64_t t0 = NowNs();
    MustOk(analyst_->LoadProgram("drill"), "load drill");
    load_program_ms_ = NsToMs(NowNs() - t0);
    restrict_ = FindBox(*analyst_, "Restrict");
    sample_ = FindBox(*analyst_, "Sample");
    viewer_ = std::make_unique<Viewer>("drill", "drill", &analyst_->registry());
    MustOk(viewer_->FitContent(kWidth, kHeight), "fit drill");
    // Pays the lazy work (columnar images, dictionaries, first firings) of
    // every edit kind before timing.
    for (uint64_t k = 0; k < kCycle.size(); ++k) {
      if (!Step(k, nullptr)) throw SetupError("warm-up edit failed");
    }
  }

  tioga2::ui::Session& analyst() { return *analyst_; }
  double load_program_ms() const { return load_program_ms_; }
  const FrameTarget& target() const { return target_; }
  const std::map<std::string, std::pair<double, uint64_t>>& fires() const {
    return fires_;
  }
  /// Outcomes of the stepped boxes: fired, or served from the memo.
  uint64_t stepped_fires() const { return stepped_fires_; }
  uint64_t stepped_hits() const { return stepped_hits_; }

  int ClassOf(uint64_t k) const override { return kCycle[k % kCycle.size()]; }

  bool Step(uint64_t k, InteractionTrace* trace) override {
    tioga2::dataflow::Engine& engine = analyst_->engine();
    const uint64_t fired0 = engine.stats().boxes_fired;
    tioga2::Status status = tioga2::Status::OK();
    {
      ScopedSpan span(trace, "ui.ReplaceBox");
      status = Edit(k);
    }
    if (!status.ok()) return false;
    if (trace != nullptr) StepBoxes(trace);
    tioga2::Result<tioga2::viewer::RenderStats> stats =
        RenderFrame(viewer_.get(), &target_, trace);
    if (!stats.ok() || stats->tuples_drawn == 0) return false;
    // Self-check: an edit that fires nothing measured a memo hit.
    return engine.stats().boxes_fired > fired0;
  }

  void Capture(uint64_t) override {
    captures_.push_back(CapturedFrame{state_, viewer_->camera(), target_.fb.ToPpm()});
  }

  /// Re-evaluates each captured program state in a fresh session under the
  /// scalar oracle and compares the rendered bytes.
  std::vector<std::string> CheckCaptures() {
    std::vector<std::string> problems;
    tioga2::viewer::RenderOptions options;
    options.policy = OraclePolicy();
    for (const CapturedFrame& c : captures_) {
      tioga2::ui::Session oracle(&env_.catalog());
      oracle.engine().set_exec_policy(OraclePolicy());
      tioga2::Status status = oracle.LoadProgram("drill");
      if (status.ok()) {
        status = oracle.ReplaceBox(FindBox(oracle, "Restrict"), "Restrict",
                                   {{"predicate", c.state.predicate}});
      }
      if (status.ok()) {
        status = oracle.ReplaceBox(FindBox(oracle, "Sample"), "Sample",
                                   {{"probability", c.state.probability}, {"seed", "7"}});
      }
      Viewer viewer("oracle", "drill", &oracle.registry());
      if (status.ok()) status = viewer.Refresh();
      *viewer.mutable_camera() = c.camera;
      Framebuffer fb(kWidth, kHeight);
      RasterSurface surface(&fb);
      surface.Clear(tioga2::draw::kWhite);
      if (status.ok()) status = viewer.RenderTo(&surface, options).status();
      if (!status.ok()) {
        problems.push_back("oracle evaluation of '" + c.state.predicate +
                           "': " + status.ToString());
      } else if (fb.ToPpm() != c.pixels) {
        problems.push_back("drill frame for '" + c.state.predicate + "' p=" +
                           c.state.probability + " differs from the scalar oracle");
      }
    }
    checked_ = captures_.size();
    return problems;
  }

  size_t checked() const { return checked_; }

 private:
  /// Applies edit `k`: a seeded rewrite that always differs from the
  /// current parameter, so its stamp changes.
  tioga2::Status Edit(uint64_t k) {
    tioga2::Rng rng(seed_ * 7919ULL + k * 104729ULL + 1);
    const Class cls = kCycle[k % kCycle.size()];
    if (cls == kSample) {
      std::string probability;
      do {
        probability = Fixed(rng.Uniform(0.5, 0.95), 3);
      } while (probability == state_.probability);
      state_.probability = probability;
      return analyst_->ReplaceBox(sample_, "Sample",
                                  {{"probability", probability}, {"seed", "7"}});
    }
    // Every predicate keeps some rows of every seed's data, so no edit
    // renders an empty canvas.
    static const char* kDictPredicates[] = {
        "conditions = \"RAIN\"",     "conditions = \"DRIZZLE\"",
        "conditions = \"CLEAR\"",    "conditions != \"CLEAR\"",
        "conditions != \"RAIN\"",    "conditions < \"RAIN\"",
        "conditions >= \"DRIZZLE\"", "conditions < \"HOT\""};
    std::string predicate;
    do {
      switch (cls) {
        case kNumeric:
          predicate = "temperature > " + Fixed(rng.Uniform(30.0, 80.0), 2);
          break;
        case kDict:
          predicate = kDictPredicates[rng.NextBounded(std::size(kDictPredicates))];
          break;
        case kCompound:
          predicate = "temperature > " + Fixed(rng.Uniform(30.0, 70.0), 2) +
                      " and precipitation < " + Fixed(rng.Uniform(0.2, 1.5), 2);
          break;
        default:
          predicate = "celsius > " + Fixed(rng.Uniform(-1.0, 25.0), 2);
          break;
      }
    } while (predicate == state_.predicate);
    state_.predicate = predicate;
    return analyst_->ReplaceBox(restrict_, "Restrict", {{"predicate", predicate}});
  }

  /// Traced run only: evaluates the canvas's upstream boxes one at a time in
  /// topological order, so each firing gets its own span and time. The
  /// following Refresh then finds every box memoized.
  void StepBoxes(InteractionTrace* trace) {
    ScopedSpan span(trace, "dataflow.Evaluate");
    tioga2::dataflow::Engine& engine = analyst_->engine();
    const tioga2::dataflow::Graph& graph = analyst_->graph();
    for (const std::string& id : UpstreamOfCanvas(*analyst_, "drill")) {
      const std::string type = Must(graph.GetBox(id), "box")->type_name();
      const uint64_t fired0 = engine.stats().boxes_fired;
      const int64_t t0 = NowNs();
      int index = trace->Open(InternName("boxes." + type));
      (void)engine.Evaluate(graph, id, 0);
      trace->Close(index);
      if (engine.stats().boxes_fired > fired0) {
        auto& [ms, count] = fires_[type];
        ms += NsToMs(NowNs() - t0);
        ++count;
        ++stepped_fires_;
      } else {
        ++stepped_hits_;
      }
    }
  }

  const uint64_t seed_;
  tioga2::Environment env_;
  std::unique_ptr<tioga2::ui::Session> analyst_;
  std::string restrict_;
  std::string sample_;
  std::unique_ptr<Viewer> viewer_;
  EditState state_;
  FrameTarget target_{kWidth, kHeight};
  std::map<std::string, std::pair<double, uint64_t>> fires_;  // type -> (ms, fires)
  uint64_t stepped_fires_ = 0;
  uint64_t stepped_hits_ = 0;
  std::vector<CapturedFrame> captures_;
  size_t checked_ = 0;
  double load_program_ms_ = 0;
};

}  // namespace

WorkloadResult RunDrill(const Options& options) {
  WorkloadResult result;
  result.classes = kClasses;
  std::unique_ptr<Edits> edits = SetUp<Edits>(options, &result.setup_s);
  uint64_t next = kCycle.size();  // the warm-up ran the first cycle
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  result.timed = RunLoop(*edits, untraced_s, options.seed, &next, nullptr, kCaptures);
  result.peak_rss_mb = PeakRssMb();

  if (options.trace) {
    Tracer tracer(kClasses);
    BatchCounters b0 = BatchCounters::Read();
    result.traced = RunLoop(*edits, options.seconds / 2, options.seed, &next, &tracer, 0);
    const double n = static_cast<double>(result.traced.samples.size());
    std::map<std::string, double>& l = result.layers;
    PutBatchLayers(BatchCounters::Read() - b0, n, &l);
    PutRenderLayers({&edits->target()}, &l);
    // Per box of the canvas's chain: fired or memo hit (stepping re-walks
    // the upstream closure, so the engine's own hit counter over-counts).
    const double fires = static_cast<double>(edits->stepped_fires());
    const double hits = static_cast<double>(edits->stepped_hits());
    l["dataflow.boxes_fired"] = fires / n;
    l["dataflow.cache_hits"] = hits / n;
    l["dataflow.memo_hit_ratio"] = hits + fires > 0 ? hits / (hits + fires) : 0;
    l["dataflow.evaluate_ms"] = tracer.MeanMs("dataflow.Evaluate");
    l["ui.replace_box_ms"] = tracer.MeanMs("ui.ReplaceBox");
    l["ui.load_program_ms"] = edits->load_program_ms();
    PutViewerSpans(tracer, &l);
    for (const std::string& type : kBoxTypes) {
      auto it = edits->fires().find(type);
      if (it == edits->fires().end()) continue;
      const auto& [ms, count] = it->second;
      l["boxes.fire_ms." + type] = ms / static_cast<double>(count);
      l["boxes.fires." + type] = static_cast<double>(count) / n;
    }
    tracer.WriteChromeTrace(".bench_build/traces/drill.trace.json");
  }
  std::vector<std::string> mismatches = edits->CheckCaptures();
  result.timed.failed += mismatches.size();
  result.problems.insert(result.problems.end(), mismatches.begin(), mismatches.end());
  std::printf("  output check: %zu edits compared with the scalar oracle, %zu differ\n",
              edits->checked(), mismatches.size());
  return result;
}

}  // namespace ibench
