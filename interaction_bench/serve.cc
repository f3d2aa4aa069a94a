// serve: several analysts on one SessionServer. Three closed-loop clients,
// driven by one generator thread, each own a disjoint set of sessions and
// send their next request as soon as the previous one completes. Requests
// are pan/zoom frames rendered into per-session framebuffers, drill-down
// Restrict rewrites, and §8 click-updates (kWrite) that bump the Inventory
// table under the other store sessions. This is the only workload that
// crosses admission, queue wait, session locking, catalog ReadPin against
// writers, and shared-tier adoption.

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>

#include "boxes/program_io.h"
#include "common/rng.h"
#include "data/generators.h"
#include "runtime/session_server.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"
#include "workload.h"

namespace ibench {
namespace {

using tioga2::Status;
using tioga2::runtime::SessionServer;
using tioga2::viewer::Camera;
using tioga2::viewer::Viewer;

/// Three clients on two workers, so one request always waits in the queue.
/// With the generator thread that is three threads on the host's four vCPUs:
/// the fourth is left to the rest of the host, whose load would otherwise
/// preempt a worker in the middle of a request and land in p99.
constexpr size_t kClients = 3;
constexpr size_t kWorkers = 2;
constexpr size_t kSharedEntries = 4096;
/// Demo data small enough that fig08's fifteen nested wormhole renders and
/// the text tables of fig01/fig11 stay within a few medians per frame.
constexpr size_t kExtraStations = 20;
constexpr size_t kDays = 15;
constexpr size_t kEmployees = 60;
constexpr size_t kItems = 400;
/// The tables come from one fixed seed; `--seed` drives the clients' request
/// streams. With per-seed tables, fig11's salaries canvas cost 2.9 ms per
/// frame at p50 on one seed and 7.4 ms on another, and p99 read 6.2 and
/// 8.5 ms on the two, in every set of runs.
constexpr uint64_t kDataSeed = 1;
constexpr int kWidth = 320;
constexpr int kHeight = 240;
/// Each canvas's home camera sits at 3x its fitted elevation, and frames
/// keep the camera within [home, 2 * home] elevation and one home elevation
/// of the home center: text tables (fig01, fig11) cost ~5x more per frame at
/// the fitted elevation than at twice it, because glyphs are rasterized over
/// their whole extent.
constexpr double kHomeOverFit = 3.0;
constexpr double kZoom = 1.25;
constexpr double kMaxZoomOut = 2.0;

enum Class { kFrame, kDrill, kWrite };
const std::vector<std::string> kClasses = {"frame", "drill", "write"};

/// The benchmark's own programs, beside the nine figure programs: the §8
/// store the click-updates edit, and a regional summary (Restrict ->
/// GroupBy -> Join) for drill-downs on a joined chain.
void BuildOwnPrograms(tioga2::Environment* env) {
  tioga2::ui::Session& session = env->session();
  Chain c(&session);
  session.NewProgram();
  c.View(c.Extend(c.Table("Inventory"),
                  {{"SetLocation", {{"dim", "0"}, {"attr", "shelf_x"}}},
                   {"SetLocation", {{"dim", "1"}, {"attr", "shelf_y"}}},
                   {"AddAttribute",
                    {{"name", "d"},
                     {"definition",
                      "circle(1.5, if(on_hand = 0, \"#c81e1e\", \"#1ea03c\"), true)"}}},
                   {"SetDisplay", {{"attr", "d"}}}}),
         "store");
  MustOk(session.SaveProgram("store"), "save store");

  session.NewProgram();
  std::string grouped = c.Extend(
      c.Table("Observations"),
      {{"Restrict", {{"predicate", "temperature > 60.0"}}},
       {"GroupBy", {{"keys", "station_id"}, {"aggs", "avg:temperature:avg_t"}}}});
  std::string joined = c.Join2("Join", {{"predicate", "station_id = station_id_2"}},
                               grouped, c.Table("Stations"));
  c.View(c.Extend(joined,
                  {{"SetLocation", {{"dim", "0"}, {"attr", "longitude"}}},
                   {"SetLocation", {{"dim", "1"}, {"attr", "latitude"}}},
                   {"AddAttribute",
                    {{"name", "dot"},
                     {"definition",
                      "circle(0.4, lerp_color(\"#1e46c8\", \"#c81e1e\", "
                      "(avg_t - 40.0) / 60.0), true)"}}},
                   {"SetDisplay", {{"attr", "dot"}}}}),
         "regional");
  MustOk(session.SaveProgram("regional"), "save regional");
  session.NewProgram();
}

tioga2::db::RelationPtr MakeInventory(uint64_t seed) {
  using tioga2::db::Column;
  using tioga2::types::DataType;
  using tioga2::types::Value;
  tioga2::db::Schema schema = Must(
      tioga2::db::Schema::Make({Column{"item", DataType::kString},
                                Column{"shelf_x", DataType::kFloat},
                                Column{"shelf_y", DataType::kFloat},
                                Column{"on_hand", DataType::kInt}}),
      "inventory schema");
  tioga2::db::RelationBuilder builder(
      std::make_shared<const tioga2::db::Schema>(std::move(schema)));
  tioga2::Rng rng(seed + 3);
  for (size_t i = 0; i < kItems; ++i) {
    builder.AddRowUnchecked(tioga2::db::Tuple{
        Value::String("ITEM_" + std::to_string(i)), Value::Float(rng.Uniform(0, 100)),
        Value::Float(rng.Uniform(0, 100)),
        Value::Int(static_cast<int64_t>(rng.NextBounded(50)))});
  }
  return builder.Build();
}

/// One canvas of one session: its viewer, home cameras, and framebuffer.
struct CanvasView {
  std::string canvas;
  Viewer* viewer = nullptr;  // owned by the runtime::Session
  std::vector<Camera> home;
  FrameTarget target{kWidth, kHeight};
};

/// Per-session state; touched only by that session's handlers (serialized
/// by the server) or while no request is in flight.
struct SessionState {
  std::string id;
  std::string program;
  bool store = false;
  std::vector<std::unique_ptr<CanvasView>> views;
  std::string restrict_box;  // empty: the program has no Restrict
  std::string predicate;
  size_t drill_view = 0;  // the canvas the Restrict feeds
  int depth = 0;          // current parenthesis depth of the predicate
  uint64_t click_updates = 0;
};

/// A planned request, decided by the generator from the client's seeded
/// stream, independent of timing.
struct Plan {
  Class cls = kFrame;
  size_t session = 0;
  size_t view = 0;
  int gesture = 0;  // frame: 0 pan, 1 zoom in, 2 zoom out; drill: new depth
  double dx = 0, dy = 0;
  size_t item = 0;  // write: the clicked item and its new on_hand
  int64_t value = 0;
};

/// The single in-flight request of one closed-loop client.
struct InFlight {
  Plan plan;
  int64_t submit_ns = 0;
  int64_t entry_ns = 0;
  int64_t exit_ns = 0;
  std::optional<InteractionTrace> trace;
  std::future<Status> done;
};

std::string Wrap(const std::string& predicate, int depth) {
  std::string wrapped = predicate;
  for (int i = 0; i < depth; ++i) wrapped = "(" + wrapped + ")";
  return wrapped;
}

Status Render(CanvasView* view, InteractionTrace* trace) {
  return RenderFrame(view->viewer, &view->target, trace).status();
}

/// A bounded pan or zoom of the active member, then a full frame.
Status Frame(CanvasView* view, const Plan& plan, InteractionTrace* trace) {
  {
    ScopedSpan span(trace, "viewer.gesture");
    Viewer* viewer = view->viewer;
    const Camera& home = view->home[viewer->active_member()];
    Camera* camera = viewer->mutable_camera();
    if (plan.gesture == 0) {
      double step = camera->elevation();
      double x = camera->center_x() + plan.dx * step;
      double y = camera->center_y() + plan.dy * step;
      bool inside = std::abs(x - home.center_x()) <= home.elevation() &&
                    std::abs(y - home.center_y()) <= home.elevation();
      viewer->Pan(inside ? plan.dx * step : -plan.dx * step,
                  inside ? plan.dy * step : -plan.dy * step);
    } else {
      bool in = plan.gesture == 1;
      if (in && camera->elevation() / kZoom < home.elevation() * 0.999) in = false;
      if (!in && camera->elevation() * kZoom > home.elevation() * kMaxZoomOut) in = true;
      viewer->Zoom(in ? kZoom : 1.0 / kZoom);
    }
  }
  return Render(view, trace);
}

/// Drill-down: rewrites the session's Restrict to an equivalent predicate of
/// another parenthesis depth. Its signature changes, so the chain below it
/// re-fires or adopts a sibling session's entries from the shared tier.
Status Drill(tioga2::runtime::Session& s, SessionState* state, const Plan& plan,
             InteractionTrace* trace) {
  {
    ScopedSpan span(trace, "ui.ReplaceBox");
    TIOGA2_RETURN_IF_ERROR(s.ui().ReplaceBox(state->restrict_box, "Restrict",
                                             {{"predicate", Wrap(state->predicate,
                                                                 plan.gesture)}}));
  }
  state->depth = plan.gesture;
  return Render(state->views[state->drill_view].get(), trace);
}

/// §8 click-update: a full frame at the home camera, a hit test on the
/// planned item, the update, and the incremental repaint.
Status Write(tioga2::runtime::Session& s, SessionState* state, const Plan& plan,
             InteractionTrace* trace) {
  CanvasView* view = state->views[0].get();
  Viewer* viewer = view->viewer;
  *viewer->mutable_camera() = view->home[0];
  TIOGA2_RETURN_IF_ERROR(Render(view, trace));
  std::optional<tioga2::viewer::Hit> hit;
  {
    ScopedSpan span(trace, "viewer.HitTestAt");
    const tioga2::display::DisplayRelation& items =
        viewer->content().members()[0].entries()[0].relation;
    TIOGA2_ASSIGN_OR_RETURN(std::vector<double> at, items.LocationOf(plan.item));
    double dx = 0;
    double dy = 0;
    viewer->camera().WorldToDevice(at[0], at[1], &dx, &dy);
    TIOGA2_ASSIGN_OR_RETURN(hit, viewer->HitTestAt(&view->target.raster, dx, dy));
  }
  if (!hit.has_value()) return Status::Internal("click on an item hit nothing");
  {
    ScopedSpan span(trace, "update.ClickUpdate");
    TIOGA2_RETURN_IF_ERROR(s.ui().ClickUpdate(
        "store", *hit, "Inventory", {{"on_hand", std::to_string(plan.value)}}));
  }
  ++state->click_updates;
  const tioga2::dataflow::ValueDelta* delta = s.ui().LastCanvasDelta("store");
  if (delta == nullptr) return Render(view, trace);
  tioga2::render::Surface* surface = view->target.Acquire(trace);
  Status status = Status::OK();
  {
    ScopedSpan span(trace, "viewer.RenderDeltaTo");
    status = viewer->RenderDeltaTo(surface, *delta).status();
  }
  view->target.Release();
  return status;
}

class Service {
 public:
  explicit Service(const Options& options) : seed_(options.seed) {
    auto stations =
        Must(tioga2::data::MakeStations(kExtraStations, kDataSeed), "stations");
    auto observations = Must(tioga2::data::MakeObservations(
                                 *stations, tioga2::types::Date::FromYmd(1985, 1, 1),
                                 kDays, kDataSeed + 1),
                             "observations");
    tioga2::db::Catalog& catalog = env_.catalog();
    MustOk(catalog.RegisterTable("Stations", stations), "register Stations");
    MustOk(catalog.RegisterTable("Observations", observations), "register obs");
    MustOk(catalog.RegisterTable("LouisianaMap",
                                 Must(tioga2::data::MakeLouisianaMap(), "map")),
           "register map");
    MustOk(catalog.RegisterTable(
               "Employees", Must(tioga2::data::MakeEmployees(kEmployees, kDataSeed + 2),
                                 "employees")),
           "register Employees");
    MustOk(env_.catalog().RegisterTable("Inventory", MakeInventory(kDataSeed)),
           "inventory");
    std::vector<std::string> programs;
    for (const tioga2::testing::FigProgram& fig : tioga2::testing::AllFigPrograms()) {
      env_.session().NewProgram();
      MustOk(fig.build(&env_), "build " + fig.name);
      MustOk(env_.session().SaveProgram(fig.name), "save " + fig.name);
      programs.push_back(fig.name);
    }
    BuildOwnPrograms(&env_);
    programs.push_back("regional");

    SessionServer::Options server_options;
    server_options.num_threads = kWorkers;
    server_options.shared_cache_entries = kSharedEntries;
    server_ = env_.CreateServer(server_options);
    sessions_per_client_ = 1 + programs.size();
    for (size_t client = 0; client < kClients; ++client) {
      for (size_t i = 0; i < sessions_per_client_; ++i) {
        auto state = std::make_unique<SessionState>();
        state->id = Must(server_->OpenSession(), "open session");
        state->store = i == 0;
        state->program = state->store ? "store" : programs[i - 1];
        SessionState* raw = state.get();
        auto open = [this, raw](tioga2::runtime::Session& s) {
          return OpenViews(s, raw);
        };
        MustOk(Call(raw, open), "open " + raw->program);
        sessions_.push_back(std::move(state));
      }
    }
    WarmUp();
  }

  SessionServer& server() { return *server_; }
  double load_program_ms() const { return load_program_ms_; }
  const std::vector<std::unique_ptr<SessionState>>& sessions() const { return sessions_; }

  /// Runs the closed loop for `seconds`. With a tracer every request is
  /// traced and folded into it.
  Phase Run(double seconds, Tracer* tracer, std::vector<double>* queue_ms,
            std::vector<double>* service_ms, uint64_t* planned_writes) {
    Phase phase;
    std::array<InFlight, kClients> flight;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    for (size_t c = 0; c < kClients; ++c) {
      Submit(c, &flight[c], tracer != nullptr, &phase);
    }
    size_t active = kClients;
    while (active > 0) {
      size_t c = WaitAny(flight);
      InFlight& f = flight[c];
      Status status = f.done.get();
      if (status.ok()) {
        phase.samples.push_back(Sample{NsToMs(f.exit_ns - f.submit_ns), f.plan.cls});
        queue_ms->push_back(NsToMs(f.entry_ns - f.submit_ns));
        service_ms->push_back(NsToMs(f.exit_ns - f.entry_ns));
        if (f.plan.cls == kWrite) ++*planned_writes;
        if (f.plan.cls == kFrame) {
          const SessionState& state = *sessions_[f.plan.session];
          canvas_ms_[state.program + "/" + state.views[f.plan.view]->canvas].push_back(
              NsToMs(f.exit_ns - f.entry_ns));
        }
        if (tracer != nullptr) tracer->Fold(*f.trace);
      } else {
        ++phase.failed;
        if (f.plan.cls == kWrite) ++*planned_writes;
        if (first_error_.empty()) first_error_ = status.ToString();
      }
      if (NowNs() < end) {
        Submit(c, &f, tracer != nullptr, &phase);
      } else {
        --active;
      }
    }
    phase.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    return phase;
  }

  const std::string& first_error() const { return first_error_; }

  /// Frame service time per program canvas: the evidence that every canvas
  /// is bounded to a few medians.
  void PrintCanvasCosts() const {
    std::printf("  frame service time per canvas:\n");
    for (const auto& [canvas, ms] : canvas_ms_) {
      std::printf("    %-20s n=%-6zu p50 %7.3f ms  p99 %7.3f ms  max %7.3f ms\n",
                  canvas.c_str(), ms.size(), Quantile(ms, 0.5), Quantile(ms, 0.99),
                  Quantile(ms, 1.0));
    }
  }

  /// Sums every session engine's counters (read inside each session's lock).
  tioga2::dataflow::EngineStats EngineTotals() {
    tioga2::dataflow::EngineStats total;
    for (const auto& state : sessions_) {
      MustOk(Call(state.get(),
                  [&total](tioga2::runtime::Session& s) {
                    const tioga2::dataflow::EngineStats& e = s.ui().engine().stats();
                    total.boxes_fired += e.boxes_fired;
                    total.cache_hits += e.cache_hits;
                    total.shared_hits += e.shared_hits;
                    total.deltas_applied += e.deltas_applied;
                    total.delta_fallbacks += e.delta_fallbacks;
                    return Status::OK();
                  }),
             "engine stats");
    }
    return total;
  }

  /// Compares every session's final canvases with a fresh serial evaluation
  /// of the same program over the final catalog, under the scalar oracle.
  std::vector<std::string> CheckFinalCanvases(size_t* compared) {
    std::vector<std::string> problems;
    for (const auto& state : sessions_) {
      std::map<std::string, std::string> served;  // canvas -> fingerprint
      std::string program;
      Status status = Call(state.get(), [&](tioga2::runtime::Session& s) {
        return ServedCanvases(s, *state, &served, &program);
      });
      tioga2::Result<tioga2::dataflow::Graph> graph =
          status.ok() ? tioga2::boxes::DeserializeProgram(program)
                      : tioga2::Result<tioga2::dataflow::Graph>(status);
      if (!graph.ok()) {
        problems.push_back(state->id + " final state: " + graph.status().ToString());
        continue;
      }
      tioga2::dataflow::Engine fresh(&env_.catalog());
      fresh.set_exec_policy(OraclePolicy());
      for (const auto& [canvas, fingerprint] : served) {
        ++*compared;
        tioga2::Result<std::string> expected = FreshFingerprint(*graph, &fresh, canvas);
        if (!expected.ok()) {
          problems.push_back(state->id + "/" + canvas + ": " +
                             expected.status().ToString());
        } else if (*expected != fingerprint) {
          problems.push_back(state->id + "/" + canvas +
                             " differs from a fresh serial evaluation");
        }
      }
    }
    return problems;
  }

 private:
  /// Runs `handler` on the session's server thread and waits for it.
  Status Call(SessionState* state, SessionServer::Handler handler,
              SessionServer::Access access = SessionServer::Access::kRead) {
    return server_->Submit(state->id, {.handler = std::move(handler), .access = access})
        .get();
  }

  /// The session's canvas fingerprints and its serialized program.
  static Status ServedCanvases(tioga2::runtime::Session& s, const SessionState& state,
                               std::map<std::string, std::string>* served,
                               std::string* program) {
    for (const auto& view : state.views) {
      TIOGA2_ASSIGN_OR_RETURN(tioga2::display::Displayable d,
                              s.ui().EvaluateCanvas(view->canvas));
      (*served)[view->canvas] = tioga2::testing::FingerprintDisplayable(d);
    }
    TIOGA2_ASSIGN_OR_RETURN(*program, tioga2::boxes::SerializeProgram(s.ui().graph()));
    return Status::OK();
  }

  static tioga2::Result<std::string> FreshFingerprint(
      const tioga2::dataflow::Graph& graph, tioga2::dataflow::Engine* engine,
      const std::string& canvas) {
    for (const std::string& id : graph.BoxIds()) {
      TIOGA2_ASSIGN_OR_RETURN(const tioga2::dataflow::Box* box, graph.GetBox(id));
      if (box->type_name() != "Viewer" || box->Params().at("canvas") != canvas) continue;
      std::optional<tioga2::dataflow::Edge> edge = graph.IncomingEdge(id, 0);
      if (!edge.has_value()) return Status::NotFound("viewer without input");
      TIOGA2_ASSIGN_OR_RETURN(tioga2::dataflow::BoxValue value,
                              engine->Evaluate(graph, edge->from_box, edge->from_port));
      TIOGA2_ASSIGN_OR_RETURN(tioga2::display::Displayable d,
                              tioga2::dataflow::AsDisplayable(value));
      return tioga2::testing::FingerprintDisplayable(d);
    }
    return Status::NotFound("no viewer for canvas " + canvas);
  }

  /// Loads the session's program, opens a viewer per canvas at its home
  /// camera, and finds the Restrict drill-downs rewrite and the canvas it
  /// feeds.
  Status OpenViews(tioga2::runtime::Session& s, SessionState* state) {
    int64_t t0 = NowNs();
    TIOGA2_RETURN_IF_ERROR(s.ui().LoadProgram(state->program));
    load_program_ms_ +=
        NsToMs(NowNs() - t0) / static_cast<double>(kClients * sessions_per_client_);
    for (const std::string& canvas : s.ui().registry().Names()) {
      auto view = std::make_unique<CanvasView>();
      view->canvas = canvas;
      TIOGA2_ASSIGN_OR_RETURN(view->viewer, s.GetViewer(canvas));
      TIOGA2_RETURN_IF_ERROR(view->viewer->FitContent(kWidth, kHeight));
      for (size_t m = 0; m < view->viewer->num_members(); ++m) {
        Camera home = view->viewer->camera_of(m);
        home.SetElevation(home.elevation() * kHomeOverFit);
        view->home.push_back(home);
      }
      state->views.push_back(std::move(view));
    }
    for (const std::string& id : s.ui().graph().BoxIds()) {
      TIOGA2_ASSIGN_OR_RETURN(const tioga2::dataflow::Box* box,
                              s.ui().graph().GetBox(id));
      if (box->type_name() != "Restrict") continue;
      state->restrict_box = id;
      state->predicate = box->Params().at("predicate");
      break;
    }
    for (size_t v = 0; v < state->views.size(); ++v) {
      std::vector<std::string> up = UpstreamOfCanvas(s.ui(), state->views[v]->canvas);
      if (std::find(up.begin(), up.end(), state->restrict_box) != up.end()) {
        state->drill_view = v;
        break;
      }
    }
    return Status::OK();
  }

  /// Renders every canvas, drills to every predicate depth, and runs a
  /// click-update on every store session, so lazy work and first firings
  /// land in set-up; then returns every camera home.
  void WarmUp() {
    for (size_t i = 0; i < sessions_.size(); ++i) {
      SessionState* state = sessions_[i].get();
      MustOk(Call(state,
                  [state](tioga2::runtime::Session& s) {
                    for (const auto& view : state->views) {
                      TIOGA2_RETURN_IF_ERROR(Render(view.get(), nullptr));
                    }
                    if (state->restrict_box.empty()) return Status::OK();
                    Plan plan;
                    for (plan.gesture = 3; plan.gesture >= 0; --plan.gesture) {
                      TIOGA2_RETURN_IF_ERROR(Drill(s, state, plan, nullptr));
                    }
                    return Status::OK();
                  }),
             "warm " + state->program);
      if (state->store) {
        Plan plan;
        plan.cls = kWrite;
        plan.item = i % kItems;
        plan.value = 7;
        MustOk(Call(
                   state,
                   [state, plan](tioga2::runtime::Session& s) {
                     return Write(s, state, plan, nullptr);
                   },
                   SessionServer::Access::kWrite),
               "warm store");
      }
    }
    for (size_t i = 0; i < sessions_.size(); ++i) {
      planned_depth_[i] = sessions_[i]->depth;
      for (const auto& view : sessions_[i]->views) {
        for (size_t m = 0; m < view->home.size(); ++m) {
          *view->viewer->mutable_camera_of(m) = view->home[m];
        }
      }
    }
  }

  /// The client's next request from its seeded stream: 10% click-updates on
  /// its store session, 15% drill-downs, 75% pan/zoom frames.
  Plan Next(size_t client) {
    tioga2::Rng& rng = rngs_[client];
    Plan plan;
    const size_t first = client * sessions_per_client_;
    double dice = rng.NextDouble();
    if (dice < 0.10) {
      plan.cls = kWrite;
      plan.session = first;
      plan.item = rng.NextBounded(kItems);
      plan.value = static_cast<int64_t>(rng.NextBounded(50));
      return plan;
    }
    if (dice < 0.25) {
      plan.cls = kDrill;
      do {
        plan.session = first + 1 + rng.NextBounded(sessions_per_client_ - 1);
      } while (sessions_[plan.session]->restrict_box.empty());
      int& depth = planned_depth_[plan.session];
      depth = (depth + 1 + static_cast<int>(rng.NextBounded(3))) % 4;
      plan.gesture = depth;
      return plan;
    }
    plan.cls = kFrame;
    plan.session = first + rng.NextBounded(sessions_per_client_);
    plan.view = rng.NextBounded(sessions_[plan.session]->views.size());
    plan.gesture = static_cast<int>(rng.NextBounded(3));
    plan.dx = rng.Uniform(-0.15, 0.15);
    plan.dy = rng.Uniform(-0.15, 0.15);
    return plan;
  }

  void Submit(size_t client, InFlight* f, bool traced, Phase* phase) {
    f->plan = Next(client);
    f->trace.reset();
    if (traced) f->trace.emplace(next_id_, f->plan.cls);
    ++next_id_;
    ++phase->attempted;
    SessionState* state = sessions_[f->plan.session].get();
    SessionServer::Request request;
    request.access =
        f->plan.cls == kWrite ? SessionServer::Access::kWrite
                              : SessionServer::Access::kRead;
    request.tag = kClasses[f->plan.cls];
    request.handler = [this, client, f, state](tioga2::runtime::Session& s) {
      f->entry_ns = NowNs();
      InteractionTrace* trace = f->trace.has_value() ? &*f->trace : nullptr;
      int root = -1;
      if (trace != nullptr) {
        root = trace->Open("interaction", f->submit_ns);
        trace->Add("runtime.queue_wait", f->submit_ns, f->entry_ns);
      }
      Status status = Status::OK();
      {
        ScopedSpan service(trace, "runtime.service");
        switch (f->plan.cls) {
          case kFrame:
            status = Frame(state->views[f->plan.view].get(), f->plan, trace);
            break;
          case kDrill:
            status = Drill(s, state, f->plan, trace);
            break;
          case kWrite:
            status = Write(s, state, f->plan, trace);
            break;
        }
      }
      if (trace != nullptr) trace->Close(root);
      f->exit_ns = NowNs();
      {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_.push_back(client);
      }
      done_cv_.notify_one();
      return status;
    };
    f->submit_ns = NowNs();
    f->done = server_->Submit(state->id, std::move(request));
  }

  /// The next client whose request finished. Handlers post their client on
  /// exit; a request resolved without running its handler (rejected,
  /// expired, or failed with an exception) is found by polling its future.
  size_t WaitAny(std::array<InFlight, kClients>& flight) {
    std::unique_lock<std::mutex> lock(done_mu_);
    while (!done_cv_.wait_for(lock, std::chrono::milliseconds(50),
                              [this] { return !done_.empty(); })) {
      for (size_t c = 0; c < kClients; ++c) {
        const bool ready = flight[c].done.valid() &&
                           flight[c].done.wait_for(std::chrono::seconds(0)) ==
                               std::future_status::ready;
        if (ready && flight[c].exit_ns < flight[c].submit_ns) {
          flight[c].entry_ns = flight[c].exit_ns = NowNs();
          return c;
        }
      }
    }
    size_t client = done_.front();
    done_.pop_front();
    return client;
  }

  const uint64_t seed_;
  tioga2::Environment env_;
  std::unique_ptr<SessionServer> server_;
  std::vector<std::unique_ptr<SessionState>> sessions_;
  /// Each client owns a store session and one session of every program.
  size_t sessions_per_client_ = 0;
  std::array<tioga2::Rng, kClients> rngs_ = MakeRngs(seed_);
  std::map<size_t, int> planned_depth_;
  uint64_t next_id_ = 0;
  double load_program_ms_ = 0;
  std::string first_error_;
  std::map<std::string, std::vector<double>> canvas_ms_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::deque<size_t> done_;

  static std::array<tioga2::Rng, kClients> MakeRngs(uint64_t seed) {
    return {tioga2::Rng(seed * 1315423911ULL + 1), tioga2::Rng(seed * 1315423911ULL + 2),
            tioga2::Rng(seed * 1315423911ULL + 3)};
  }
};

}  // namespace

WorkloadResult RunServe(const Options& options) {
  WorkloadResult result;
  result.classes = kClasses;
  std::unique_ptr<Service> service = SetUp<Service>(options, &result.setup_s);
  SessionServer& server = service->server();
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;

  auto run_phase = [&](double seconds, Tracer* tracer, std::vector<double>* queue_ms,
                       std::vector<double>* service_ms) {
    uint64_t planned = 0;
    uint64_t committed0 = 0;
    for (const auto& s : service->sessions()) committed0 += s->click_updates;
    tioga2::dataflow::SharedMemoCache::Stats shared0 = server.shared_cache()->stats();
    tioga2::runtime::MetricsSnapshot m0 = server.metrics().snapshot();
    Phase phase = service->Run(seconds, tracer, queue_ms, service_ms, &planned);
    uint64_t committed = 0;
    for (const auto& s : service->sessions()) committed += s->click_updates;
    committed -= committed0;
    tioga2::dataflow::SharedMemoCache::Stats shared1 = server.shared_cache()->stats();
    tioga2::runtime::MetricsSnapshot m1 = server.metrics().snapshot();
    if (shared1.hits == shared0.hits) {
      result.problems.push_back("serve: no shared-tier hits in a timed phase");
    }
    if (committed != planned) {
      result.problems.push_back("serve: " + std::to_string(committed) + " of " +
                                std::to_string(planned) +
                                " planned click-updates committed");
    }
    if (m1.requests_rejected != m0.requests_rejected ||
        m1.requests_timed_out != m0.requests_timed_out) {
      result.problems.push_back("serve: requests rejected or expired");
    }
    if (!service->first_error().empty()) {
      result.problems.push_back("serve: " + service->first_error());
    }
    std::printf("  shared tier: %zu of %zu entries in use, %llu inserts, %llu evictions "
                "in the phase\n",
                shared1.entries, server.shared_cache()->capacity(),
                static_cast<unsigned long long>(shared1.inserts - shared0.inserts),
                static_cast<unsigned long long>(shared1.evictions - shared0.evictions));
    return phase;
  };

  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  result.timed = run_phase(untraced_s, nullptr, &queue_ms, &service_ms);
  result.peak_rss_mb = PeakRssMb();
  service->PrintCanvasCosts();
  std::printf("  queue wait p50 %.3f ms p99 %.3f ms; service p50 %.3f ms p99 %.3f ms\n",
              Quantile(queue_ms, 0.5), Quantile(queue_ms, 0.99),
              Quantile(service_ms, 0.5), Quantile(service_ms, 0.99));

  if (options.trace) {
    Tracer tracer(kClasses);
    queue_ms.clear();
    service_ms.clear();
    tioga2::dataflow::EngineStats e0 = service->EngineTotals();
    tioga2::dataflow::SharedMemoCache::Stats s0 = server.shared_cache()->stats();
    BatchCounters b0 = BatchCounters::Read();
    result.traced = run_phase(options.seconds / 2, &tracer, &queue_ms, &service_ms);
    BatchCounters b1 = BatchCounters::Read();
    tioga2::dataflow::SharedMemoCache::Stats s1 = server.shared_cache()->stats();
    tioga2::dataflow::EngineStats e1 = service->EngineTotals();
    tioga2::runtime::MetricsSnapshot m = server.metrics().snapshot();

    const double n = static_cast<double>(result.traced.samples.size());
    std::map<std::string, double>& l = result.layers;
    PutBatchLayers(b1 - b0, n, &l);
    std::vector<const FrameTarget*> targets;
    for (const auto& state : service->sessions()) {
      for (const auto& view : state->views) targets.push_back(&view->target);
    }
    PutRenderLayers(targets, &l);
    l["runtime.queue_wait_ms.p50"] = Quantile(queue_ms, 0.5);
    l["runtime.queue_wait_ms.p99"] = Quantile(queue_ms, 0.99);
    l["runtime.service_ms.p50"] = Quantile(service_ms, 0.5);
    l["runtime.service_ms.p99"] = Quantile(service_ms, 0.99);
    l["runtime.rejected"] = static_cast<double>(m.requests_rejected);
    l["runtime.timed_out"] = static_cast<double>(m.requests_timed_out);
    l["runtime.max_queue_depth"] = static_cast<double>(m.max_queue_depth);
    const double fires = static_cast<double>(e1.boxes_fired - e0.boxes_fired);
    const double hits = static_cast<double>(e1.cache_hits - e0.cache_hits);
    l["dataflow.boxes_fired"] = fires / n;
    l["dataflow.cache_hits"] = hits / n;
    l["dataflow.memo_hit_ratio"] = hits + fires > 0 ? hits / (hits + fires) : 0;
    const double shared_hits = static_cast<double>(s1.hits - s0.hits);
    const double shared_misses = static_cast<double>(s1.misses - s0.misses);
    l["dataflow.shared_hits"] = shared_hits / n;
    l["dataflow.shared_misses"] = shared_misses / n;
    l["dataflow.shared_hit_ratio"] =
        shared_hits + shared_misses > 0 ? shared_hits / (shared_hits + shared_misses) : 0;
    l["dataflow.shared_evictions"] = static_cast<double>(s1.evictions - s0.evictions) / n;
    l["dataflow.deltas_applied"] =
        static_cast<double>(e1.deltas_applied - e0.deltas_applied) / n;
    l["dataflow.delta_fallbacks"] =
        static_cast<double>(e1.delta_fallbacks - e0.delta_fallbacks) / n;
    l["ui.replace_box_ms"] = tracer.MeanMs("ui.ReplaceBox");
    l["ui.load_program_ms"] = service->load_program_ms();
    PutViewerSpans(tracer, &l);
    l["viewer.render_delta_ms"] = tracer.MeanMs("viewer.RenderDeltaTo");
    l["update.click_update_ms"] = tracer.MeanMs("update.ClickUpdate");
    tracer.WriteChromeTrace(".bench_build/traces/serve.trace.json");
  }

  size_t compared = 0;
  std::vector<std::string> mismatches = service->CheckFinalCanvases(&compared);
  result.timed.failed += mismatches.size();
  result.problems.insert(result.problems.end(), mismatches.begin(), mismatches.end());
  std::printf("  output check: %zu final canvases compared with a fresh serial "
              "evaluation, %zu differ\n",
              compared, mismatches.size());
  return result;
}

}  // namespace ibench
