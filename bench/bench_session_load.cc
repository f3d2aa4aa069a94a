// Session-server load harness: replays thousands of concurrent sessions of
// mixed pan/zoom, drill-down, and edit traffic over the nine figure programs
// through SessionServer::Submit, and reports p50/p99 latency, throughput,
// and rejection/deadline rates from the server's runtime::Metrics
// histograms — with the cross-session SharedMemoCache ON vs OFF, plus the §7
// convergence experiment (M sessions viewing one canvas converge to ~1x
// evaluation work). Writes bench_out/session_load.json.
//
// Usage:
//   bench_session_load [--sessions=N] [--requests=N] [--threads=N]
//                      [--queue-bound=N] [--deadline-ms=N]
//                      [--shared-entries=N] [--seed=N] [--stations=N]
//                      [--days=N] [--smoke] [--out=PATH]
//
// --smoke shrinks every knob for CI (scripts/check.sh `load-smoke`) and
// turns on hard assertions: zero handler errors, nonzero shared-cache hits,
// and convergence within 2x single-session work.

#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "dataflow/shared_memo_cache.h"
#include "db/catalog.h"
#include "runtime/session_server.h"
#include "testing/fig_programs.h"

namespace tioga2::bench {
namespace {

struct Config {
  size_t sessions = 1000;
  size_t requests_per_session = 6;
  size_t threads = 8;
  size_t queue_bound = 256;
  int deadline_ms = 0;  // 0 = no per-request deadline
  size_t shared_entries = 4096;
  uint64_t seed = 42;
  size_t extra_stations = 30;
  size_t num_days = 20;
  size_t convergence_sessions = 8;
  bool smoke = false;
  std::string out = "";  // default: OutDir() + "/session_load.json"
};

Config ParseFlags(int argc, char** argv) {
  Config config;
  auto value_of = [](const char* arg, const char* name) -> const char* {
    size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') return arg + len + 1;
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = value_of(arg, "--sessions")) {
      config.sessions = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--requests")) {
      config.requests_per_session = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--threads")) {
      config.threads = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--queue-bound")) {
      config.queue_bound = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--deadline-ms")) {
      config.deadline_ms = std::atoi(v);
    } else if (const char* v = value_of(arg, "--shared-entries")) {
      config.shared_entries = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--seed")) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--stations")) {
      config.extra_stations = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--days")) {
      config.num_days = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--out")) {
      config.out = v;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  if (config.smoke) {
    config.sessions = 24;
    config.requests_per_session = 4;
    config.threads = 4;
    config.queue_bound = 64;
    config.extra_stations = 20;
    config.num_days = 10;
  }
  if (config.out.empty()) config.out = OutDir() + "/session_load.json";
  return config;
}

/// One saved figure program the replay draws from.
struct ProgramInfo {
  std::string name;
  std::vector<std::string> canvases;
};

/// Builds every figure program once in the environment's own session and
/// saves it into the shared catalog; server sessions then LoadProgram their
/// copy — the multi-user picture of §7 (a library of saved visualization
/// programs over one database).
std::vector<ProgramInfo> SavePrograms(Environment* env) {
  std::vector<ProgramInfo> programs;
  for (const testing::FigProgram& fig : testing::AllFigPrograms()) {
    env->session().NewProgram();
    Status built = fig.build(env);
    if (!built.ok()) {
      std::fprintf(stderr, "FATAL building %s: %s\n", fig.name.c_str(),
                   built.ToString().c_str());
      std::exit(1);
    }
    MustOk(env->session().SaveProgram(fig.name), fig.name.c_str());
    programs.push_back(ProgramInfo{fig.name, fig.canvases});
  }
  env->session().NewProgram();
  return programs;
}

/// Per-session replay state: which program it loaded, and the Restrict box
/// drill-down traffic rewrites (empty when the program has none).
struct SessionState {
  std::string id;
  size_t program = 0;
  std::string drill_box;
  std::string drill_predicate;
  int drill_depth = 0;
};

/// Tally of request outcomes as the client saw them (cross-checked against
/// the server's metrics counters in the JSON report).
struct Tally {
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t errors = 0;
  std::string first_error;

  void Add(const Status& status) {
    if (status.ok()) {
      ++ok;
    } else if (status.IsUnavailable()) {
      ++rejected;
    } else if (status.IsDeadlineExceeded()) {
      ++deadline_exceeded;
    } else {
      ++errors;
      if (first_error.empty()) first_error = status.ToString();
    }
  }
  uint64_t total() const { return ok + rejected + deadline_exceeded + errors; }
};

std::string JsonHistogram(const runtime::LatencyHistogram& h) {
  return h.ToJson();
}

struct RunReport {
  double wall_seconds = 0;
  Tally tally;
  runtime::MetricsSnapshot snapshot;
  runtime::LatencyHistogram latency;
  std::map<std::string, runtime::LatencyHistogram> classes;
  /// Summed over every session's engine after the replay (the server-side
  /// Metrics is not attached as the session engines' BoxObserver, so it
  /// sees no box counts).
  uint64_t boxes_fired = 0;
  uint64_t engine_cache_hits = 0;
  uint64_t engine_shared_hits = 0;

  std::string ToJson() const {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", wall_seconds);
    std::string json = "{\"wall_seconds\":" + std::string(buffer);
    double rps = wall_seconds > 0
                     ? static_cast<double>(tally.total()) / wall_seconds
                     : 0.0;
    std::snprintf(buffer, sizeof(buffer), "%.1f", rps);
    json += ",\"throughput_rps\":" + std::string(buffer);
    json += ",\"submitted\":" + std::to_string(tally.total());
    json += ",\"ok\":" + std::to_string(tally.ok);
    json += ",\"rejected\":" + std::to_string(tally.rejected);
    json += ",\"deadline_exceeded\":" + std::to_string(tally.deadline_exceeded);
    json += ",\"errors\":" + std::to_string(tally.errors);
    json += ",\"latency\":" + JsonHistogram(latency);
    json += ",\"classes\":{";
    bool first = true;
    for (const auto& [tag, histogram] : classes) {
      if (!first) json += ',';
      first = false;
      json += "\"" + tag + "\":" + JsonHistogram(histogram);
    }
    json += "}";
    json += ",\"server\":{";
    json += "\"requests_completed\":" + std::to_string(snapshot.requests_completed);
    json += ",\"requests_rejected\":" + std::to_string(snapshot.requests_rejected);
    json += ",\"requests_timed_out\":" + std::to_string(snapshot.requests_timed_out);
    json += ",\"boxes_fired\":" + std::to_string(boxes_fired);
    json += ",\"engine_cache_hits\":" + std::to_string(engine_cache_hits);
    json += ",\"engine_shared_hits\":" + std::to_string(engine_shared_hits);
    json += ",\"shared_cache\":{";
    json += "\"hits\":" + std::to_string(snapshot.shared_cache_hits);
    json += ",\"misses\":" + std::to_string(snapshot.shared_cache_misses);
    json += ",\"inserts\":" + std::to_string(snapshot.shared_cache_inserts);
    json += ",\"evictions\":" + std::to_string(snapshot.shared_cache_evictions);
    json += ",\"entries\":" + std::to_string(snapshot.shared_cache_entries);
    json += "}}}";
    return json;
  }
};

using runtime::Session;
using runtime::SessionServer;

/// Finds the first Restrict box of the session's loaded program (drill-down
/// traffic replaces its predicate); empty id when the program has none.
void FindDrillBox(Session& session, SessionState* state) {
  const dataflow::Graph& graph = session.ui().graph();
  for (const std::string& id : graph.BoxIds()) {
    auto box = graph.GetBox(id);
    if (!box.ok() || box.value()->type_name() != "Restrict") continue;
    auto params = box.value()->Params();
    auto it = params.find("predicate");
    if (it == params.end()) continue;
    state->drill_box = id;
    state->drill_predicate = it->second;
    return;
  }
}

/// Drill-down: rewrite the Restrict predicate to an equivalent-but-distinct
/// form (wrapped in `depth` parentheses). The new predicate has a new box
/// signature, so every downstream stamp changes and the chain re-evaluates —
/// the §5 drill-down cost — while staying valid against any input schema.
/// Depth cycles, so sessions drilling to the same depth share work through
/// the shared memo tier exactly like same-canvas viewers do.
std::string WrapPredicate(const std::string& predicate, int depth) {
  std::string wrapped = predicate;
  for (int i = 0; i < depth; ++i) wrapped = "(" + wrapped + ")";
  return wrapped;
}

/// The mixed traffic replay. Returns the client-side tally and drains the
/// server's metrics into the report.
RunReport RunLoad(Environment* env, const std::vector<ProgramInfo>& programs,
                  const Config& config, size_t shared_entries) {
  SessionServer::Options options;
  options.num_threads = config.threads;
  options.queue_bound = config.queue_bound;
  options.shared_cache_entries = shared_entries;
  std::unique_ptr<SessionServer> server = env->CreateServer(options);

  // Setup: open every session and load its program (synchronous, so a
  // rejected load cannot silently leave a session without a program).
  std::vector<SessionState> states(config.sessions);
  for (size_t i = 0; i < config.sessions; ++i) {
    SessionState& state = states[i];
    state.id = Must(server->OpenSession(), "OpenSession");
    state.program = i % programs.size();
    const std::string program_name = programs[state.program].name;
    SessionState* state_ptr = &state;
    Status loaded =
        server
            ->Submit(state.id,
                     {.handler =
                          [program_name, state_ptr](Session& s) {
                            TIOGA2_RETURN_IF_ERROR(
                                s.ui().LoadProgram(program_name));
                            FindDrillBox(s, state_ptr);
                            return Status::OK();
                          },
                      .tag = "load"})
            .get();
    if (!loaded.ok()) {
      std::fprintf(stderr, "FATAL loading %s into %s: %s\n",
                   program_name.c_str(), state.id.c_str(),
                   loaded.ToString().c_str());
      std::exit(1);
    }
  }

  // Replay: a deterministic interleaving of pan/zoom (75%), drill-down
  // (15%), and edit (10%) requests round-robined across all sessions, with
  // a sliding window of outstanding futures so client concurrency tracks
  // the admission bound instead of submitting everything at once.
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> mix(0.0, 1.0);
  Tally tally;
  std::deque<std::future<Status>> outstanding;
  auto drain_to = [&](size_t limit) {
    while (outstanding.size() > limit) {
      tally.Add(outstanding.front().get());
      outstanding.pop_front();
    }
  };
  std::chrono::milliseconds deadline{config.deadline_ms};
  auto start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < config.requests_per_session; ++round) {
    for (SessionState& state : states) {
      double dice = mix(rng);
      SessionServer::Request request;
      request.deadline = deadline;
      if (dice < 0.10) {
        // Edit: a §8 single-tuple update against the shared catalog. Bumps
        // the table version, so every downstream stamp changes and the
        // shared tier turns over. kBatch: background writes must not starve
        // interactive admission.
        size_t row_seed = rng();
        request.handler = [row_seed](Session& s) {
          TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr stations,
                                  s.ui().catalog()->GetTable("Stations"));
          if (stations->num_rows() == 0) return Status::OK();
          size_t row = row_seed % stations->num_rows();
          TIOGA2_ASSIGN_OR_RETURN(size_t alt,
                                  stations->schema()->ColumnIndex("altitude"));
          db::Tuple tuple = stations->row(row);
          tuple[alt] = types::Value::Float(tuple[alt].AsDouble() + 1.0);
          return s.ui()
              .catalog()
              ->UpdateRow("Stations", row, std::move(tuple))
              .status();
        };
        request.access = SessionServer::Access::kWrite;
        request.priority = SessionServer::Priority::kBatch;
        request.tag = "edit";
      } else if (dice < 0.25 && !state.drill_box.empty()) {
        // Drill-down: narrow the Restrict and re-evaluate its canvas.
        state.drill_depth = state.drill_depth % 4 + 1;
        std::string box = state.drill_box;
        std::string predicate = WrapPredicate(state.drill_predicate,
                                              state.drill_depth);
        std::string canvas = programs[state.program].canvases.front();
        request.handler = [box, predicate, canvas](Session& s) {
          TIOGA2_RETURN_IF_ERROR(
              s.ui().ReplaceBox(box, "Restrict", {{"predicate", predicate}}));
          return s.ui().EvaluateCanvas(canvas).status();
        };
        request.tag = "drilldown";
      } else {
        // Pan/zoom: re-resolve a canvas (memoized unless an edit or a
        // drill-down invalidated the chain) — the dominant interactive op.
        const std::vector<std::string>& canvases =
            programs[state.program].canvases;
        std::string canvas = canvases[rng() % canvases.size()];
        request.handler = [canvas](Session& s) {
          return s.ui().EvaluateCanvas(canvas).status();
        };
        request.tag = "panzoom";
      }
      outstanding.push_back(server->Submit(state.id, std::move(request)));
      drain_to(config.queue_bound);
    }
  }
  drain_to(0);
  auto elapsed = std::chrono::steady_clock::now() - start;

  RunReport report;
  report.wall_seconds = std::chrono::duration<double>(elapsed).count();
  // Total evaluation work: summed over every session's engine.
  for (SessionState& state : states) {
    MustOk(server
               ->Submit(state.id, {.handler =
                                       [&report](Session& s) {
                                         dataflow::EngineStats stats =
                                             s.ui().engine().stats();
                                         report.boxes_fired += stats.boxes_fired;
                                         report.engine_cache_hits +=
                                             stats.cache_hits;
                                         report.engine_shared_hits +=
                                             stats.shared_hits;
                                         return Status::OK();
                                       }})
               .get(),
           "stats");
  }
  report.tally = tally;
  report.snapshot = server->metrics().snapshot();
  report.latency = server->metrics().request_latency();
  report.classes = server->metrics().request_classes();
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "  first handler error: %s\n",
                 tally.first_error.c_str());
  }
  return report;
}

/// The §7 convergence experiment: M sessions all load the same program and
/// evaluate the same canvas, sequentially. With the shared tier the M-th
/// viewer adopts the first viewer's entries; total box fires should stay
/// within 2x one session's fires. Without it, work scales with M.
struct ConvergenceReport {
  size_t sessions = 0;
  uint64_t single_fired = 0;
  uint64_t total_fired_shared = 0;
  uint64_t total_fired_unshared = 0;
  uint64_t shared_hits = 0;
  size_t distinct_fingerprints = 0;

  std::string ToJson() const {
    std::string json = "{\"sessions\":" + std::to_string(sessions);
    json += ",\"single_session_boxes_fired\":" + std::to_string(single_fired);
    json += ",\"total_boxes_fired_shared\":" + std::to_string(total_fired_shared);
    json += ",\"total_boxes_fired_unshared\":" +
            std::to_string(total_fired_unshared);
    char buffer[32];
    double ratio = single_fired == 0
                       ? 0.0
                       : static_cast<double>(total_fired_shared) /
                             static_cast<double>(single_fired);
    std::snprintf(buffer, sizeof(buffer), "%.2f", ratio);
    json += ",\"shared_to_single_ratio\":" + std::string(buffer);
    json += ",\"shared_hits\":" + std::to_string(shared_hits);
    json += ",\"distinct_fingerprints\":" +
            std::to_string(distinct_fingerprints);
    json += "}";
    return json;
  }
};

ConvergenceReport RunConvergence(Environment* env,
                                 const std::vector<ProgramInfo>& programs,
                                 const Config& config) {
  ConvergenceReport report;
  report.sessions = config.convergence_sessions;
  const std::string& program = programs.front().name;
  const std::string& canvas = programs.front().canvases.front();
  for (bool shared : {true, false}) {
    SessionServer::Options options;
    options.num_threads = 1;  // sequential: makes the fire counts exact
    options.shared_cache_entries = shared ? config.shared_entries : 0;
    std::unique_ptr<SessionServer> server = env->CreateServer(options);
    std::vector<std::string> fingerprints;
    uint64_t total_fired = 0;
    for (size_t i = 0; i < config.convergence_sessions; ++i) {
      std::string id = Must(server->OpenSession(), "OpenSession");
      MustOk(server
                 ->Submit(id, {.handler =
                                   [&program](Session& s) {
                                     return s.ui().LoadProgram(program);
                                   }})
                 .get(),
             "LoadProgram");
      auto displayable = server->EvaluateCanvas(id, canvas);
      MustOk(displayable.status(), "EvaluateCanvas");
      fingerprints.push_back(
          testing::FingerprintDisplayable(displayable.value()));
      uint64_t fired = 0;
      MustOk(server
                 ->Submit(id, {.handler =
                                   [&fired](Session& s) {
                                     fired = s.ui().engine().stats().boxes_fired;
                                     return Status::OK();
                                   }})
                 .get(),
             "stats");
      total_fired += fired;
      if (shared && i == 0) report.single_fired = fired;
    }
    if (shared) {
      report.total_fired_shared = total_fired;
      report.shared_hits = server->metrics().snapshot().shared_cache_hits;
      std::vector<std::string> unique = fingerprints;
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
      report.distinct_fingerprints = unique.size();
    } else {
      report.total_fired_unshared = total_fired;
    }
  }
  return report;
}

int Run(int argc, char** argv) {
  Config config = ParseFlags(argc, argv);
  ReportHeader("session load",
               "§7 multi-user serving: many viewers, one database");
  std::printf(
      "  sessions=%zu requests/session=%zu threads=%zu queue_bound=%zu "
      "shared_entries=%zu%s\n",
      config.sessions, config.requests_per_session, config.threads,
      config.queue_bound, config.shared_entries, config.smoke ? " (smoke)" : "");

  Environment env;
  MustOk(env.LoadDemoData(config.extra_stations, config.num_days, config.seed),
         "LoadDemoData");
  std::vector<ProgramInfo> programs = SavePrograms(&env);
  std::printf("  %zu figure programs saved to the catalog\n", programs.size());

  ConvergenceReport convergence = RunConvergence(&env, programs, config);
  std::printf(
      "  convergence: %zu sessions, one canvas -> %llu fires shared vs %llu "
      "unshared (single session: %llu; ratio %.2fx; %zu distinct "
      "fingerprint[s])\n",
      convergence.sessions,
      static_cast<unsigned long long>(convergence.total_fired_shared),
      static_cast<unsigned long long>(convergence.total_fired_unshared),
      static_cast<unsigned long long>(convergence.single_fired),
      convergence.single_fired == 0
          ? 0.0
          : static_cast<double>(convergence.total_fired_shared) /
                static_cast<double>(convergence.single_fired),
      convergence.distinct_fingerprints);

  std::printf("  replaying with shared cache ON...\n");
  RunReport shared_on = RunLoad(&env, programs, config, config.shared_entries);
  std::printf("  replaying with shared cache OFF...\n");
  RunReport shared_off = RunLoad(&env, programs, config, 0);

  auto summarize = [](const char* name, const RunReport& r) {
    std::printf(
        "  %s: %.2fs, %.0f req/s, p50 %.0fus p99 %.0fus | ok=%llu "
        "rejected=%llu deadline=%llu errors=%llu | fires=%llu shared_hits=%llu\n",
        name, r.wall_seconds,
        r.wall_seconds > 0 ? static_cast<double>(r.tally.total()) / r.wall_seconds
                           : 0.0,
        r.latency.QuantileUpperBoundMicros(0.5),
        r.latency.QuantileUpperBoundMicros(0.99),
        static_cast<unsigned long long>(r.tally.ok),
        static_cast<unsigned long long>(r.tally.rejected),
        static_cast<unsigned long long>(r.tally.deadline_exceeded),
        static_cast<unsigned long long>(r.tally.errors),
        static_cast<unsigned long long>(r.boxes_fired),
        static_cast<unsigned long long>(r.snapshot.shared_cache_hits));
  };
  summarize("shared ON ", shared_on);
  summarize("shared OFF", shared_off);

  std::string json = "{\"config\":{";
  json += "\"sessions\":" + std::to_string(config.sessions);
  json += ",\"requests_per_session\":" +
          std::to_string(config.requests_per_session);
  json += ",\"threads\":" + std::to_string(config.threads);
  json += ",\"queue_bound\":" + std::to_string(config.queue_bound);
  json += ",\"deadline_ms\":" + std::to_string(config.deadline_ms);
  json += ",\"shared_entries\":" + std::to_string(config.shared_entries);
  json += ",\"seed\":" + std::to_string(config.seed);
  json += ",\"smoke\":" + std::string(config.smoke ? "true" : "false");
  json += "},\"programs\":[";
  for (size_t i = 0; i < programs.size(); ++i) {
    if (i > 0) json += ',';
    json += "\"" + programs[i].name + "\"";
  }
  json += "],\"convergence\":" + convergence.ToJson();
  json += ",\"shared_on\":" + shared_on.ToJson();
  json += ",\"shared_off\":" + shared_off.ToJson();
  json += "}";
  std::ofstream out(config.out);
  out << json << "\n";
  out.close();
  std::printf("  -> %s\n", config.out.c_str());

  // Smoke assertions (scripts/check.sh `load-smoke`).
  int failures = 0;
  if (config.smoke) {
    if (shared_on.tally.errors != 0 || shared_off.tally.errors != 0) {
      std::fprintf(stderr, "SMOKE FAIL: handler errors (on=%llu off=%llu)\n",
                   static_cast<unsigned long long>(shared_on.tally.errors),
                   static_cast<unsigned long long>(shared_off.tally.errors));
      ++failures;
    }
    if (shared_on.snapshot.shared_cache_hits == 0) {
      std::fprintf(stderr, "SMOKE FAIL: shared cache recorded zero hits\n");
      ++failures;
    }
    if (convergence.distinct_fingerprints != 1) {
      std::fprintf(stderr, "SMOKE FAIL: %zu distinct fingerprints (want 1)\n",
                   convergence.distinct_fingerprints);
      ++failures;
    }
    if (convergence.single_fired == 0 ||
        convergence.total_fired_shared > 2 * convergence.single_fired) {
      std::fprintf(stderr,
                   "SMOKE FAIL: convergence %llu fires vs single %llu "
                   "(want <= 2x)\n",
                   static_cast<unsigned long long>(
                       convergence.total_fired_shared),
                   static_cast<unsigned long long>(convergence.single_fired));
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) { return tioga2::bench::Run(argc, argv); }
