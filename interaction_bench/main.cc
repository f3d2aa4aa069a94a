// The interaction benchmark: one run of one workload.
//
//   interaction_bench --workload navigate|drill|serve --seed N --seconds S
//                     --trace 0|1
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) spend half the time untraced and half traced, report the
// per-layer metrics from the traced half, print the tracing overhead, and
// write the kept spans to .bench_build/traces/<workload>.trace.json. The
// last line of stdout is the JSON result.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "workload.h"

namespace ibench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, for every workload; a layer
/// a workload does not enter reads 0. BENCHMARK.json lists the same names.
const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef>* defs = [] {
    auto* d = new std::vector<MetricDef>{
        {"runtime.queue_wait_ms.p50", "ms"},
        {"runtime.queue_wait_ms.p99", "ms"},
        {"runtime.service_ms.p50", "ms"},
        {"runtime.service_ms.p99", "ms"},
        {"runtime.rejected", "count"},
        {"runtime.timed_out", "count"},
        {"runtime.max_queue_depth", "count"},
        {"ui.replace_box_ms", "ms"},
        {"ui.load_program_ms", "ms"},
        {"dataflow.evaluate_ms", "ms"},
        {"dataflow.boxes_fired", "1/interaction"},
        {"dataflow.cache_hits", "1/interaction"},
        {"dataflow.memo_hit_ratio", "ratio"},
        {"dataflow.shared_hits", "1/interaction"},
        {"dataflow.shared_misses", "1/interaction"},
        {"dataflow.shared_hit_ratio", "ratio"},
        {"dataflow.shared_evictions", "1/interaction"},
        {"dataflow.deltas_applied", "1/interaction"},
        {"dataflow.delta_fallbacks", "1/interaction"},
    };
    for (const char* type : {"Table", "Restrict", "Sample", "GroupBy", "Join",
                             "AddAttribute", "SetLocation", "SetDisplay"}) {
      d->push_back({InternName(std::string("boxes.fire_ms.") + type), "ms"});
      d->push_back({InternName(std::string("boxes.fires.") + type), "1/interaction"});
    }
    for (const MetricDef& m : std::vector<MetricDef>{
             {"db.restrict_rows", "1/interaction"},
             {"db.join_build_rows", "1/interaction"},
             {"db.join_probe_rows", "1/interaction"},
             {"db.morsels_executed", "1/interaction"},
             {"db.dict_columns_built", "1/interaction"},
             {"expr.nodes_vectorized", "1/interaction"},
             {"expr.nodes_fallback", "1/interaction"},
             {"expr.vectorized_ratio", "ratio"},
             {"expr.simd_rows", "1/interaction"},
             {"expr.dict_simd_batches", "1/interaction"},
             {"expr.render_location_batches", "1/interaction"},
             {"expr.render_scalar_fallbacks", "1/interaction"},
             {"viewer.render_ms.p50", "ms"},
             {"viewer.render_ms.p99", "ms"},
             {"viewer.self_ms", "ms"},
             {"viewer.refresh_ms", "ms"},
             {"viewer.render_delta_ms", "ms"},
             {"viewer.tuples_total", "1/frame"},
             {"viewer.tuples_drawn", "1/frame"},
             {"viewer.drawn_ratio", "ratio"},
             {"viewer.culled_viewport", "1/frame"},
             {"viewer.culled_slider", "1/frame"},
             {"viewer.relations_skipped", "1/frame"},
             {"viewer.wormholes_rendered", "1/frame"},
             {"render.raster_ms", "ms"},
             {"render.clear_ms", "ms"},
         }) {
      d->push_back(m);
    }
    for (int k = 0; k < TracingSurface::kNumKinds; ++k) {
      std::string name = std::string("render.calls.") + TracingSurface::KindName(k);
      d->push_back({InternName(name), "1/frame"});
    }
    d->push_back({"update.click_update_ms", "ms"});
    return d;
  }();
  return *defs;
}

void Usage() {
  std::fprintf(stderr,
               "usage: interaction_bench --workload navigate|drill|serve --seed N "
               "--seconds S --trace 0|1\n");
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options->seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0;
}

double Throughput(const Phase& phase) {
  return phase.wall_s > 0 ? static_cast<double>(phase.samples.size()) / phase.wall_s : 0;
}

std::vector<double> Latencies(const Phase& phase) {
  std::vector<double> ms;
  ms.reserve(phase.samples.size());
  for (const Sample& s : phase.samples) ms.push_back(s.ms);
  return ms;
}

void PrintPhase(const char* label, const Phase& phase,
                const std::vector<std::string>& classes) {
  std::vector<double> ms = Latencies(phase);
  double p99 = Quantile(ms, 0.99);
  size_t beyond = 0;
  for (double v : ms) beyond += v > p99 ? 1 : 0;
  std::printf("  %s phase: %zu interactions in %.3f s (%.2f/s), p50 %.3f ms, p99 %.3f ms "
              "(%zu samples beyond p99%s), %llu failed\n",
              label, ms.size(), phase.wall_s, Throughput(phase), Quantile(ms, 0.5), p99,
              beyond, beyond < 10 ? " -- FEWER THAN 10" : "",
              static_cast<unsigned long long>(phase.failed));
  std::vector<double> window_p99s;
  const double reported = PhaseP99(phase, &window_p99s);
  if (!window_p99s.empty()) {
    std::printf("  %s p99 per window of %zu interactions (ms):", label,
                ms.size() / kP99Windows);
    for (double v : window_p99s) std::printf(" %.3f", v);
    std::printf("; median %.3f ms is the reported p99\n", reported);
  }
  std::printf("  %s deciles (ms):", label);
  for (int d = 1; d <= 9; ++d) std::printf(" %.2f", Quantile(ms, d / 10.0));
  std::printf("\n");
  PrintClassBreakdown(label, phase, classes);
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    Usage();
    return 2;
  }
  WorkloadResult result;
  if (options.workload == "navigate") {
    result = RunNavigate(options);
  } else if (options.workload == "drill") {
    result = RunDrill(options);
  } else if (options.workload == "serve") {
    result = RunServe(options);
  } else {
    Usage();
    return 2;
  }

  std::printf("workload %s, seed %llu, %.1f s%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? ", traced" : "");
  std::printf("  setup_s per repetition:");
  for (double s : result.setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  PrintPhase("untraced", result.timed, result.classes);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (options.trace) {
    PrintPhase("traced", result.traced, result.classes);
    double untraced = Throughput(result.timed);
    double traced = Throughput(result.traced);
    std::printf(
        "  tracing overhead: %.2f%% (throughput %.2f/s untraced, %.2f/s traced)\n",
        untraced > 0 ? 100.0 * (1.0 - traced / untraced) : 0.0, untraced, traced);
    for (const auto& [name, value] : result.layers) {
      bool known = false;
      for (const MetricDef& def : PerLayerMetrics()) known = known || name == def.name;
      if (!known) result.problems.push_back("unlisted per-layer metric " + name);
    }
    for (const MetricDef& def : PerLayerMetrics()) {
      auto it = result.layers.find(def.name);
      double value = it == result.layers.end() ? 0 : it->second;
      metrics.push_back({def.name, {value, def.unit}});
    }
  } else {
    std::vector<double> ms = Latencies(result.timed);
    std::vector<double> window_p99s;
    metrics = {
        {"setup_s", {Median(result.setup_s), "s"}},
        {"peak_rss_mb", {result.peak_rss_mb, "MB"}},
        {"throughput_ips", {Throughput(result.timed), "1/s"}},
        {"p50_ms", {Quantile(ms, 0.5), "ms"}},
        {"p99_ms", {PhaseP99(result.timed, &window_p99s), "ms"}},
    };
  }

  const uint64_t attempted = result.timed.attempted + result.traced.attempted;
  const uint64_t failed = result.timed.failed + result.traced.failed;
  for (const std::string& problem : result.problems) {
    std::printf("  CHECK FAILED: %s\n", problem.c_str());
  }
  const bool correct = result.problems.empty() && failed == 0 && attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    const auto& [name, measured] = metrics[i];
    json += "\"" + name + "\": {\"value\": " + Number(measured.first) +
            ", \"unit\": \"" + measured.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace ibench

int main(int argc, char** argv) {
  try {
    return ibench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "interaction_bench failed: %s\n", e.what());
    return 1;
  }
}
