// Dictionary-encoded string execution (db/columnar.h dictionaries, the
// comparison lowering in expr/batch.cc, code-hashed joins in
// db/operators.cc, and the columnar group-by in db/aggregates.cc). Three
// categorical workloads over a ~200k-row station relation, each run two
// ways — tuple-at-a-time scalar and vectorized on dictionary codes — plus a
// fig07 program trace recording the batch counters a vectorized run moves.
// The vectorized output is checked cell-identical against the scalar oracle
// before anything is timed. Writes bench_out/dict_strings.json.
//
// Usage:
//   bench_dict_strings [--rows=N] [--smoke] [--out=PATH]
//
// --smoke shrinks the relation for CI (scripts/check.sh `dict-smoke`); the
// correctness assertions and counter assertions are hard failures in every
// mode.

#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "data/generators.h"
#include "db/aggregates.h"
#include "db/exec_policy.h"
#include "db/operators.h"
#include "expr/batch.h"
#include "testing/fig_programs.h"

namespace tioga2::bench {
namespace {

using types::DataType;
using types::Value;

struct Config {
  size_t rows = 200000;
  bool smoke = false;
  std::string out = "";
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
    if (const char* v = value_of(arg, "--rows")) {
      config.rows = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--out")) {
      config.out = v;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  if (config.smoke) config.rows = 20000;
  if (config.out.empty()) config.out = OutDir() + "/dict_strings.json";
  return config;
}

// Five string comparisons (two equalities, one inequality, one range) over
// the two categorical columns, merged through and/or — every one lowers to
// an integer comparison on the `state`/`name` dictionary codes.
constexpr const char* kCategoricalPredicate =
    "state = \"LA\" or state = \"CA\" or "
    "(state >= \"TN\" and state <= \"TX\") or name < \"B\"";

db::ExecPolicy Vectorized() {
  db::ExecPolicy policy;
  policy.vectorized = true;
  return policy;
}

db::ExecPolicy Scalar() {
  db::ExecPolicy policy;
  policy.vectorized = false;
  return policy;
}

template <typename Fn>
double TimeUs(int iters, Fn&& fn) {
  fn();  // warm-up
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() / iters;
}

/// Builds the station relation with its columnar image (and so its
/// dictionaries) built, so no timed run pays for materialization.
db::RelationPtr BuildStations(size_t rows) {
  auto stations = Must(data::MakeStations(rows, 7), "stations");
  for (size_t c = 0; c < stations->num_columns(); ++c) stations->columnar().column(c);
  return stations;
}

/// Dimension relation keyed on the station states: one row per distinct
/// state plus two keys no station carries (exercising unmatched probe
/// entries). Its key column has its own dictionary, so the join remaps the
/// build side's codes into the probe side's.
db::RelationPtr BuildStateDim(const db::RelationPtr& stations) {
  size_t state_col = stations->num_columns();
  for (size_t c = 0; c < stations->num_columns(); ++c) {
    if (stations->schema()->column(c).name == "state") state_col = c;
  }
  if (state_col >= stations->num_columns()) {
    std::fprintf(stderr, "FATAL: stations relation has no state column\n");
    std::exit(1);
  }
  std::set<std::string> states;
  for (size_t r = 0; r < stations->num_rows(); ++r) {
    states.insert(stations->row(r)[state_col].string_value());
  }
  std::vector<db::Tuple> rows;
  int64_t region = 0;
  for (const std::string& s : states) {
    rows.push_back({Value::String(s), Value::Int(region++)});
  }
  rows.push_back({Value::String("ZZ"), Value::Int(region++)});
  rows.push_back({Value::String(""), Value::Int(region++)});
  auto dim = Must(db::MakeRelation({db::Column{"state_name", DataType::kString},
                                    db::Column{"region", DataType::kInt}},
                                   rows),
                  "state dim");
  for (size_t c = 0; c < dim->num_columns(); ++c) dim->columnar().column(c);
  return dim;
}

/// Cell-identity between two relations that tolerates nothing: schema text,
/// row count, per-cell nullness, runtime type, and text must all match.
void MustMatch(const db::Relation& oracle, const db::Relation& got,
               const char* what) {
  bool ok = oracle.schema()->ToString() == got.schema()->ToString() &&
            oracle.num_rows() == got.num_rows();
  for (size_t r = 0; ok && r < oracle.num_rows(); ++r) {
    for (size_t c = 0; ok && c < oracle.num_columns(); ++c) {
      const Value& a = oracle.row(r)[c];
      const Value& b = got.row(r)[c];
      ok = a.is_null() == b.is_null() &&
           (a.is_null() || (a.type() == b.type() && a.ToString() == b.ToString()));
    }
  }
  if (!ok) {
    std::fprintf(stderr, "FATAL %s: output diverged from the scalar oracle\n",
                 what);
    std::exit(1);
  }
}

struct Fig07Trace {
  uint64_t nodes_fallback = 0;
  uint64_t nodes_vectorized = 0;
  uint64_t dict_simd_batches = 0;
  uint64_t dict_columns_built = 0;
};

/// Evaluates the fig07 drill-down program end to end under the default
/// (vectorized) policy and returns the batch counters the run produced.
Fig07Trace TraceFig07() {
  const testing::FigProgram* fig7 = nullptr;
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    if (program.name.find("fig07") != std::string::npos) fig7 = &program;
  }
  Fig07Trace trace;
  if (fig7 == nullptr) return trace;
  expr::BatchMetrics::Global().Reset();
  Environment env;
  MustOk(env.LoadDemoData(fig7->extra_stations, fig7->num_days), "fig07 data");
  MustOk(fig7->build(&env), "fig07 build");
  ui::Session& session = env.session();
  MustOk(session.engine().EvaluateAll(session.graph()), "fig07 evaluate");
  expr::BatchMetrics& m = expr::BatchMetrics::Global();
  trace.nodes_fallback = m.nodes_fallback.load();
  trace.nodes_vectorized = m.nodes_vectorized.load();
  trace.dict_simd_batches = m.dict_simd_batches.load();
  trace.dict_columns_built = m.dict_columns_built.load();
  expr::BatchMetrics::Global().Reset();
  return trace;
}

int Run(int argc, char** argv) {
  Config config = ParseFlags(argc, argv);
  ReportHeader("Dictionary-encoded strings",
               "categorical restrict / group-by / join on integer code lanes "
               "(§4.2 database operations over categorical attributes)");

  auto stations = BuildStations(config.rows);
  const int scalar_iters = config.smoke ? 2 : 3;
  const int vec_iters = config.smoke ? 3 : 10;

  // ---- Workload 1: categorical compound Restrict. -------------------------
  auto predicate = Must(
      db::CompilePredicate(stations->schema(), kCategoricalPredicate), "predicate");
  auto r_oracle = Must(db::RestrictScalar(stations, predicate), "restrict oracle");
  const uint64_t dict_batches_before =
      expr::BatchMetrics::Global().dict_simd_batches.load();
  MustMatch(*r_oracle, *Must(db::Restrict(stations, predicate, Vectorized()), "restrict"),
            "restrict");
  if (expr::BatchMetrics::Global().dict_simd_batches.load() <= dict_batches_before) {
    std::fprintf(stderr, "FATAL: restrict never dispatched a dictionary-code batch\n");
    return 1;
  }
  double restrict_scalar_us = TimeUs(scalar_iters, [&] {
    benchmark::DoNotOptimize(db::RestrictScalar(stations, predicate));
  });
  double restrict_vec_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(db::Restrict(stations, predicate, Vectorized()));
  });

  // ---- Workload 2: group-by on the string key. ----------------------------
  const std::vector<db::AggSpec> aggs = {
      db::AggSpec{db::AggFn::kCount, "", "n"},
      db::AggSpec{db::AggFn::kAvg, "altitude", "avg_altitude"},
      db::AggSpec{db::AggFn::kMax, "name", "max_name"}};
  auto g_oracle = Must(db::GroupBy(stations, {"state"}, aggs, Scalar()), "groupby oracle");
  MustMatch(*g_oracle,
            *Must(db::GroupBy(stations, {"state"}, aggs, Vectorized()), "groupby"),
            "group-by");
  double groupby_scalar_us = TimeUs(scalar_iters, [&] {
    benchmark::DoNotOptimize(db::GroupBy(stations, {"state"}, aggs, Scalar()));
  });
  double groupby_vec_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(db::GroupBy(stations, {"state"}, aggs, Vectorized()));
  });

  // ---- Workload 3: string-key hash join against a state dimension. --------
  auto dim = BuildStateDim(stations);
  auto j_oracle =
      Must(db::Join(stations, dim, "state = state_name", Scalar()), "join oracle");
  MustMatch(*j_oracle.relation,
            *Must(db::Join(stations, dim, "state = state_name", Vectorized()), "join")
                 .relation,
            "join");
  double join_scalar_us = TimeUs(scalar_iters, [&] {
    benchmark::DoNotOptimize(db::Join(stations, dim, "state = state_name", Scalar()));
  });
  double join_vec_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(db::Join(stations, dim, "state = state_name", Vectorized()));
  });

  // ---- fig07 trace: the counters a vectorized run moves. ------------------
  Fig07Trace fig = TraceFig07();
  if (fig.dict_columns_built > 0 && fig.dict_simd_batches == 0) {
    std::fprintf(stderr, "FATAL: fig07 built dictionaries but never used them\n");
    return 1;
  }

  auto section = [](const char* name, double scalar_us, double vec_us) {
    return std::string("\"") + name + "\":{" + "\"scalar_us\":" +
           std::to_string(scalar_us) + ",\"vectorized_us\":" + std::to_string(vec_us) +
           ",\"vectorized_vs_scalar\":" + std::to_string(scalar_us / vec_us) + "}";
  };
  std::string json =
      std::string("{\"rows\":") + std::to_string(config.rows) +
      ",\"smoke\":" + (config.smoke ? "true" : "false") +
      ",\"predicate\":\"categorical compound (5 string comparisons)\"," +
      section("restrict", restrict_scalar_us, restrict_vec_us) + "," +
      section("group_by", groupby_scalar_us, groupby_vec_us) + "," +
      section("join", join_scalar_us, join_vec_us) +
      ",\"fig07\":{\"nodes_fallback\":" + std::to_string(fig.nodes_fallback) +
      ",\"nodes_vectorized\":" + std::to_string(fig.nodes_vectorized) +
      ",\"dict_simd_batches\":" + std::to_string(fig.dict_simd_batches) +
      ",\"dict_columns_built\":" + std::to_string(fig.dict_columns_built) + "}}";
  std::ofstream out(config.out);
  out << json << "\n";
  out.close();

  std::printf("  categorical restrict (%zu rows): %.0f us scalar, %.0f us vectorized (%.2fx)\n",
              config.rows, restrict_scalar_us, restrict_vec_us,
              restrict_scalar_us / restrict_vec_us);
  std::printf("  state group-by:                  %.0f us scalar, %.0f us vectorized (%.2fx)\n",
              groupby_scalar_us, groupby_vec_us, groupby_scalar_us / groupby_vec_us);
  std::printf("  state-key join:                  %.0f us scalar, %.0f us vectorized (%.2fx)\n",
              join_scalar_us, join_vec_us, join_scalar_us / join_vec_us);
  std::printf("  fig07 trace: fallback %llu / vectorized %llu / dict batches %llu / "
              "dictionaries built %llu\n",
              static_cast<unsigned long long>(fig.nodes_fallback),
              static_cast<unsigned long long>(fig.nodes_vectorized),
              static_cast<unsigned long long>(fig.dict_simd_batches),
              static_cast<unsigned long long>(fig.dict_columns_built));
  std::printf("  -> %s\n", config.out.c_str());
  return 0;
}

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) { return tioga2::bench::Run(argc, argv); }
