// Morsel-scaling ablation (ROADMAP "Morsel-driven intra-operator
// parallelism"): how Restrict and the hash-join probe scale when their
// inputs split into fixed-size morsels fanned out across a ThreadPool
// (db/morsel.h), swept over 1/2/4/8 threads x morsel sizes.
//
// Two workloads:
//   restrict_chain — the Figure 7 shape at ~200k stations: three chained
//     Restricts over the station table (each output a selection view
//     composed over the last), the operator the fig07 layers spend their
//     time in.
//   join — the 50k x 100k stations-x-observations equi-join of
//     bench_join_columnar; the build stays serial, the probe morselizes.
//
// Correctness is asserted here too, not just in tests: every cell of the
// sweep must produce a relation equal to the serial run, and a fig07
// program evaluated under an 8-thread morsel policy must reproduce the
// serial dataflow::Engine's output fingerprints and memo stamps exactly.
//
// Writes bench_out/morsel_scaling.json (recorded in EXPERIMENTS.md). The
// speedup claim is hardware-bounded: on fewer than 8 visible cores the
// wall-clock target cannot reproduce, so the JSON carries hardware_cores
// and the claim degrades to a low-overhead check.

#include "bench/bench_common.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "db/morsel.h"
#include "db/operators.h"
#include "runtime/thread_pool.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"

namespace tioga2::bench {
namespace {

constexpr size_t kRestrictStations = 200000;
constexpr size_t kJoinStations = 50000;
constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kMorselSizes[] = {8192, 32768, 131072};

struct Cell {
  size_t threads = 0;
  size_t morsel_rows = 0;
  double micros = 0;
};

double TimeUs(const std::function<void()>& fn) {
  constexpr int kIters = 5;
  fn();  // warm-up
  double best = 0;
  for (int i = 0; i < kIters; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (i == 0 || micros < best) best = micros;
  }
  return best;
}

/// Sweeps `run` over the thread x morsel-size grid, checking each cell's
/// output against `serial` via `equals`. Returns the grid timings.
template <typename RunFn, typename EqualsFn>
std::vector<Cell> Sweep(const RunFn& run, const EqualsFn& equals,
                        bool* identical) {
  std::vector<Cell> cells;
  for (size_t threads : kThreadCounts) {
    runtime::ThreadPool pool(threads);
    for (size_t morsel_rows : kMorselSizes) {
      db::ExecPolicy policy;
      policy.morsel_rows = morsel_rows;
      policy.runner = &pool;
      Cell cell;
      cell.threads = threads;
      cell.morsel_rows = morsel_rows;
      cell.micros = TimeUs([&] { run(policy); });
      *identical = *identical && equals(policy);
      cells.push_back(cell);
    }
  }
  return cells;
}

double BestAtThreads(const std::vector<Cell>& cells, size_t threads) {
  double best = 0;
  for (const Cell& cell : cells) {
    if (cell.threads != threads) continue;
    if (best == 0 || cell.micros < best) best = cell.micros;
  }
  return best;
}

void AppendGridJson(std::ofstream& out, double serial_us,
                    const std::vector<Cell>& cells) {
  out << "\"serial_us\": " << serial_us << ", \"grid\": [";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"threads\": " << cells[i].threads
        << ", \"morsel_rows\": " << cells[i].morsel_rows
        << ", \"us\": " << cells[i].micros
        << ", \"speedup\": " << serial_us / cells[i].micros << "}";
  }
  out << "]";
}

void PrintGrid(const char* name, double serial_us,
               const std::vector<Cell>& cells) {
  std::printf("  %s: serial %0.0f us\n", name, serial_us);
  for (const Cell& cell : cells) {
    std::printf("    %zu thread%s morsel=%-6zu %10.0f us (speedup %.2fx)\n",
                cell.threads, cell.threads == 1 ? ", " : "s,",
                cell.morsel_rows, cell.micros, serial_us / cell.micros);
  }
}

/// Serial-vs-morsel program-level check: fig07's output fingerprints and
/// memo stamps under an 8-thread small-morsel policy must equal the serial
/// engine's. Returns false (and prints) on any mismatch.
bool Fig7StampsIdentical() {
  const testing::FigProgram* fig7 = nullptr;
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    if (std::string(program.name).find("fig07") != std::string::npos) {
      fig7 = &program;
      break;
    }
  }
  if (fig7 == nullptr) {
    std::printf("  (no fig07 program found; skipping stamp check)\n");
    return false;
  }
  auto build = [&](Environment* env) {
    MustOk(env->LoadDemoData(fig7->extra_stations, fig7->num_days), "load");
    MustOk(fig7->build(env), "build");
  };
  Environment serial_env;
  build(&serial_env);
  ui::Session& serial_session = serial_env.session();
  MustOk(serial_session.engine().EvaluateAll(serial_session.graph()), "serial");

  Environment env;
  build(&env);
  ui::Session& session = env.session();
  runtime::ThreadPool pool(8);
  dataflow::Engine engine(session.catalog());
  db::ExecPolicy policy;
  policy.morsel_rows = 4096;
  policy.runner = &pool;
  engine.set_exec_policy(policy);
  MustOk(engine.EvaluateAll(session.graph()), "morsel");

  bool identical = true;
  for (const std::string& id : serial_session.graph().BoxIds()) {
    if (serial_session.engine().cache().StampOf(id) != engine.cache().StampOf(id)) {
      std::printf("  STAMP MISMATCH at box %s\n", id.c_str());
      identical = false;
    }
  }
  return identical;
}

void Report() {
  ReportHeader("Morsel scaling",
               "intra-operator parallelism: threads x morsel size ablation");
  const unsigned cores = std::thread::hardware_concurrency();
  bool identical = true;

  // ---- Workload 1: fig07-style Restrict chain over ~200k stations. -------
  auto stations = Must(data::MakeStations(kRestrictStations, 7), "stations");
  stations->columnar();  // steady state: input arrives columnar
  const char* predicates[] = {
      "latitude > 30.0 and latitude < 47.5",
      "longitude < -85.0 or altitude > 120.0",
      "state != \"LA\" or altitude <= 400.0",
  };
  auto run_chain = [&](const db::ExecPolicy& policy) {
    db::RelationPtr current = stations;
    for (const char* predicate : predicates) {
      auto compiled = Must(db::CompilePredicate(current->schema(), predicate),
                           "predicate");
      current = Must(db::Restrict(current, compiled, policy), "restrict");
    }
    return current;
  };
  db::RelationPtr serial_chain = run_chain(db::ExecPolicy{});
  double chain_serial_us = TimeUs([&] { run_chain(db::ExecPolicy{}); });
  std::vector<Cell> chain_cells = Sweep(
      run_chain,
      [&](const db::ExecPolicy& policy) {
        return db::RelationEquals(*serial_chain, *run_chain(policy));
      },
      &identical);
  PrintGrid("restrict chain (200k rows, 3 composed restricts)",
            chain_serial_us, chain_cells);

  // ---- Workload 2: 50k x 100k equi-join, morselized hash probe. ----------
  auto build_side = Must(data::MakeStations(kJoinStations, 7), "stations");
  auto probe_side =
      Must(data::MakeObservations(*build_side, types::Date::FromYmd(1985, 1, 1),
                                  2, 8),
           "observations");
  build_side->columnar();
  probe_side->columnar();
  const char* join_predicate = "station_id = station_id_2";
  auto run_join = [&](const db::ExecPolicy& policy) {
    return Must(db::Join(build_side, probe_side, join_predicate, policy), "join")
        .relation;
  };
  db::RelationPtr serial_join = run_join(db::ExecPolicy{});
  double join_serial_us = TimeUs([&] { run_join(db::ExecPolicy{}); });
  std::vector<Cell> join_cells = Sweep(
      run_join,
      [&](const db::ExecPolicy& policy) {
        return db::RelationEquals(*serial_join, *run_join(policy));
      },
      &identical);
  PrintGrid("hash join (50k build, ~100k probe)", join_serial_us, join_cells);

  std::printf("  outputs identical to serial in every cell: %s\n",
              identical ? "yes" : "NO");
  bool stamps_identical = Fig7StampsIdentical();
  std::printf("  fig07 stamps identical under 8-thread morsel policy: %s\n",
              stamps_identical ? "yes" : "NO");

  // ---- The hardware-bounded claim. ----------------------------------------
  const double chain_speedup8 =
      chain_serial_us / BestAtThreads(chain_cells, 8);
  std::string claim_status;
  if (cores >= 8) {
    claim_status = chain_speedup8 >= 3.0 ? "REPRODUCED" : "NOT reproduced";
    std::printf("  claim (>= 3x on restrict chain at 8 threads, %u cores): "
                "%.2fx -> %s\n",
                cores, chain_speedup8, claim_status.c_str());
  } else {
    // One visible core: morsels time-slice it, so the most a correct
    // executor can do is stay out of the way. Gate on overhead instead.
    const bool low_overhead = chain_speedup8 >= 1.0 / 1.15;
    claim_status = low_overhead
                       ? "HARDWARE-BOUNDED (overhead ok; re-run on >= 8 cores)"
                       : "FAIL (executor overhead above 15%)";
    std::printf("  claim: only %u core(s) visible, no wall-clock speedup "
                "possible here.\n  checked instead: 8-thread overhead %.1f%% "
                "-> %s\n",
                cores, (1.0 / chain_speedup8 - 1.0) * 100.0,
                claim_status.c_str());
  }

  std::ofstream out(OutDir() + "/morsel_scaling.json");
  out << "{\n  \"benchmark\": \"morsel_scaling\",\n"
      << "  \"hardware_cores\": " << cores << ",\n"
      << "  \"restrict_chain\": {\"rows\": " << stations->num_rows() << ", ";
  AppendGridJson(out, chain_serial_us, chain_cells);
  out << "},\n  \"join\": {\"build_rows\": " << build_side->num_rows()
      << ", \"probe_rows\": " << probe_side->num_rows() << ", ";
  AppendGridJson(out, join_serial_us, join_cells);
  out << "},\n"
      << "  \"outputs_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"fig07_stamps_identical\": "
      << (stamps_identical ? "true" : "false") << ",\n"
      << "  \"restrict_chain_speedup_8_threads\": " << chain_speedup8 << ",\n"
      << "  \"claim_3x_at_8_threads\": \"" << claim_status << "\"\n}\n";
  std::printf("  wrote %s/morsel_scaling.json\n", OutDir().c_str());
}

void BM_RestrictMorsels(benchmark::State& state) {
  auto stations = Must(data::MakeStations(100000, 7), "stations");
  stations->columnar();
  auto compiled = Must(
      db::CompilePredicate(stations->schema(), "latitude > 30.0"), "predicate");
  runtime::ThreadPool pool(static_cast<size_t>(state.range(0)));
  db::ExecPolicy policy;
  policy.morsel_rows = static_cast<size_t>(state.range(1));
  policy.runner = state.range(0) > 0 ? &pool : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::Restrict(stations, compiled, policy));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["morsel_rows"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_RestrictMorsels)
    ->Args({0, 32768})
    ->Args({2, 32768})
    ->Args({8, 32768})
    ->Args({8, 8192});

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
