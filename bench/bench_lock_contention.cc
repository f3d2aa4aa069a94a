// Lock-contention harness for the epoch-pinned catalog read (DESIGN.md §13):
// sweeps catalog name resolution — one ReadPin, then the TableVersion +
// GetTable pair every TableBox evaluation performs — at 1 / 8 / 32 reader
// threads, against the same reads under a std::shared_mutex reader lock,
// the synchronization the epoch-pinned snapshot replaced. The canvas
// registry's read path has the same copy-on-write shape; the shared memo
// tier is a plain mutex LRU and has no lock-free path to sweep.
//
//   bench_lock_contention [--ops=N] [--tables=N] [--smoke] [--out=PATH]
//
// --smoke shrinks the op counts for CI (scripts/check.sh `contention`),
// repeats every sweep and keeps its best rate, and turns on the gate
// assertions (floors below), all read from one run, and requires that epoch
// pins were taken. Emits bench_out/lock_contention.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "db/catalog.h"
#include "db/relation.h"
#include "runtime/epoch.h"

namespace tioga2::bench {
namespace {

/// Smoke floors for the 8-thread lock-free read. Against its own 1-thread
/// rate: adding readers must not collapse it back to serialized; the host's
/// cores are shared, so the floor asks for no speed-up. Against the rwlock
/// baseline: the epoch-pinned read must at least match the lock it
/// replaced, like for like — the reason EpochDomain is kept.
constexpr double kMinEightVsOneThread = 0.75;
constexpr double kMinEightVsRwlock = 1.0;

struct Config {
  size_t ops_per_thread = 400000;
  size_t tables = 64;  // catalog population
  size_t repeats = 1;  // sweeps per cell; a cell reports its best rate
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
    if (const char* v = value_of(arg, "--ops")) {
      config.ops_per_thread = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--tables")) {
      config.tables = std::strtoull(v, nullptr, 10);
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
    // One smoke sweep lasts about 7 ms, so a single preemption can halve its
    // rate; each cell's best of five measures the structure, not the
    // scheduler.
    config.ops_per_thread = 60000;
    config.tables = 32;
    config.repeats = 5;
  }
  if (config.out.empty()) config.out = OutDir() + "/lock_contention.json";
  return config;
}

/// Runs `op` ops_per_thread times on each of `threads` threads; returns
/// aggregate ops/second. `op(thread_index, i)` must consume its result into
/// `sink` itself to defeat dead-code elimination.
template <typename Op>
double Sweep(size_t threads, size_t ops_per_thread, Op op) {
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t local = 0;
      for (size_t i = 0; i < ops_per_thread; ++i) local += op(t, i);
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (sink.load() == ~uint64_t{0}) std::printf("(impossible)\n");
  double total = static_cast<double>(threads) * static_cast<double>(ops_per_thread);
  return seconds > 0 ? total / seconds : 0.0;
}

struct SweepResult {
  size_t threads = 0;
  double lockfree_ops = 0;
  double baseline_ops = 0;
};

std::string SweepJson(const std::vector<SweepResult>& rows) {
  std::string json = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json += ',';
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"threads\":%zu,\"lockfree_ops_per_sec\":%.0f,"
                  "\"baseline_ops_per_sec\":%.0f}",
                  rows[i].threads, rows[i].lockfree_ops, rows[i].baseline_ops);
    json += buffer;
  }
  json += "]";
  return json;
}

int Run(int argc, char** argv) {
  Config config = ParseFlags(argc, argv);
  ReportHeader("lock-contention (DESIGN.md §13)",
               "read-dominated hot paths must scale with reader threads");
  std::printf("  ops/thread=%zu tables=%zu repeats=%zu%s\n", config.ops_per_thread,
              config.tables, config.repeats, config.smoke ? " (smoke)" : "");

  const std::vector<size_t> thread_counts = {1, 8, 32};
  runtime::EpochDomain domain(128);

  db::Catalog catalog;
  catalog.set_reclamation_domain(&domain);
  std::vector<std::string> names;
  for (size_t i = 0; i < config.tables; ++i) {
    auto relation = db::MakeRelation({db::Column{"v", types::DataType::kInt}},
                                     {{types::Value::Int(static_cast<int64_t>(i))}});
    std::string name = "T" + std::to_string(i);
    MustOk(catalog.RegisterTable(name, Must(std::move(relation), "relation")),
           "RegisterTable");
    names.push_back(name);
  }
  std::shared_mutex catalog_mu;  // models the old per-request reader lock

  // Each repeat sweeps every cell once, so every cell's samples spread over
  // the whole run and its best rate comes from the quietest moment.
  std::vector<SweepResult> resolve(thread_counts.size());
  for (size_t repeat = 0; repeat < config.repeats; ++repeat) {
    for (size_t c = 0; c < thread_counts.size(); ++c) {
      SweepResult& row = resolve[c];
      row.threads = thread_counts[c];
      // Lock-free: the SessionServer kRead path — one ReadPin, then the
      // TableVersion + GetTable pair every TableBox evaluation performs.
      row.lockfree_ops = std::max(
          row.lockfree_ops,
          Sweep(row.threads, config.ops_per_thread, [&](size_t t, size_t i) {
            const std::string& name = names[(t + i) % names.size()];
            db::Catalog::ReadPin pin(catalog);
            uint64_t version = catalog.TableVersion(name).value();
            return catalog.GetTable(name).ok() ? (version != 0 ? 1u : 0u) : 0u;
          }));
      // Baseline: the same reads under a shared_lock, as session_server.cc
      // took before §13.
      row.baseline_ops = std::max(
          row.baseline_ops,
          Sweep(row.threads, config.ops_per_thread, [&](size_t t, size_t i) {
            const std::string& name = names[(t + i) % names.size()];
            std::shared_lock<std::shared_mutex> lock(catalog_mu);
            uint64_t version = catalog.TableVersion(name).value();
            return catalog.GetTable(name).ok() ? (version != 0 ? 1u : 0u) : 0u;
          }));
    }
  }
  for (const SweepResult& row : resolve) {
    std::printf("  catalog %2zu threads: lock-free %12.0f ops/s | rwlock %12.0f ops/s\n",
                row.threads, row.lockfree_ops, row.baseline_ops);
  }

  runtime::EpochDomain::Stats epoch = domain.stats();
  std::string json = "{\"config\":{";
  json += "\"ops_per_thread\":" + std::to_string(config.ops_per_thread);
  json += ",\"tables\":" + std::to_string(config.tables);
  json += ",\"repeats\":" + std::to_string(config.repeats);
  json += ",\"smoke\":" + std::string(config.smoke ? "true" : "false");
  json += ",\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency());
  json += "},\"catalog_resolve\":" + SweepJson(resolve);
  json += ",\"epoch\":{\"pins\":" + std::to_string(epoch.pins);
  json += ",\"advances\":" + std::to_string(epoch.advances);
  json += ",\"retired\":" + std::to_string(epoch.retired);
  json += ",\"reclaimed\":" + std::to_string(epoch.reclaimed);
  json += ",\"overflow_pins\":" + std::to_string(epoch.overflow_pins) + "}";
  json += "}";
  std::ofstream out(config.out);
  out << json << "\n";
  out.close();
  std::printf("  -> %s\n", config.out.c_str());

  // Smoke assertions (scripts/check.sh `contention`).
  int failures = 0;
  if (config.smoke) {
    double one = resolve[0].lockfree_ops;
    double eight = resolve[1].lockfree_ops;
    double rwlock = resolve[1].baseline_ops;
    std::printf("  8-thread lock-free: %.2fx 1-thread, %.2fx rwlock\n",
                eight / one, eight / rwlock);
    if (eight < kMinEightVsOneThread * one) {
      std::fprintf(stderr,
                   "SMOKE FAIL: catalog_resolve 8-thread lock-free throughput "
                   "%.0f < %.2f x 1-thread %.0f (collapsed to serialized)\n",
                   eight, kMinEightVsOneThread, one);
      ++failures;
    }
    if (eight < kMinEightVsRwlock * rwlock) {
      std::fprintf(stderr,
                   "SMOKE FAIL: catalog_resolve 8-thread lock-free throughput "
                   "%.0f < %.2f x 8-thread rwlock %.0f\n",
                   eight, kMinEightVsRwlock, rwlock);
      ++failures;
    }
    if (epoch.pins == 0) {
      std::fprintf(stderr, "SMOKE FAIL: no epoch pins recorded\n");
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) { return tioga2::bench::Run(argc, argv); }
