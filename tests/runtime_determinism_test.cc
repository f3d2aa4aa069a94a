// Inline/morsel-fan-out equivalence over the full figure suite: every figure
// program evaluates to bit-identical outputs and stamps whether the
// dataflow::Engine runs each fired box's morsels inline or fans them out
// across a runner of 1, 2, or 8 threads (one thread stays inline). This is
// the guarantee that lets an evaluation use a pool without changing what any
// user sees.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "boxes/relational_boxes.h"
#include "expr/batch.h"
#include "runtime/thread_pool.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"

namespace tioga2::testing {
namespace {

/// A canvas evaluation target: the edge feeding a viewer box.
struct Target {
  std::string canvas;
  std::string from;
  size_t from_port = 0;
};

std::vector<Target> TargetsOf(const dataflow::Graph& graph) {
  std::vector<Target> targets;
  for (const std::string& id : graph.BoxIds()) {
    const auto* viewer =
        dynamic_cast<const boxes::ViewerBox*>(graph.GetBox(id).value());
    if (viewer == nullptr) continue;
    std::optional<dataflow::Edge> edge = graph.IncomingEdge(id, 0);
    if (!edge.has_value()) continue;
    targets.push_back(Target{viewer->canvas(), edge->from_box, edge->from_port});
  }
  return targets;
}

/// Lends `engine` `pool`, so its boxes' morsels fan out across it.
void LendRunner(dataflow::Engine* engine, runtime::ThreadPool* pool,
                db::ExecPolicy policy = db::DefaultExecPolicy()) {
  policy.runner = pool;
  engine->set_exec_policy(policy);
}

/// Builds `program` into a fresh environment.
std::unique_ptr<Environment> BuildEnv(const FigProgram& program) {
  auto env = std::make_unique<Environment>();
  EXPECT_TRUE(env->LoadDemoData(program.extra_stations, program.num_days).ok())
      << program.name;
  Status built = program.build(env.get());
  EXPECT_TRUE(built.ok()) << program.name << ": " << built.message();
  return env;
}

// Pinned morsel sizes that do not align with expr::kBatchSize split every
// operator into many concurrently evaluated morsels whose inner batch
// boundaries differ from the inline sweep; a size larger than every input
// degenerates to one morsel. Outputs and stamps must stay bit-identical to
// inline evaluation in all cases, and every configuration that can fan out
// must actually have done so on each program with a morsel site.
TEST(RuntimeDeterminismTest, MorselFanOutMatchesInlineOnEveryFigProgram) {
  struct Config {
    size_t threads;
    size_t morsel_rows;
    bool fans_out;  // whether a program with a morsel site runs one on the pool
  };
  const Config configs[] = {
      {1, db::ExecPolicy{}.morsel_rows, false},  // one worker: stays inline
      {2, 7, true},                              // unaligned, 2 workers
      {8, 7, true},                              // unaligned, 8 workers
      {8, 1u << 20, false},  // larger than every input: exactly one morsel
  };
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  size_t fanned_out_runs = 0;
  for (const FigProgram& program : AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    // Serial reference: evaluate every canvas target through the session's
    // engine, recording output fingerprints and the resulting stamp map.
    auto serial_env = BuildEnv(program);
    ui::Session& serial_session = serial_env->session();
    std::vector<Target> targets = TargetsOf(serial_session.graph());
    ASSERT_EQ(targets.size(), program.canvases.size());
    std::map<std::string, std::string> expected;
    for (const Target& t : targets) {
      auto value = serial_session.engine().Evaluate(serial_session.graph(),
                                                    t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
      expected[t.canvas] = FingerprintBoxValue(value.value());
    }
    std::map<std::string, std::optional<uint64_t>> expected_stamps;
    for (const std::string& id : serial_session.graph().BoxIds()) {
      expected_stamps[id] = serial_session.engine().cache().StampOf(id);
    }

    for (const Config& config : configs) {
      SCOPED_TRACE("threads=" + std::to_string(config.threads) +
                   " morsel_rows=" + std::to_string(config.morsel_rows));
      // A fresh environment regenerates identical demo data (seeded), so
      // the run starts from the same tables and versions.
      auto env = BuildEnv(program);
      ui::Session& session = env->session();
      runtime::ThreadPool pool(config.threads);
      dataflow::Engine engine(session.catalog());
      db::ExecPolicy policy = db::DefaultExecPolicy();
      policy.morsel_rows = config.morsel_rows;
      LendRunner(&engine, &pool, policy);
      const uint64_t groups_before = metrics.morsel_groups;
      const uint64_t parallel_before = metrics.morsel_groups_parallel;
      for (const Target& t : TargetsOf(session.graph())) {
        auto value = engine.Evaluate(session.graph(), t.from, t.from_port);
        ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
        ASSERT_EQ(expected.count(t.canvas), 1u);
        EXPECT_EQ(FingerprintBoxValue(value.value()), expected.at(t.canvas))
            << t.canvas;
      }
      for (const std::string& id : session.graph().BoxIds()) {
        ASSERT_EQ(expected_stamps.count(id), 1u) << id;
        EXPECT_EQ(engine.cache().StampOf(id), expected_stamps.at(id)) << id;
      }
      const bool has_morsel_site = metrics.morsel_groups > groups_before;
      const bool ran_on_pool = metrics.morsel_groups_parallel > parallel_before;
      EXPECT_EQ(ran_on_pool, config.fans_out && has_morsel_site);
      if (ran_on_pool) ++fanned_out_runs;
    }
  }
  EXPECT_GT(fanned_out_runs, 0u);
}

// Cross-session sharing: a stamp-keyed SharedMemoCache populated by one
// environment's engine serves another environment's engine byte-identical
// entries — from an inline engine, and from an engine fanning its morsels
// out across 8 threads. An adopting engine fires ZERO boxes (so it runs no
// morsel either): every value arrives through the shared tier, which is the
// §7 many-viewers convergence claim in its strongest form. Demo data is
// seeded, so distinct environments carry identical tables at identical
// versions and therefore identical stamps.
TEST(RuntimeDeterminismTest, SharedCacheParityOnEveryFigProgram) {
  for (const FigProgram& program : AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    // Reference: serial, no shared tier.
    auto ref_env = BuildEnv(program);
    ui::Session& ref_session = ref_env->session();
    std::vector<Target> targets = TargetsOf(ref_session.graph());
    std::map<std::string, std::string> expected;
    for (const Target& t : targets) {
      auto value =
          ref_session.engine().Evaluate(ref_session.graph(), t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
      expected[t.canvas] = FingerprintBoxValue(value.value());
    }
    std::map<std::string, std::optional<uint64_t>> expected_stamps;
    for (const std::string& id : ref_session.graph().BoxIds()) {
      expected_stamps[id] = ref_session.engine().cache().StampOf(id);
    }

    dataflow::SharedMemoCache shared(4096);
    // Publisher: a serial engine fills the shared tier as it evaluates.
    auto pub_env = BuildEnv(program);
    ui::Session& pub_session = pub_env->session();
    pub_session.set_shared_cache(&shared);
    for (const Target& t : TargetsOf(pub_session.graph())) {
      auto value =
          pub_session.engine().Evaluate(pub_session.graph(), t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas;
      EXPECT_EQ(FingerprintBoxValue(value.value()), expected.at(t.canvas));
    }
    ASSERT_GT(shared.stats().inserts, 0u);

    // Serial adopter: every box resolves through the shared tier — zero
    // fires — and outputs and stamps stay byte-identical.
    auto serial_env = BuildEnv(program);
    ui::Session& serial_session = serial_env->session();
    serial_session.set_shared_cache(&shared);
    for (const Target& t : TargetsOf(serial_session.graph())) {
      auto value = serial_session.engine().Evaluate(serial_session.graph(),
                                                    t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas;
      EXPECT_EQ(FingerprintBoxValue(value.value()), expected.at(t.canvas))
          << t.canvas;
    }
    EXPECT_EQ(serial_session.engine().stats().boxes_fired, 0u);
    EXPECT_GT(serial_session.engine().stats().shared_hits, 0u);
    for (const std::string& id : serial_session.graph().BoxIds()) {
      EXPECT_EQ(serial_session.engine().cache().StampOf(id),
                expected_stamps.at(id))
          << id;
    }

    // Reverse direction: an engine fanning its morsels out populates a fresh
    // shared tier and an inline engine adopts its entries without firing
    // anything.
    dataflow::SharedMemoCache reverse(4096);
    auto par_env = BuildEnv(program);
    {
      ui::Session& session = par_env->session();
      runtime::ThreadPool pool(8);
      dataflow::Engine engine(session.catalog());
      db::ExecPolicy policy = db::DefaultExecPolicy();
      policy.morsel_rows = 7;  // splits every table the program reads
      LendRunner(&engine, &pool, policy);
      engine.set_shared_cache(&reverse);
      expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
      const uint64_t groups_before = metrics.morsel_groups;
      const uint64_t parallel_before = metrics.morsel_groups_parallel;
      for (const Target& t : TargetsOf(session.graph())) {
        auto value = engine.Evaluate(session.graph(), t.from, t.from_port);
        ASSERT_TRUE(value.ok()) << t.canvas;
        EXPECT_EQ(FingerprintBoxValue(value.value()), expected.at(t.canvas));
      }
      if (metrics.morsel_groups > groups_before) {
        EXPECT_GT(metrics.morsel_groups_parallel, parallel_before);
      }
    }
    {
      auto env = BuildEnv(program);
      ui::Session& session = env->session();
      session.set_shared_cache(&reverse);
      for (const Target& t : TargetsOf(session.graph())) {
        auto value =
            session.engine().Evaluate(session.graph(), t.from, t.from_port);
        ASSERT_TRUE(value.ok()) << t.canvas;
        EXPECT_EQ(FingerprintBoxValue(value.value()), expected.at(t.canvas))
            << t.canvas;
      }
      EXPECT_EQ(session.engine().stats().boxes_fired, 0u);
      EXPECT_GT(session.engine().stats().shared_hits, 0u);
    }
  }
}

// Evicting shared tier parity: a deliberately tiny shared cache evicts on
// nearly every insert while three successive environments evaluate every
// fig program through it. Outputs and stamps must stay byte-identical to
// the no-cache reference: eviction only drops memory, never changes values.
// This is the determinism half of the DESIGN.md §13 byte-identity claim
// (the torture half lives in session_server_test).
TEST(RuntimeDeterminismTest, EvictingSharedCacheParityOnEveryFigProgram) {
  for (const FigProgram& program : AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    auto ref_env = BuildEnv(program);
    ui::Session& ref_session = ref_env->session();
    std::vector<Target> targets = TargetsOf(ref_session.graph());
    std::map<std::string, std::string> expected;
    for (const Target& t : targets) {
      auto value =
          ref_session.engine().Evaluate(ref_session.graph(), t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
      expected[t.canvas] = FingerprintBoxValue(value.value());
    }
    std::map<std::string, std::optional<uint64_t>> expected_stamps;
    for (const std::string& id : ref_session.graph().BoxIds()) {
      expected_stamps[id] = ref_session.engine().cache().StampOf(id);
    }

    dataflow::SharedMemoCache shared(1);
    for (int round = 0; round < 3; ++round) {
      auto env = BuildEnv(program);
      ui::Session& session = env->session();
      session.set_shared_cache(&shared);
      for (const Target& t : TargetsOf(session.graph())) {
        auto value =
            session.engine().Evaluate(session.graph(), t.from, t.from_port);
        ASSERT_TRUE(value.ok()) << t.canvas;
        EXPECT_EQ(FingerprintBoxValue(value.value()), expected.at(t.canvas))
            << t.canvas;
      }
      for (const std::string& id : session.graph().BoxIds()) {
        EXPECT_EQ(session.engine().cache().StampOf(id), expected_stamps.at(id))
            << id;
      }
    }
    dataflow::SharedMemoCache::Stats stats = shared.stats();
    ASSERT_GT(stats.inserts, 0u);
    // Capacity 1: any program publishing more than one distinct stamp had
    // to evict.
    if (stats.inserts > 1) {
      EXPECT_GT(stats.evictions, 0u);
    }
  }
}

}  // namespace
}  // namespace tioga2::testing
