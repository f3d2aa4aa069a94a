// Inline/fan-out equivalence over the full figure suite: every figure
// program evaluates to bit-identical outputs and stamps whether the
// dataflow::Engine resolves boxes inline or fans them out across a runner of
// 1, 2, or 8 threads (one thread stays inline: db::FanOutRunner). This is
// the guarantee that lets an evaluation use a pool without changing what any
// user sees.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "boxes/relational_boxes.h"
#include "runtime/epoch.h"
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

/// Lends `engine` `pool`, so independent boxes and morsels fan out across it.
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

TEST(RuntimeDeterminismTest, FanOutMatchesInlineOnEveryFigProgram) {
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

    for (size_t num_threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(num_threads));
      // A fresh environment regenerates identical demo data (seeded), so
      // the fanned-out run starts from the same tables and versions.
      auto env = BuildEnv(program);
      ui::Session& session = env->session();
      runtime::ThreadPool pool(num_threads);
      dataflow::Engine engine(session.catalog());
      LendRunner(&engine, &pool);
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
    }
  }
}

// Morsel-driven fan-out: the same 3-pass regression with intra-operator
// parallelism forced on. Small pinned morsel sizes split every operator in
// each figure program into many concurrently-evaluated morsels (including
// sizes that do NOT align with expr::kBatchSize, so inner batch boundaries
// differ from the inline sweep), and a size larger than every input
// degenerates to one morsel. Outputs and stamps must stay bit-identical to
// inline evaluation in all cases.
TEST(RuntimeDeterminismTest, MorselFanOutMatchesSerialOnEveryFigProgram) {
  struct Config {
    size_t threads;
    size_t morsel_rows;
  };
  const Config configs[] = {
      {2, 4097},       // straddles the kBatchSize boundary, 2 workers
      {8, 509},        // dozens of small unaligned morsels, 8 workers
      {8, 1u << 20},   // larger than every input: exactly one morsel
  };
  for (const FigProgram& program : AllFigPrograms()) {
    SCOPED_TRACE(program.name);
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
      auto env = BuildEnv(program);
      ui::Session& session = env->session();
      runtime::ThreadPool pool(config.threads);
      dataflow::Engine engine(session.catalog());
      db::ExecPolicy policy;
      policy.morsel_rows = config.morsel_rows;
      // One runner for both levels: boxes running ON pool workers fan
      // morsels out ACROSS the same workers — the nested-use case the
      // deadlock-avoidance design exists for.
      LendRunner(&engine, &pool, policy);
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
    }
  }
}

// Cross-session sharing: a stamp-keyed SharedMemoCache populated by one
// environment's engine serves another environment's engine byte-identical
// entries — in both directions between an inline engine and an engine
// fanning out across 8 threads. An adopting engine fires ZERO boxes: every
// value arrives through the shared tier, which is the §7 many-viewers
// convergence claim in its strongest form. Demo data is seeded, so distinct
// environments carry identical tables at identical versions and therefore
// identical stamps.
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

    // Fanned-out adopter: the pool-driven engine adopts the same entries.
    {
      auto env = BuildEnv(program);
      ui::Session& session = env->session();
      runtime::ThreadPool pool(8);
      dataflow::Engine engine(session.catalog());
      LendRunner(&engine, &pool);
      engine.set_shared_cache(&shared);
      for (const Target& t : TargetsOf(session.graph())) {
        auto value = engine.Evaluate(session.graph(), t.from, t.from_port);
        ASSERT_TRUE(value.ok()) << t.canvas;
        EXPECT_EQ(FingerprintBoxValue(value.value()), expected.at(t.canvas))
            << t.canvas;
      }
      EXPECT_EQ(engine.stats().boxes_fired, 0u);
      EXPECT_GT(engine.stats().shared_hits, 0u);
      for (const std::string& id : session.graph().BoxIds()) {
        EXPECT_EQ(engine.cache().StampOf(id), expected_stamps.at(id)) << id;
      }
    }

    // Reverse direction: a fanned-out engine populates a fresh shared tier
    // and an inline engine adopts its entries without firing anything.
    dataflow::SharedMemoCache reverse(4096);
    auto par_env = BuildEnv(program);
    {
      ui::Session& session = par_env->session();
      runtime::ThreadPool pool(8);
      dataflow::Engine engine(session.catalog());
      LendRunner(&engine, &pool);
      engine.set_shared_cache(&reverse);
      for (const Target& t : TargetsOf(session.graph())) {
        auto value = engine.Evaluate(session.graph(), t.from, t.from_port);
        ASSERT_TRUE(value.ok()) << t.canvas;
        EXPECT_EQ(FingerprintBoxValue(value.value()), expected.at(t.canvas));
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

// Epoch-reclaimed shared tier parity: a deliberately tiny shared cache wired
// to its own EpochDomain evicts on nearly every insert — retiring nodes and
// tombstone-compacted tables through the domain, with TryAdvance reclaiming
// them between rounds — while three successive environments evaluate every
// fig program through it. Outputs and stamps must stay byte-identical to
// the no-cache reference: eviction, retirement, and reclamation only move
// memory, never values. This is the determinism half of the DESIGN.md §13
// byte-identity claim (the torture half lives in session_server_test).
TEST(RuntimeDeterminismTest, EpochReclaimedSharedCacheParityOnEveryFigProgram) {
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

    runtime::EpochDomain domain(8);
    dataflow::SharedMemoCache shared(1, &domain);
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
      domain.TryAdvance();  // reclaim between rounds, mid-reuse
    }
    dataflow::SharedMemoCache::Stats stats = shared.stats();
    ASSERT_GT(stats.inserts, 0u);
    // Capacity 1: any program publishing more than one distinct stamp had
    // to evict, and every eviction retires the node through the domain.
    if (stats.inserts > 1) {
      EXPECT_GT(stats.evictions, 0u);
      EXPECT_GT(domain.stats().retired, 0u);
    }
    while (domain.stats().pending > 0) ASSERT_TRUE(domain.TryAdvance());
    EXPECT_EQ(domain.stats().reclaimed, domain.stats().retired);
  }
}

}  // namespace
}  // namespace tioga2::testing
