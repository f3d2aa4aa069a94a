// Shared-tier equivalence over the full figure suite: every figure program
// evaluates to bit-identical outputs and stamps whichever engine filled the
// shared memo tier it adopts from, and however often that tier evicts.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "boxes/relational_boxes.h"
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

/// Builds `program` into a fresh environment.
std::unique_ptr<Environment> BuildEnv(const FigProgram& program) {
  auto env = std::make_unique<Environment>();
  EXPECT_TRUE(env->LoadDemoData(program.extra_stations, program.num_days).ok())
      << program.name;
  Status built = program.build(env.get());
  EXPECT_TRUE(built.ok()) << program.name << ": " << built.message();
  return env;
}

// Cross-session sharing: a stamp-keyed SharedMemoCache populated by one
// environment's engine serves another environment's engine byte-identical
// entries — from a session engine, and from a standalone engine over the
// session's catalog. An adopting engine fires ZERO boxes: every value
// arrives through the shared tier, which is the §7 many-viewers convergence
// claim in its strongest form. Demo data is seeded, so distinct
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

    // Reverse direction: a standalone engine populates a fresh shared tier
    // and a session engine adopts its entries without firing anything.
    dataflow::SharedMemoCache reverse(4096);
    auto pub2_env = BuildEnv(program);
    {
      ui::Session& session = pub2_env->session();
      dataflow::Engine engine(session.catalog());
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
