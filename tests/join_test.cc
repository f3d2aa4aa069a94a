// Join correctness and determinism: typed key hashing (the old text-keyed
// HashKey had UB on out-of-int64-range doubles and collided distinct float
// keys), the left-major ordering contract across build-side flips, and
// byte-identity of the columnar join/view path against the scalar row-store
// oracle — per-operator and over the full figure programs (stamps and
// fingerprints).

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "boxes/relational_boxes.h"
#include "db/operators.h"
#include "expr/batch.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"

namespace tioga2::db {
namespace {

using types::DataType;
using types::Value;

const ExecPolicy kScalar{false};
const ExecPolicy kVectorized{true};

constexpr size_t kAllRows = 1u << 20;

RelationPtr IntKeyed(const char* key_name, std::vector<std::optional<int64_t>> keys) {
  RelationBuilder builder(std::make_shared<const Schema>(
      Schema::Make({Column{key_name, DataType::kInt}, Column{std::string(key_name) + "_tag", DataType::kInt}})
          .value()));
  int64_t tag = 0;
  for (const auto& key : keys) {
    builder.AddRowUnchecked(
        Tuple{key.has_value() ? Value::Int(*key) : Value::Null(), Value::Int(tag++)});
  }
  return builder.Build();
}

RelationPtr FloatKeyed(const char* key_name, std::vector<std::optional<double>> keys) {
  RelationBuilder builder(std::make_shared<const Schema>(
      Schema::Make({Column{key_name, DataType::kFloat}, Column{std::string(key_name) + "_tag", DataType::kInt}})
          .value()));
  int64_t tag = 0;
  for (const auto& key : keys) {
    builder.AddRowUnchecked(
        Tuple{key.has_value() ? Value::Float(*key) : Value::Null(), Value::Int(tag++)});
  }
  return builder.Build();
}

/// Joins under both policies, checks the two results are byte-identical
/// (schema, order, every cell), and returns the scalar one.
JoinResult JoinBothPaths(const RelationPtr& left, const RelationPtr& right,
                         const std::string& predicate) {
  auto scalar = Join(left, right, predicate, kScalar);
  auto vectorized = Join(left, right, predicate, kVectorized);
  EXPECT_TRUE(scalar.ok()) << scalar.status().ToString();
  EXPECT_TRUE(vectorized.ok()) << vectorized.status().ToString();
  EXPECT_EQ(scalar->algorithm, vectorized->algorithm);
  EXPECT_TRUE(RelationEquals(*scalar->relation, *vectorized->relation));
  EXPECT_EQ(scalar->relation->ToString(kAllRows), vectorized->relation->ToString(kAllRows));
  return std::move(*scalar);
}

TEST(JoinHashKeyTest, NullKeysNeverJoinEitherPath) {
  // Null-null must not match either (SQL semantics), in both hash paths and
  // both nested-loop paths.
  RelationPtr left = IntKeyed("a", {1, std::nullopt, 3, std::nullopt});
  RelationPtr right = IntKeyed("b", {std::nullopt, 3, std::nullopt, 1});
  JoinResult hash = JoinBothPaths(left, right, "a = b");
  EXPECT_EQ(hash.algorithm, JoinAlgorithm::kHash);
  EXPECT_EQ(hash.relation->num_rows(), 2u);

  auto nested_scalar = NestedLoopJoin(left, right, "a = b", kScalar);
  auto nested_vec = NestedLoopJoin(left, right, "a = b", kVectorized);
  ASSERT_TRUE(nested_scalar.ok());
  ASSERT_TRUE(nested_vec.ok());
  EXPECT_EQ((*nested_scalar)->num_rows(), 2u);
  EXPECT_EQ((*nested_scalar)->ToString(kAllRows), (*nested_vec)->ToString(kAllRows));
  // The hash join and the nested loop agree row-for-row (both left-major).
  EXPECT_EQ(hash.relation->ToString(kAllRows), (*nested_scalar)->ToString(kAllRows));
}

TEST(JoinHashKeyTest, IntAndFloatKeysUnify) {
  // 2 joins 2.0 (Value::Equals semantics), on both paths.
  RelationPtr left = IntKeyed("a", {2, 5, 7});
  RelationPtr right = FloatKeyed("b", {2.0, 7.0, 2.0, 6.5});
  JoinResult result = JoinBothPaths(left, right, "a = b");
  EXPECT_EQ(result.algorithm, JoinAlgorithm::kHash);
  ASSERT_EQ(result.relation->num_rows(), 3u);
  // Left-major: left row 0 (key 2) matches right rows 0 and 2, then left
  // row 2 (key 7) matches right row 1.
  EXPECT_EQ(result.relation->at(0, 1).int_value(), 0);  // a_tag
  EXPECT_EQ(result.relation->at(0, 3).int_value(), 0);  // b_tag
  EXPECT_EQ(result.relation->at(1, 1).int_value(), 0);
  EXPECT_EQ(result.relation->at(1, 3).int_value(), 2);
  EXPECT_EQ(result.relation->at(2, 1).int_value(), 2);
  EXPECT_EQ(result.relation->at(2, 3).int_value(), 1);
}

TEST(JoinHashKeyTest, OutOfInt64RangeDoubleKeysAreWellDefined) {
  // The old HashKey evaluated `d == static_cast<int64_t>(d)` — undefined
  // behavior for 1e30. The typed hash must handle the full double range
  // (this test runs under the UBSan pass in scripts/check.sh).
  RelationPtr left = FloatKeyed("a", {1e30, -1e30, 1e-30, 4.0});
  RelationPtr right = FloatKeyed("b", {-1e30, 1e30, 4.0, 1e300});
  JoinResult result = JoinBothPaths(left, right, "a = b");
  EXPECT_EQ(result.algorithm, JoinAlgorithm::kHash);
  ASSERT_EQ(result.relation->num_rows(), 3u);
  EXPECT_EQ(result.relation->at(0, 1).int_value(), 0);  // 1e30 ↔ right row 1
  EXPECT_EQ(result.relation->at(0, 3).int_value(), 1);
  EXPECT_EQ(result.relation->at(1, 1).int_value(), 1);  // -1e30 ↔ right row 0
  EXPECT_EQ(result.relation->at(1, 3).int_value(), 0);
  EXPECT_EQ(result.relation->at(2, 1).int_value(), 3);  // 4.0 ↔ right row 2
  EXPECT_EQ(result.relation->at(2, 3).int_value(), 2);
}

TEST(JoinHashKeyTest, DistinctFloatKeysCloserThanSixDigitsDoNotJoin) {
  // std::to_string(double) keeps six fractional digits, so the old text key
  // mapped these three distinct keys to the same string.
  RelationPtr left = FloatKeyed("a", {0.1234561, 0.1234562});
  RelationPtr right = FloatKeyed("b", {0.1234562, 0.1234563});
  JoinResult result = JoinBothPaths(left, right, "a = b");
  ASSERT_EQ(result.relation->num_rows(), 1u);
  EXPECT_EQ(result.relation->at(0, 1).int_value(), 1);
  EXPECT_EQ(result.relation->at(0, 3).int_value(), 0);
}

TEST(JoinHashKeyTest, NegativeZeroJoinsPositiveZero) {
  // -0.0 == 0.0, so they must hash identically too.
  RelationPtr left = FloatKeyed("a", {-0.0});
  RelationPtr right = FloatKeyed("b", {0.0});
  JoinResult result = JoinBothPaths(left, right, "a = b");
  EXPECT_EQ(result.relation->num_rows(), 1u);
}

TEST(JoinHashKeyTest, CollisionChainsResolveByRealEquality) {
  // Enough keys that bucket chains mix distinct key values; the full-hash
  // guard plus the equality fallback must produce the exact multiset of
  // matches. Expected count: sum over k of count_left(k) * count_right(k).
  std::vector<std::optional<int64_t>> left_keys, right_keys;
  std::map<int64_t, size_t> left_count, right_count;
  for (size_t i = 0; i < 3000; ++i) {
    int64_t kl = static_cast<int64_t>((i * 7919) % 401);
    int64_t kr = static_cast<int64_t>((i * 104729) % 401);
    left_keys.push_back(kl);
    right_keys.push_back(kr);
    ++left_count[kl];
    ++right_count[kr];
  }
  size_t expected = 0;
  for (const auto& [k, n] : left_count) {
    auto it = right_count.find(k);
    if (it != right_count.end()) expected += n * it->second;
  }
  RelationPtr left = IntKeyed("a", left_keys);
  RelationPtr right = IntKeyed("b", right_keys);
  JoinResult result = JoinBothPaths(left, right, "a = b");
  EXPECT_EQ(result.algorithm, JoinAlgorithm::kHash);
  EXPECT_EQ(result.relation->num_rows(), expected);
}

RelationPtr StringKeyed(const char* key_name,
                        std::vector<std::optional<std::string>> keys) {
  RelationBuilder builder(std::make_shared<const Schema>(
      Schema::Make({Column{key_name, DataType::kString},
                    Column{std::string(key_name) + "_tag", DataType::kInt}})
          .value()));
  int64_t tag = 0;
  for (const auto& key : keys) {
    builder.AddRowUnchecked(Tuple{
        key.has_value() ? Value::String(*key) : Value::Null(), Value::Int(tag++)});
  }
  return builder.Build();
}

// ---- Dictionary-encoded string keys ----------------------------------------
// The vectorized hash join hashes string keys' dictionary codes instead of
// their bytes (db/operators.cc). A self-join shares one
// dictionary and compares codes directly; two independently built relations
// have different dictionaries, so build codes are remapped into probe code
// space by binary search. Either way the scalar string-hashing oracle defines
// the output bytes.

TEST(JoinDictKeyTest, SharedDictionarySelfJoinComparesCodesDirectly) {
  RelationPtr rel =
      StringKeyed("a", {"x", "y", std::nullopt, "x", "z", std::nullopt});
  JoinResult result = JoinBothPaths(rel, rel, "a = a_2");
  EXPECT_EQ(result.algorithm, JoinAlgorithm::kHash);
  // x matches x twice each way (4), y and z match themselves; nulls never.
  EXPECT_EQ(result.relation->num_rows(), 6u);
}

TEST(JoinDictKeyTest, DifferentDictionariesRemapBuildCodesToProbeSpace) {
  // Partially overlapping alphabets with the encoding edge cases: the empty
  // string, an embedded NUL byte, values private to each side, and nulls.
  const std::string nul_key("k\0key", 5);
  RelationPtr left = StringKeyed(
      "a", {"apple", "", std::nullopt, nul_key, "pear", "apple"});
  RelationPtr right = StringKeyed(
      "b", {"pear", "quince", "", std::nullopt, nul_key, "apple"});
  JoinResult result = JoinBothPaths(left, right, "a = b");
  EXPECT_EQ(result.algorithm, JoinAlgorithm::kHash);
  // apple×1 twice, ""×1, nul×1, pear×1; "quince" and the nulls drop.
  EXPECT_EQ(result.relation->num_rows(), 5u);
}

TEST(JoinDictKeyTest, RemapChainsResolveTheExactMatchMultiset) {
  // Enough rows that code-hash bucket chains mix distinct keys, with the two
  // sides drawing from offset alphabet windows so the remap table contains
  // both mapped and unmapped build codes.
  std::vector<std::optional<std::string>> left_keys, right_keys;
  std::map<std::string, size_t> left_count, right_count;
  for (size_t i = 0; i < 3000; ++i) {
    std::string kl = "cat" + std::to_string((i * 7919) % 60);        // cat0..59
    std::string kr = "cat" + std::to_string(30 + (i * 104729) % 60); // cat30..89
    left_keys.push_back(kl);
    right_keys.push_back(kr);
    ++left_count[kl];
    ++right_count[kr];
  }
  size_t expected = 0;
  for (const auto& [k, n] : left_count) {
    auto it = right_count.find(k);
    if (it != right_count.end()) expected += n * it->second;
  }
  RelationPtr left = StringKeyed("a", left_keys);
  RelationPtr right = StringKeyed("b", right_keys);
  JoinResult result = JoinBothPaths(left, right, "a = b");
  EXPECT_EQ(result.algorithm, JoinAlgorithm::kHash);
  EXPECT_EQ(result.relation->num_rows(), expected);
}

TEST(JoinOrderTest, LeftMajorOrderSurvivesCardinalityFlip) {
  // The planner builds on the smaller side. Growing the left input past the
  // right with non-matching rows flips the build side — the matching rows
  // must come out in exactly the same (left-major) order regardless.
  std::vector<std::optional<int64_t>> small_left = {1, 2, 3};
  RelationPtr right = IntKeyed("b", {3, 2, 1, 2, 9});

  RelationPtr left_small = IntKeyed("a", small_left);  // 3 < 5: build = left
  ASSERT_LT(left_small->num_rows(), right->num_rows());
  JoinResult before = JoinBothPaths(left_small, right, "a = b");

  std::vector<std::optional<int64_t>> big_left = small_left;
  for (int64_t k = 100; k < 104; ++k) big_left.push_back(k);  // no matches
  RelationPtr left_big = IntKeyed("a", big_left);  // 7 > 5: build = right
  ASSERT_GT(left_big->num_rows(), right->num_rows());
  JoinResult after = JoinBothPaths(left_big, right, "a = b");

  EXPECT_EQ(before.algorithm, JoinAlgorithm::kHash);
  EXPECT_EQ(after.algorithm, JoinAlgorithm::kHash);
  // Same matches, same order, independent of which side was built.
  EXPECT_EQ(before.relation->ToString(kAllRows), after.relation->ToString(kAllRows));

  // And that order is left-major: sorted by left row, ties by right row.
  ASSERT_EQ(before.relation->num_rows(), 4u);
  const std::vector<std::pair<int64_t, int64_t>> expected = {
      {0, 2}, {1, 1}, {1, 3}, {2, 0}};  // (a_tag, b_tag)
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(before.relation->at(r, 1).int_value(), expected[r].first) << r;
    EXPECT_EQ(before.relation->at(r, 3).int_value(), expected[r].second) << r;
  }
}

TEST(JoinOrderTest, NestedLoopMatchesHashOrderOnEquiJoin) {
  // The nested loop is trivially left-major; the hash join must agree with
  // it on an equi-join whichever side it builds on.
  RelationPtr left = IntKeyed("a", {5, 1, 5, 2});
  RelationPtr right = IntKeyed("b", {5, 2, 5, 1, 5, 7});
  JoinResult hash = JoinBothPaths(left, right, "a = b");
  auto nested = NestedLoopJoin(left, right, "a = b", kScalar);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(hash.relation->ToString(kAllRows), (*nested)->ToString(kAllRows));
}

TEST(JoinVectorizedTest, NonEquiPredicateBatchesMatchScalar) {
  RelationPtr left = IntKeyed("a", {1, 4, 9, std::nullopt});
  RelationPtr right = IntKeyed("b", {2, 3, 5, 8, std::nullopt});
  JoinResult result = JoinBothPaths(left, right, "a < b");
  EXPECT_EQ(result.algorithm, JoinAlgorithm::kNestedLoop);
  EXPECT_EQ(result.relation->num_rows(), 4u + 2u + 0u);  // 1<{2,3,5,8}, 4<{5,8}
}

TEST(JoinVectorizedTest, ColumnarJoinEmitsViewWithSharedValues) {
  RelationPtr left = IntKeyed("a", {1, 2});
  RelationPtr right = IntKeyed("b", {2, 1, 2});
  auto vectorized = Join(left, right, "a = b", kVectorized);
  ASSERT_TRUE(vectorized.ok());
  EXPECT_TRUE(vectorized->relation->is_view());
  auto scalar = Join(left, right, "a = b", kScalar);
  ASSERT_TRUE(scalar.ok());
  EXPECT_FALSE(scalar->relation->is_view());
  // The view is value-transparent: cell access, row materialization and the
  // columnar gather all agree with the materialized oracle.
  EXPECT_TRUE(RelationEquals(*vectorized->relation, *scalar->relation));
  for (size_t r = 0; r < scalar->relation->num_rows(); ++r) {
    ASSERT_EQ(vectorized->relation->row(r).size(), scalar->relation->row(r).size());
    for (size_t c = 0; c < scalar->relation->num_columns(); ++c) {
      EXPECT_TRUE(vectorized->relation->columnar().column(c).ValueAt(r).Equals(
          scalar->relation->at(r, c)))
          << r << "," << c;
    }
  }
}

// --- full-program byte identity -------------------------------------------

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

std::unique_ptr<Environment> BuildEnv(const testing::FigProgram& program) {
  auto env = std::make_unique<Environment>();
  EXPECT_TRUE(env->LoadDemoData(program.extra_stations, program.num_days).ok())
      << program.name;
  Status built = program.build(env.get());
  EXPECT_TRUE(built.ok()) << program.name << ": " << built.message();
  return env;
}

TEST(JoinByteIdentityTest, ColumnarAndRowPathsAgreeOnEveryFigProgram) {
  // Evaluate every figure program (fig03 joins; fig08 wormholes and fig10
  // stitch are the multi-table §6/§7 shapes) under the scalar row-store
  // policy and under the columnar/view policy: output fingerprints and the
  // whole stamp map must be byte-identical.
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    auto scalar_env = BuildEnv(program);
    ui::Session& scalar_session = scalar_env->session();
    scalar_session.engine().set_exec_policy(kScalar);
    std::vector<Target> targets = TargetsOf(scalar_session.graph());
    ASSERT_EQ(targets.size(), program.canvases.size());
    std::map<std::string, std::string> expected;
    for (const Target& t : targets) {
      auto value = scalar_session.engine().Evaluate(scalar_session.graph(),
                                                    t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
      expected[t.canvas] = testing::FingerprintBoxValue(value.value());
    }
    std::map<std::string, std::optional<uint64_t>> expected_stamps;
    for (const std::string& id : scalar_session.graph().BoxIds()) {
      expected_stamps[id] = scalar_session.engine().cache().StampOf(id);
    }

    auto vec_env = BuildEnv(program);
    ui::Session& vec_session = vec_env->session();
    vec_session.engine().set_exec_policy(kVectorized);
    for (const Target& t : TargetsOf(vec_session.graph())) {
      auto value = vec_session.engine().Evaluate(vec_session.graph(), t.from,
                                                 t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
      ASSERT_EQ(expected.count(t.canvas), 1u);
      EXPECT_EQ(testing::FingerprintBoxValue(value.value()), expected.at(t.canvas))
          << t.canvas;
    }
    for (const std::string& id : vec_session.graph().BoxIds()) {
      ASSERT_EQ(expected_stamps.count(id), 1u) << id;
      EXPECT_EQ(vec_session.engine().cache().StampOf(id), expected_stamps.at(id))
          << id;
    }
  }
}

}  // namespace
}  // namespace tioga2::db
