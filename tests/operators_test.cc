#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "db/operators.h"
#include "types/date.h"

namespace tioga2::db {
namespace {

using types::DataType;
using types::Value;

RelationPtr People() {
  return MakeRelation(
             {Column{"id", DataType::kInt}, Column{"name", DataType::kString},
              Column{"age", DataType::kInt}, Column{"score", DataType::kFloat}},
             {
                 {Value::Int(1), Value::String("ann"), Value::Int(30), Value::Float(1.5)},
                 {Value::Int(2), Value::String("bob"), Value::Int(25), Value::Float(2.5)},
                 {Value::Int(3), Value::String("cat"), Value::Int(35), Value::Float(0.5)},
                 {Value::Int(4), Value::String("dan"), Value::Null(), Value::Float(3.5)},
             })
      .value();
}

RelationPtr Orders() {
  return MakeRelation({Column{"person", DataType::kInt},
                       Column{"item", DataType::kString}},
                      {
                          {Value::Int(1), Value::String("hat")},
                          {Value::Int(1), Value::String("bag")},
                          {Value::Int(3), Value::String("pen")},
                          {Value::Int(9), Value::String("orphan")},
                      })
      .value();
}

TEST(ProjectTest, KeepsColumnsInOrder) {
  auto projected = Project(People(), {"name", "id"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ((*projected)->schema()->ToString(), "(name:string, id:int)");
  EXPECT_EQ((*projected)->num_rows(), 4u);
  EXPECT_EQ((*projected)->at(0, 0).string_value(), "ann");
  EXPECT_EQ((*projected)->at(0, 1).int_value(), 1);
}

TEST(ProjectTest, UnknownColumnFails) {
  EXPECT_TRUE(Project(People(), {"nope"}).status().IsNotFound());
}

TEST(ProjectTest, DuplicateColumnInListFails) {
  // Projecting the same column twice would create duplicate names.
  EXPECT_TRUE(Project(People(), {"id", "id"}).status().IsAlreadyExists());
}

TEST(RestrictTest, FiltersByPredicate) {
  auto result = Restrict(People(), "age >= 30");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->num_rows(), 2u);  // ann, cat; dan's null age rejected
}

TEST(RestrictTest, NullPredicateResultRejectsTuple) {
  auto result = Restrict(People(), "age > 0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 3u);  // dan's null age is not > 0
}

TEST(RestrictTest, StringAndCompoundPredicates) {
  auto result = Restrict(People(), "name = \"bob\" or score > 3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 2u);
}

TEST(RestrictTest, NonBoolPredicateIsTypeError) {
  EXPECT_TRUE(Restrict(People(), "age + 1").status().IsTypeError());
}

TEST(RestrictTest, MalformedPredicateIsParseError) {
  EXPECT_TRUE(Restrict(People(), "age >=").status().IsParseError());
}

TEST(SampleTest, ProbabilityZeroAndOne) {
  EXPECT_EQ(Sample(People(), 0.0, 7).value()->num_rows(), 0u);
  EXPECT_EQ(Sample(People(), 1.0, 7).value()->num_rows(), 4u);
}

TEST(SampleTest, DeterministicForSeed) {
  auto a = Sample(People(), 0.5, 99).value();
  auto b = Sample(People(), 0.5, 99).value();
  EXPECT_TRUE(RelationEquals(*a, *b));
}

TEST(SampleTest, RejectsBadProbability) {
  for (bool vectorized : {false, true}) {
    ExecPolicy policy;
    policy.vectorized = vectorized;
    for (double p : {-0.1, 1.1, std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_TRUE(Sample(People(), p, 1, policy).status().IsInvalidArgument())
          << "p=" << p << " vectorized=" << vectorized;
    }
  }
}

TEST(SampleTest, ProportionRoughlyMatches) {
  RelationBuilder builder(People()->schema());
  for (int i = 0; i < 4000; ++i) {
    builder.AddRowUnchecked(People()->row(static_cast<size_t>(i % 4)));
  }
  RelationPtr big = builder.Build();
  auto sampled = Sample(big, 0.25, 5).value();
  EXPECT_NEAR(static_cast<double>(sampled->num_rows()) / 4000.0, 0.25, 0.03);
}

TEST(JoinTest, HashJoinOnEquality) {
  auto result = Join(People(), Orders(), "id = person");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->algorithm, JoinAlgorithm::kHash);
  EXPECT_EQ(result->relation->num_rows(), 3u);  // ann x2, cat x1
  EXPECT_EQ(result->relation->schema()->ToString(),
            "(id:int, name:string, age:int, score:float, person:int, item:string)");
}

TEST(JoinTest, NestedLoopForNonEqui) {
  auto result = Join(People(), Orders(), "id < person");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->algorithm, JoinAlgorithm::kNestedLoop);
  // pairs with id < person: ids {1,2,3} vs persons {1,1,3,9}:
  // id=1: person 3,9 -> 2; id=2: 3,9 -> 2; id=3: 9 -> 1; id=4 (null age fine) person 9 -> 1
  EXPECT_EQ(result->relation->num_rows(), 6u);
}

TEST(JoinTest, AlgorithmsAgree) {
  auto hash = Join(People(), Orders(), "id = person").value();
  auto loop = NestedLoopJoin(People(), Orders(), "id = person").value();
  ASSERT_EQ(hash.relation->num_rows(), loop->num_rows());
  // The hash join may emit rows in a different order; compare as multisets
  // of rendered rows.
  auto render = [](const Relation& r) {
    std::vector<std::string> rows;
    for (size_t i = 0; i < r.num_rows(); ++i) {
      std::string row;
      for (const auto& v : r.row(i)) row += v.ToString() + "|";
      rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(render(*hash.relation), render(*loop));
}

TEST(JoinTest, NameCollisionsGetSuffix) {
  auto result = Join(People(), People(), "id = id_2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->relation->schema()->HasColumn("name_2"));
  EXPECT_EQ(result->relation->num_rows(), 4u);  // self equi-join on key
}

TEST(JoinTest, NullsNeverJoin) {
  auto left = MakeRelation({Column{"k", DataType::kInt}},
                           {{Value::Null()}, {Value::Int(1)}})
                  .value();
  auto right = MakeRelation({Column{"j", DataType::kInt}},
                            {{Value::Null()}, {Value::Int(1)}})
                   .value();
  auto result = Join(left, right, "k = j");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation->num_rows(), 1u);
}

TEST(SortTest, AscendingAndDescending) {
  auto asc = Sort(People(), "score").value();
  EXPECT_DOUBLE_EQ(asc->at(0, 3).float_value(), 0.5);
  EXPECT_DOUBLE_EQ(asc->at(3, 3).float_value(), 3.5);
  auto desc = Sort(People(), "score", /*ascending=*/false).value();
  EXPECT_DOUBLE_EQ(desc->at(0, 3).float_value(), 3.5);
}

TEST(SortTest, NullsSortFirst) {
  auto sorted = Sort(People(), "age").value();
  EXPECT_TRUE(sorted->at(0, 2).is_null());
}

TEST(SortTest, StableOnTies) {
  auto relation = MakeRelation({Column{"k", DataType::kInt},
                                Column{"tag", DataType::kString}},
                               {{Value::Int(1), Value::String("first")},
                                {Value::Int(1), Value::String("second")}})
                      .value();
  auto sorted = Sort(relation, "k").value();
  EXPECT_EQ(sorted->at(0, 1).string_value(), "first");
  EXPECT_EQ(sorted->at(1, 1).string_value(), "second");
}

TEST(LimitTest, TruncatesAndClamps) {
  EXPECT_EQ(Limit(People(), 2).value()->num_rows(), 2u);
  EXPECT_EQ(Limit(People(), 0).value()->num_rows(), 0u);
  EXPECT_EQ(Limit(People(), 100).value()->num_rows(), 4u);
}

// ---- Selection-view Sample and Limit ----------------------------------------
// Under the vectorized policy Sample and Limit emit selection views over
// their input; the scalar policy keeps the row-store oracle. Both must hold
// the same values, and the view's columnar image must equal the one the
// oracle materializes from its rows.

ExecPolicy ScalarPolicy() {
  ExecPolicy policy;
  policy.vectorized = false;
  return policy;
}

ExecPolicy VectorizedPolicy() {
  ExecPolicy policy;
  policy.vectorized = true;
  return policy;
}

/// 600 rows over every stored type, nulls on coprime periods, -0.0 floats
/// (NaN would make RelationEquals false on any path), and a low-cardinality
/// string column.
RelationPtr Mixed() {
  const std::string cats[] = {"", "west", "east", std::string("a\0b", 3),
                              "\xc3\xa9" "clair"};
  std::vector<Tuple> rows;
  for (size_t r = 0; r < 600; ++r) {
    rows.push_back(
        {r % 11 == 10 ? Value::Null() : Value::String(cats[r % 5]),
         r % 7 == 6 ? Value::Null() : Value::Int(static_cast<int64_t>(r % 9) - 3),
         r % 13 == 12 ? Value::Null()
         : r % 17 == 5 ? Value::Float(-0.0)
                       : Value::Float(static_cast<double>(r) * 0.5 - 100.0),
         r % 5 == 4 ? Value::Null() : Value::Bool(r % 3 == 0),
         r % 19 == 18 ? Value::Null()
                      : Value::DateVal(types::Date(static_cast<int32_t>(r % 40)))});
  }
  return MakeRelation({Column{"s", DataType::kString}, Column{"i", DataType::kInt},
                       Column{"f", DataType::kFloat}, Column{"b", DataType::kBool},
                       Column{"d", DataType::kDate}},
                      rows)
      .value();
}

/// Typed vectors and null bitmaps equal, floats compared bit for bit (so
/// -0.0 must stay -0.0), strings by their decoded text. Dictionary codes are
/// not compared: a view shares its base's dictionary while the oracle encodes
/// only its own rows.
void ExpectSameColumn(const ColumnVector& view, const ColumnVector& oracle) {
  ASSERT_EQ(view.type, oracle.type);
  ASSERT_EQ(view.num_rows, oracle.num_rows);
  EXPECT_EQ(view.null_bits, oracle.null_bits);
  EXPECT_EQ(view.bools, oracle.bools);
  EXPECT_EQ(view.ints, oracle.ints);
  if (view.type == DataType::kString) {
    for (size_t r = 0; r < view.num_rows; ++r) {
      if (!view.IsNull(r)) {
        EXPECT_EQ(view.string_at(r), oracle.string_at(r)) << "row " << r;
      }
    }
  }
  EXPECT_EQ(view.dates, oracle.dates);
  ASSERT_EQ(view.floats.size(), oracle.floats.size());
  if (!view.floats.empty()) {
    EXPECT_EQ(std::memcmp(view.floats.data(), oracle.floats.data(),
                          view.floats.size() * sizeof(double)),
              0);
  }
}

/// `view` is a vectorized result over `input`, `oracle` the scalar one.
void ExpectViewMatchesOracle(const RelationPtr& input, const RelationPtr& view,
                             const RelationPtr& oracle) {
  EXPECT_TRUE(view->is_view());
  EXPECT_FALSE(oracle->is_view());
  ASSERT_TRUE(RelationEquals(*view, *oracle));
  for (size_t c = 0; c < view->num_columns(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const ColumnVector& col = view->columnar().column(c);
    ExpectSameColumn(col, oracle->columnar().column(c));
    if (col.type == DataType::kString) {
      EXPECT_EQ(col.dict_values, input->columnar().column(c).dict_values);
    }
  }
}

/// Sample's inputs: a materialized relation and the three view shapes a
/// vectorized chain hands it.
std::vector<std::pair<std::string, RelationPtr>> SampleInputs() {
  RelationPtr base = Mixed();
  RelationPtr keys =
      MakeRelation({Column{"k", DataType::kInt}, Column{"label", DataType::kString}},
                   {{Value::Int(-3), Value::String("low")},
                    {Value::Int(0), Value::String("zero")},
                    {Value::Int(0), Value::String("nil")},
                    {Value::Int(4), Value::Null()}})
          .value();
  RelationPtr restricted = Restrict(base, "i > -2", VectorizedPolicy()).value();
  RelationPtr sorted = Sort(base, "f", false, VectorizedPolicy()).value();
  RelationPtr joined = Join(base, keys, "i = k", VectorizedPolicy()).value().relation;
  EXPECT_TRUE(restricted->is_view());
  EXPECT_TRUE(sorted->is_view());
  EXPECT_TRUE(joined->is_view());
  return {{"materialized", base},
          {"restrict view", restricted},
          {"sort view", sorted},
          {"join view", joined}};
}

TEST(SampleViewTest, VectorizedSampleIsAViewEqualToTheScalarOracle) {
  for (const auto& [name, input] : SampleInputs()) {
    for (double p : {0.0, 0.37, 1.0}) {
      for (uint64_t seed : {7u, 1234u}) {
        SCOPED_TRACE(name + " p=" + std::to_string(p) + " seed=" +
                     std::to_string(seed));
        RelationPtr view = Sample(input, p, seed, VectorizedPolicy()).value();
        RelationPtr oracle = Sample(input, p, seed, ScalarPolicy()).value();
        ExpectViewMatchesOracle(input, view, oracle);
        if (p == 0.0) {
          EXPECT_EQ(view->num_rows(), 0u);
        }
        if (p == 1.0) {
          EXPECT_EQ(view->num_rows(), input->num_rows());
        }
      }
    }
  }
}

TEST(LimitViewTest, VectorizedLimitIsAViewEqualToTheScalarOracle) {
  RelationPtr base = Mixed();
  RelationPtr restricted = Restrict(base, "b", VectorizedPolicy()).value();
  ASSERT_TRUE(restricted->is_view());
  for (const RelationPtr& input : {base, restricted}) {
    for (size_t n : {size_t{0}, size_t{10}, input->num_rows() + 5}) {
      SCOPED_TRACE(std::string(input->is_view() ? "view" : "materialized") +
                   " n=" + std::to_string(n));
      RelationPtr view = Limit(input, n, VectorizedPolicy()).value();
      RelationPtr oracle = Limit(input, n, ScalarPolicy()).value();
      ExpectViewMatchesOracle(input, view, oracle);
      EXPECT_EQ(view->num_rows(), std::min(n, input->num_rows()));
    }
  }
}

class SampleSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SampleSweepTest, RetainedFractionTracksProbability) {
  RelationBuilder builder(People()->schema());
  constexpr int kRows = 8000;
  for (int i = 0; i < kRows; ++i) {
    builder.AddRowUnchecked(People()->row(static_cast<size_t>(i % 4)));
  }
  auto sampled = Sample(builder.Build(), GetParam(), 1234).value();
  EXPECT_NEAR(static_cast<double>(sampled->num_rows()) / kRows, GetParam(), 0.025);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, SampleSweepTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9));

}  // namespace
}  // namespace tioga2::db
