// Tests for GroupBy / Distinct / UnionAll and their boxes.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "boxes/box_registry.h"
#include "boxes/query_boxes.h"
#include "dataflow/engine.h"
#include "db/aggregates.h"
#include "db/catalog.h"
#include "db/operators.h"
#include "expr/batch.h"
#include "types/date.h"

namespace tioga2::db {
namespace {

using types::DataType;
using types::Value;

RelationPtr Sales() {
  return MakeRelation(
             {Column{"region", DataType::kString}, Column{"product", DataType::kString},
              Column{"units", DataType::kInt}, Column{"price", DataType::kFloat}},
             {
                 {Value::String("west"), Value::String("hat"), Value::Int(3),
                  Value::Float(10.0)},
                 {Value::String("west"), Value::String("bag"), Value::Int(1),
                  Value::Float(25.0)},
                 {Value::String("east"), Value::String("hat"), Value::Int(5),
                  Value::Float(9.0)},
                 {Value::String("east"), Value::String("hat"), Value::Null(),
                  Value::Float(11.0)},
             })
      .value();
}

TEST(GroupByTest, CountSumAvgMinMax) {
  auto grouped = GroupBy(Sales(), {"region"},
                         {AggSpec{AggFn::kCount, "", "n"},
                          AggSpec{AggFn::kSum, "units", "total_units"},
                          AggSpec{AggFn::kAvg, "price", "avg_price"},
                          AggSpec{AggFn::kMin, "price", "min_price"},
                          AggSpec{AggFn::kMax, "product", "max_product"}});
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  const Relation& r = **grouped;
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.schema()->ToString(),
            "(region:string, n:int, total_units:float, avg_price:float, "
            "min_price:float, max_product:string)");
  // Groups appear in first-seen order: west then east.
  EXPECT_EQ(r.at(0, 0).string_value(), "west");
  EXPECT_EQ(r.at(0, 1).int_value(), 2);
  EXPECT_DOUBLE_EQ(r.at(0, 2).float_value(), 4.0);
  EXPECT_DOUBLE_EQ(r.at(0, 3).float_value(), 17.5);
  EXPECT_DOUBLE_EQ(r.at(0, 4).float_value(), 10.0);
  EXPECT_EQ(r.at(0, 5).string_value(), "hat");
  // East: null units skipped by sum; count counts rows.
  EXPECT_EQ(r.at(1, 1).int_value(), 2);
  EXPECT_DOUBLE_EQ(r.at(1, 2).float_value(), 5.0);
}

TEST(GroupByTest, MultipleKeys) {
  auto grouped = GroupBy(Sales(), {"region", "product"},
                         {AggSpec{AggFn::kCount, "", "n"}});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ((*grouped)->num_rows(), 3u);  // west-hat, west-bag, east-hat
}

TEST(GroupByTest, EmptyKeysIsGlobalAggregate) {
  auto grouped =
      GroupBy(Sales(), {}, {AggSpec{AggFn::kSum, "units", "total"}});
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ((*grouped)->num_rows(), 1u);
  EXPECT_DOUBLE_EQ((*grouped)->at(0, 0).float_value(), 9.0);
}

TEST(GroupByTest, AllNullColumnYieldsNullAggregate) {
  auto relation = MakeRelation({Column{"k", DataType::kString},
                                Column{"v", DataType::kInt}},
                               {{Value::String("a"), Value::Null()}})
                      .value();
  auto grouped = GroupBy(relation, {"k"}, {AggSpec{AggFn::kSum, "v", "s"},
                                           AggSpec{AggFn::kMin, "v", "m"}});
  ASSERT_TRUE(grouped.ok());
  EXPECT_TRUE((*grouped)->at(0, 1).is_null());
  EXPECT_TRUE((*grouped)->at(0, 2).is_null());
}

TEST(GroupByTest, Validation) {
  EXPECT_TRUE(GroupBy(Sales(), {"nope"}, {AggSpec{AggFn::kCount, "", "n"}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(GroupBy(Sales(), {"region"}, {AggSpec{AggFn::kSum, "product", "s"}})
                  .status()
                  .IsTypeError());
  EXPECT_TRUE(GroupBy(Sales(), {"region"}, {AggSpec{AggFn::kCount, "", ""}})
                  .status()
                  .IsInvalidArgument());
}

TEST(GroupByTest, NumericKeysUnify) {
  auto relation = MakeRelation({Column{"k", DataType::kFloat}},
                               {{Value::Float(2.0)}, {Value::Float(2.0)},
                                {Value::Float(3.0)}})
                      .value();
  auto grouped = GroupBy(relation, {"k"}, {AggSpec{AggFn::kCount, "", "n"}});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ((*grouped)->num_rows(), 2u);
}

// ---- Columnar group-by ------------------------------------------------------
// With policy.vectorized set, int/bool/date and dictionary-encoded string
// keys group on typed cells and dictionary codes instead of TupleKey strings
// (db/aggregates.cc). The scalar row loop is the oracle: both paths must
// produce the same relation down to group order (first appearance) and
// aggregate bytes.

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

constexpr size_t kEveryRow = 1u << 20;

/// Cell-by-cell Describe identity rather than RelationEquals: NaN aggregate
/// results never compare Equals-equal to themselves, but both paths must
/// produce the same runtime type, text, and nullness in every cell.
void ExpectSameCells(const Relation& scalar, const Relation& vectorized) {
  EXPECT_EQ(scalar.schema()->ToString(), vectorized.schema()->ToString());
  ASSERT_EQ(scalar.num_rows(), vectorized.num_rows());
  for (size_t r = 0; r < scalar.num_rows(); ++r) {
    for (size_t c = 0; c < scalar.num_columns(); ++c) {
      const Value& a = scalar.at(r, c);
      const Value& b = vectorized.at(r, c);
      ASSERT_EQ(a.is_null(), b.is_null()) << "row " << r << " col " << c;
      if (a.is_null()) continue;
      EXPECT_EQ(a.type(), b.type()) << "row " << r << " col " << c;
      EXPECT_EQ(a.ToString(), b.ToString()) << "row " << r << " col " << c;
    }
  }
}

void ExpectGroupByPathsAgree(const RelationPtr& input,
                             const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& aggs) {
  auto scalar = GroupBy(input, keys, aggs, ScalarPolicy());
  auto vectorized = GroupBy(input, keys, aggs, VectorizedPolicy());
  ASSERT_EQ(scalar.ok(), vectorized.ok()) << scalar.status().ToString() << " / "
                                          << vectorized.status().ToString();
  if (!scalar.ok()) return;
  ExpectSameCells(**scalar, **vectorized);
}

TEST(GroupByColumnarTest, DictStringAndTypedKeysMatchScalarOracle) {
  // Category strings cover the encoding edges (empty string, UTF-8, embedded
  // NUL); int/bool/date keys and float aggregates carry nulls and NaN.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::string cats[] = {"", "west", "east", std::string("a\0b", 3),
                              "\xc3\xa9" "clair"};
  std::vector<Tuple> rows;
  for (size_t r = 0; r < 300; ++r) {
    rows.push_back(
        {r % 11 == 10 ? Value::Null() : Value::String(cats[r % 5]),
         r % 7 == 6 ? Value::Null() : Value::Int(static_cast<int64_t>(r % 4)),
         r % 13 == 12 ? Value::Null() : Value::Bool(r % 2 == 0),
         r % 17 == 16 ? Value::Null()
                      : Value::DateVal(types::Date(static_cast<int32_t>(r % 3))),
         r % 5 == 4    ? Value::Null()
         : r % 19 == 7 ? Value::Float(kNaN)
                       : Value::Float(static_cast<double>(r) * 0.25 - 30.0)});
  }
  RelationPtr rel =
      MakeRelation({Column{"s", DataType::kString}, Column{"i", DataType::kInt},
                    Column{"b", DataType::kBool}, Column{"d", DataType::kDate},
                    Column{"v", DataType::kFloat}},
                   rows)
          .value();
  const std::vector<AggSpec> aggs = {
      AggSpec{AggFn::kCount, "", "n"},   AggSpec{AggFn::kSum, "v", "sum_v"},
      AggSpec{AggFn::kAvg, "v", "avg_v"}, AggSpec{AggFn::kMin, "v", "min_v"},
      AggSpec{AggFn::kMax, "s", "max_s"}};
  for (const std::vector<std::string>& keys :
       std::vector<std::vector<std::string>>{
           {"s"}, {"s", "i"}, {"i", "b", "d"}, {"s", "d"}, {"b"}}) {
    SCOPED_TRACE(keys.front());
    ExpectGroupByPathsAgree(rel, keys, aggs);
  }
}

TEST(GroupByColumnarTest, TagByteValuesFallBackAndStillAgree) {
  // TupleKey cells are "\x01v" + QuoteString(value); interior quotes are
  // escaped, so the rows below CANNOT collide across the column boundary —
  // three distinct groups on the scalar path. Values containing the '\x01'
  // tag byte nonetheless push the columnar path onto the conservative
  // fallback (db/aggregates.cc eligibility), which must reproduce the oracle
  // exactly.
  RelationPtr rel =
      MakeRelation({Column{"s", DataType::kString}, Column{"t", DataType::kString},
                    Column{"v", DataType::kInt}},
                   {{Value::String("a\x01vb"), Value::String("c"), Value::Int(1)},
                    {Value::String("a"), Value::String("b\x01vc"), Value::Int(10)},
                    {Value::String("a"), Value::String("c"), Value::Int(100)}})
          .value();
  auto scalar = GroupBy(rel, {"s", "t"}, {AggSpec{AggFn::kSum, "v", "total"}},
                        ScalarPolicy());
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ((*scalar)->num_rows(), 3u);
  ExpectGroupByPathsAgree(rel, {"s", "t"}, {AggSpec{AggFn::kSum, "v", "total"}});
}

TEST(GroupByColumnarTest, FloatKeysStayOnTheScalarPath) {
  // Float keys are ineligible for the columnar path (FormatDouble("-0") !=
  // "0" although -0.0 == 0.0, and all NaNs format as "nan" while comparing
  // unequal) — both paths must still agree because the vectorized policy
  // simply declines these keys.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  RelationPtr rel =
      MakeRelation({Column{"k", DataType::kFloat}, Column{"v", DataType::kInt}},
                   {{Value::Float(0.0), Value::Int(1)},
                    {Value::Float(-0.0), Value::Int(2)},
                    {Value::Float(kNaN), Value::Int(4)},
                    {Value::Float(kNaN), Value::Int(8)},
                    {Value::Null(), Value::Int(16)}})
          .value();
  ExpectGroupByPathsAgree(rel, {"k"}, {AggSpec{AggFn::kSum, "v", "total"},
                                       AggSpec{AggFn::kCount, "", "n"}});
}

// ---- Group-by through a selection view's row map ----------------------------
// A vectorized Sample over a Restrict or Sort view is itself a selection
// view; the columnar group-by reads the base's columns through the composed
// row map. Each chain runs twice — all views with the columnar group-by, and
// all row stores with the TupleKey loop — and the outputs must agree cell
// for cell.

/// 200k rows: a near-distinct int key (nulls every 97th row, and a run of
/// ints above 2^53 that round onto one double), low-cardinality bool, date
/// and string keys with nulls, and float/int/string aggregate inputs with
/// nulls and NaN. With `null_free`, the int key and the float/int aggregate
/// inputs hold no nulls, so the columnar group-by takes its single-int-key
/// pass 1 and its typed aggregate loops: then v cycles ±0 and NaN (or ±inf)
/// within each date of two date classes, and w holds distinct ints that
/// share one double image there, so min/max ties decide which row wins.
RelationPtr WideKeys(bool null_free) {
  constexpr int64_t k2To53 = int64_t{1} << 53;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kTies[2][5] = {{0.0, -0.0, kNaN, -0.0, 0.0},
                              {kInf, -0.0, -kInf, 0.0, 1.5}};
  const std::string cats[] = {"north", "south", "", "\xc3\xa9t\xc3\xa9", "west"};
  std::vector<Tuple> rows;
  rows.reserve(200000);
  for (size_t r = 0; r < 200000; ++r) {
    Value key = !null_free && r % 97 == 96 ? Value::Null()
                                           : Value::Int(static_cast<int64_t>(r));
    // k2To53 and k2To53 + 1 are distinct ints with one double image.
    if (r % 1000 == 500 || r % 1000 == 501) {
      key = Value::Int(k2To53 + static_cast<int64_t>(r % 2));
    }
    const size_t day = r % 29;
    Value v = r % 7 == 6    ? Value::Null()
              : r % 23 == 4 ? Value::Float(kNaN)
                            : Value::Float(static_cast<double>(r % 1013) * 0.125 - 40.0);
    Value w = r % 5 == 4 ? Value::Null() : Value::Int(static_cast<int64_t>(r % 31) - 15);
    if (null_free) {
      v = day % 3 == 2 ? Value::Float(static_cast<double>(r % 1013) * 0.125 - 40.0)
                       : Value::Float(kTies[day % 3][(r / 29) % 5]);
      w = day % 3 == 0 ? Value::Int(k2To53 + static_cast<int64_t>((r / 29) % 2))
                       : Value::Int(static_cast<int64_t>(r % 31) - 15);
    }
    rows.push_back(
        {key, r % 13 == 12 ? Value::Null() : Value::Bool(r % 3 == 0),
         r % 17 == 16 ? Value::Null()
                      : Value::DateVal(types::Date(static_cast<int32_t>(day))),
         r % 11 == 10 ? Value::Null() : Value::String(cats[r % 5]), v, w});
  }
  return MakeRelation({Column{"k", DataType::kInt}, Column{"b", DataType::kBool},
                       Column{"d", DataType::kDate}, Column{"s", DataType::kString},
                       Column{"v", DataType::kFloat}, Column{"w", DataType::kInt}},
                      rows)
      .value();
}

TEST(GroupByRowMapTest, SampledChainsMatchTheScalarChain) {
  const std::vector<AggSpec> aggs = {
      AggSpec{AggFn::kCount, "", "n"},    AggSpec{AggFn::kSum, "v", "sum_v"},
      AggSpec{AggFn::kAvg, "w", "avg_w"}, AggSpec{AggFn::kMin, "v", "min_v"},
      AggSpec{AggFn::kMax, "v", "max_v"}, AggSpec{AggFn::kMin, "w", "min_w"},
      AggSpec{AggFn::kMax, "w", "max_w"}, AggSpec{AggFn::kMax, "s", "max_s"},
      AggSpec{AggFn::kMin, "d", "min_d"}};
  for (bool null_free : {false, true}) {
    const RelationPtr base = WideKeys(null_free);
    using Chain = std::function<RelationPtr(const ExecPolicy&)>;
    const std::vector<std::pair<std::string, Chain>> chains = {
        {"restrict>sample",
         [&](const ExecPolicy& policy) {
           RelationPtr kept = Restrict(base, "w > -12 or b", policy).value();
           return Sample(kept, 0.8, 7, policy).value();
         }},
        {"sort>sample", [&](const ExecPolicy& policy) {
           RelationPtr sorted = Sort(base, "w", false, policy).value();
           return Sample(sorted, 0.6, 11, policy).value();
         }}};
    for (const auto& [name, chain] : chains) {
      const RelationPtr view = chain(VectorizedPolicy());
      const RelationPtr rows = chain(ScalarPolicy());
      ASSERT_TRUE(view->is_view());
      ASSERT_FALSE(rows->is_view());
      for (const std::vector<std::string>& keys : std::vector<std::vector<std::string>>{
               {"k"}, {"s"}, {"b", "d"}, {"s", "b", "d"}}) {
        SCOPED_TRACE(name + " keys " + keys.front() +
                     (null_free ? " null-free" : " nullable"));
        const uint64_t scalar_rows0 =
            expr::BatchMetrics::Global().group_by_scalar_rows.load();
        auto vectorized = GroupBy(view, keys, aggs, VectorizedPolicy());
        ASSERT_TRUE(vectorized.ok()) << vectorized.status().ToString();
        // Every key set here is columnar-eligible: the TupleKey loop never ran.
        EXPECT_EQ(expr::BatchMetrics::Global().group_by_scalar_rows.load(),
                  scalar_rows0);
        auto scalar = GroupBy(rows, keys, aggs, ScalarPolicy());
        ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
        ExpectSameCells(**scalar, **vectorized);
        if (keys.front() == "k") {
          // The table grew well past its 16 initial slots.
          EXPECT_GT((*vectorized)->num_rows(), 100000u);
        }
      }
    }
  }
}

TEST(GroupByRowMapTest, IntsThatRoundToOneDoubleShareAGroup) {
  // TupleKey formats an int's double image, so 2^53 and 2^53 + 1 group
  // together; the flat table must hash and compare the same image.
  constexpr int64_t k2To53 = int64_t{1} << 53;
  RelationPtr rel =
      MakeRelation({Column{"k", DataType::kInt}},
                   {{Value::Int(k2To53)}, {Value::Int(k2To53 + 1)}, {Value::Int(3)},
                    {Value::Int(k2To53 + 1)}, {Value::Int(k2To53 + 2)}})
          .value();
  for (const ExecPolicy& policy : {ScalarPolicy(), VectorizedPolicy()}) {
    RelationPtr input = Sample(rel, 1.0, 1, policy).value();
    auto grouped = GroupBy(input, {"k"}, {AggSpec{AggFn::kCount, "", "n"}}, policy);
    ASSERT_TRUE(grouped.ok());
    ASSERT_EQ((*grouped)->num_rows(), 3u);
    EXPECT_EQ((*grouped)->at(0, 0).int_value(), k2To53);
    EXPECT_EQ((*grouped)->at(0, 1).int_value(), 3);
    EXPECT_EQ((*grouped)->at(1, 0).int_value(), 3);
    EXPECT_EQ((*grouped)->at(2, 0).int_value(), k2To53 + 2);
  }
}

// ---- Group ids by direct index ------------------------------------------------
// One non-null key of a small domain (dictionary codes, or an int or date
// range spanning at most max(2 × rows, 4096) values) gives each row its group
// id by indexing a flat array; every other key keeps the hash table. Both
// must match the TupleKey loop cell for cell, on the relation itself and
// through a Sample view's row map.

/// `keys` as column k (int or date) of a relation with an aggregate input v.
RelationPtr KeyedRows(const std::vector<Value>& keys, DataType key_type) {
  std::vector<Tuple> rows;
  for (size_t r = 0; r < keys.size(); ++r) {
    rows.push_back({keys[r], Value::Float(static_cast<double>(r % 13) * 0.5 - 2.0)});
  }
  return MakeRelation({Column{"k", key_type}, Column{"v", DataType::kFloat}}, rows)
      .value();
}

void ExpectKeyedGroupByAgrees(const RelationPtr& rel) {
  const std::vector<AggSpec> aggs = {
      AggSpec{AggFn::kCount, "", "n"}, AggSpec{AggFn::kSum, "v", "sum_v"},
      AggSpec{AggFn::kMax, "v", "max_v"}, AggSpec{AggFn::kMin, "k", "min_k"}};
  ExpectGroupByPathsAgree(rel, {"k"}, aggs);
  auto scalar = GroupBy(Sample(rel, 0.7, 3, ScalarPolicy()).value(), {"k"}, aggs,
                        ScalarPolicy());
  auto vectorized = GroupBy(Sample(rel, 0.7, 3, VectorizedPolicy()).value(), {"k"},
                            aggs, VectorizedPolicy());
  ASSERT_TRUE(scalar.ok() && vectorized.ok());
  ExpectSameCells(**scalar, **vectorized);
}

std::vector<Value> Ints(const std::vector<int64_t>& values) {
  std::vector<Value> out;
  for (int64_t v : values) out.push_back(Value::Int(v));
  return out;
}

TEST(GroupByDirectIndexTest, IntKeysAtTheExactnessAndRangeEdges) {
  constexpr int64_t k2To53 = int64_t{1} << 53;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // A two-value range above 2^53 whose values share one double image: the
  // TupleKey loop makes one group, so the range must not be indexed.
  RelationPtr shared = KeyedRows(Ints({k2To53, k2To53 + 1, k2To53 + 1, k2To53}),
                                 DataType::kInt);
  auto grouped = GroupBy(shared, {"k"}, {AggSpec{AggFn::kCount, "", "n"}},
                         VectorizedPolicy());
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ((*grouped)->num_rows(), 1u);
  ExpectKeyedGroupByAgrees(shared);
  for (const std::vector<int64_t>& keys : std::vector<std::vector<int64_t>>{
           {-k2To53, -k2To53 - 1, -k2To53, -k2To53 - 1},  // below -2^53
           {k2To53, k2To53 - 1, k2To53 - 2, k2To53},      // the top of the exact range
           {-k2To53, -k2To53 + 1, -k2To53},               // the bottom of it
           {kMin, kMax, kMin, kMax, 0},                   // a range past INT64
           {kMax, kMax - 1, kMax}, {kMin + 1, kMin, kMin},
           {-5, -1, -3, -5, -2, -1, -4}}) {               // negative ints
    SCOPED_TRACE(keys.front());
    ExpectKeyedGroupByAgrees(KeyedRows(Ints(keys), DataType::kInt));
  }
}

TEST(GroupByDirectIndexTest, RangesOneBelowAndOneAboveTheRule) {
  // 3,000 rows may index a range of 6,000 values. Keys step by 2 from `lo`,
  // and the last row sets the range to 6,000 or 6,001 values.
  for (int64_t lo : {int64_t{0}, int64_t{-7000}, int64_t{1} << 40}) {
    for (int64_t values : {6000, 6001}) {
      SCOPED_TRACE(std::to_string(lo) + " + " + std::to_string(values));
      std::vector<int64_t> keys;
      for (int64_t r = 0; r < 2999; ++r) keys.push_back(lo + 2 * r);
      keys.push_back(lo + values - 1);
      ExpectKeyedGroupByAgrees(KeyedRows(Ints(keys), DataType::kInt));
    }
  }
  // Under 2,048 rows the floor of 4,096 values applies.
  for (int64_t values : {4096, 4097}) {
    ExpectKeyedGroupByAgrees(KeyedRows(Ints({9, 9 + values - 1, 12, 9}), DataType::kInt));
  }
}

TEST(GroupByDirectIndexTest, DateKeysInStationMajorAndShuffledOrders) {
  // 40 stations × 90 days, row-major by station (each date recurs once per
  // station) and then shuffled; both orders, keyed on the date and on the
  // station, match the TupleKey loop. Far dates take the hash table.
  std::vector<Value> dates;
  std::vector<Value> stations;
  for (int32_t s = 0; s < 40; ++s) {
    for (int32_t d = 0; d < 90; ++d) {
      dates.push_back(Value::DateVal(types::Date(5000 + d)));
      stations.push_back(Value::Int(1000 + 7 * s));
    }
  }
  ExpectKeyedGroupByAgrees(KeyedRows(dates, DataType::kDate));
  ExpectKeyedGroupByAgrees(KeyedRows(stations, DataType::kInt));
  uint64_t state = 12345;
  for (size_t r = dates.size() - 1; r > 0; --r) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const size_t j = static_cast<size_t>(state >> 33) % (r + 1);
    std::swap(dates[r], dates[j]);
    std::swap(stations[r], stations[j]);
  }
  ExpectKeyedGroupByAgrees(KeyedRows(dates, DataType::kDate));
  ExpectKeyedGroupByAgrees(KeyedRows(stations, DataType::kInt));
  dates.push_back(Value::DateVal(types::Date(-2000000)));
  ExpectKeyedGroupByAgrees(KeyedRows(dates, DataType::kDate));
}

TEST(GroupByDirectIndexTest, DictionaryKeyWithUnusedCodes) {
  // The view keeps rows of two of the base's five values, so its key indexes
  // a five-slot array of which three slots stay empty.
  const std::string cats[] = {"alpha", "beta", "gamma", "delta", "\xc3\xa9" "clair"};
  std::vector<Tuple> rows;
  for (size_t r = 0; r < 500; ++r) {
    rows.push_back({Value::String(cats[(r * 7) % 5]), Value::Int(static_cast<int64_t>(r)),
                    Value::Float(static_cast<double>(r % 11) - 5.0)});
  }
  RelationPtr base =
      MakeRelation({Column{"s", DataType::kString}, Column{"i", DataType::kInt},
                    Column{"v", DataType::kFloat}},
                   rows)
          .value();
  const std::vector<AggSpec> aggs = {AggSpec{AggFn::kCount, "", "n"},
                                     AggSpec{AggFn::kAvg, "v", "avg_v"},
                                     AggSpec{AggFn::kMax, "i", "max_i"}};
  ExpectGroupByPathsAgree(base, {"s"}, aggs);
  for (const char* predicate : {"s = \"gamma\" or s = \"beta\"", "i % 3 = 1"}) {
    SCOPED_TRACE(predicate);
    RelationPtr view = Restrict(base, predicate, VectorizedPolicy()).value();
    RelationPtr rows_only = Restrict(base, predicate, ScalarPolicy()).value();
    auto vectorized = GroupBy(view, {"s"}, aggs, VectorizedPolicy());
    auto scalar = GroupBy(rows_only, {"s"}, aggs, ScalarPolicy());
    ASSERT_TRUE(vectorized.ok() && scalar.ok());
    ExpectSameCells(**scalar, **vectorized);
  }
}

TEST(GroupByBoxPolicyTest, ScalarEngineRunsTheTupleKeyLoop) {
  Catalog catalog;
  RelationPtr keys = MakeRelation({Column{"k", DataType::kInt}},
                                  {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(1)}})
                         .value();
  ASSERT_TRUE(catalog.RegisterTable("Keys", keys).ok());
  dataflow::Graph graph;
  std::string table =
      graph.AddBox(boxes::MakeBox("Table", {{"table", "Keys"}}).value()).value();
  std::string group =
      graph
          .AddBox(boxes::MakeBox("GroupBy", {{"keys", "k"}, {"aggs", "count::n"}})
                      .value())
          .value();
  ASSERT_TRUE(graph.Connect(table, 0, group, 0).ok());
  std::atomic<uint64_t>& counter = expr::BatchMetrics::Global().group_by_scalar_rows;

  ExecPolicy scalar = ScalarPolicy();
  scalar.simd = SimdLevel::kScalar;
  dataflow::Engine scalar_engine(&catalog);
  scalar_engine.set_exec_policy(scalar);
  const uint64_t before_scalar = counter.load();
  ASSERT_TRUE(scalar_engine.Evaluate(graph, group, 0).ok());
  EXPECT_EQ(counter.load() - before_scalar, keys->num_rows());

  dataflow::Engine vectorized_engine(&catalog);
  vectorized_engine.set_exec_policy(VectorizedPolicy());
  const uint64_t before_vectorized = counter.load();
  ASSERT_TRUE(vectorized_engine.Evaluate(graph, group, 0).ok());
  EXPECT_EQ(counter.load(), before_vectorized);
}

TEST(DistinctTest, RemovesDuplicatesKeepsFirst) {
  auto relation = MakeRelation({Column{"a", DataType::kInt},
                                Column{"b", DataType::kString}},
                               {{Value::Int(1), Value::String("x")},
                                {Value::Int(1), Value::String("x")},
                                {Value::Int(1), Value::String("y")},
                                {Value::Null(), Value::Null()},
                                {Value::Null(), Value::Null()}})
                      .value();
  auto distinct = Distinct(relation);
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ((*distinct)->num_rows(), 3u);
}

TEST(UnionAllTest, AppendsAndChecksSchema) {
  auto a = MakeRelation({Column{"v", DataType::kInt}}, {{Value::Int(1)}}).value();
  auto b = MakeRelation({Column{"v", DataType::kInt}}, {{Value::Int(2)}}).value();
  auto merged = UnionAll(a, b);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ((*merged)->num_rows(), 2u);
  auto c = MakeRelation({Column{"w", DataType::kInt}}, {}).value();
  EXPECT_TRUE(UnionAll(a, c).status().IsTypeError());
}

TEST(AggFnTest, NamesRoundTrip) {
  for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kAvg, AggFn::kMin, AggFn::kMax}) {
    AggFn parsed;
    ASSERT_TRUE(AggFnFromString(AggFnToString(fn), &parsed));
    EXPECT_EQ(parsed, fn);
  }
  AggFn unused;
  EXPECT_FALSE(AggFnFromString("median", &unused));
}

TEST(AggSpecParseTest, RoundTrip) {
  auto specs = boxes::ParseAggSpecs("count::n;sum:units:total;min:price:cheapest");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 3u);
  EXPECT_EQ(boxes::AggSpecsToString(*specs),
            "count::n;sum:units:total;min:price:cheapest");
  EXPECT_TRUE(boxes::ParseAggSpecs("bogus:units:x").status().IsParseError());
  EXPECT_TRUE(boxes::ParseAggSpecs("sum::x").status().IsParseError());
  EXPECT_TRUE(boxes::ParseAggSpecs("sum:units").status().IsParseError());
  EXPECT_TRUE(boxes::ParseAggSpecs("").status().IsInvalidArgument());
}

TEST(QueryBoxesTest, GroupByBoxThroughEngine) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("Sales", Sales()).ok());
  dataflow::Graph graph;
  std::string table = graph.AddBox(boxes::MakeBox("Table", {{"table", "Sales"}})
                                       .value())
                          .value();
  std::string group =
      graph
          .AddBox(boxes::MakeBox("GroupBy", {{"keys", "region"},
                                             {"aggs", "count::n;sum:units:total"}})
                      .value())
          .value();
  ASSERT_TRUE(graph.Connect(table, 0, group, 0).ok());
  dataflow::Engine engine(&catalog);
  auto value = engine.Evaluate(graph, group, 0);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  auto relation =
      display::AsRelation(std::get<display::Displayable>(*value)).value();
  EXPECT_EQ(relation.num_rows(), 2u);
  EXPECT_EQ(relation.name(), "Sales_by");
}

TEST(QueryBoxesTest, SortLimitDistinctUnionBoxes) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("Sales", Sales()).ok());
  dataflow::Graph graph;
  std::string table =
      graph.AddBox(boxes::MakeBox("Table", {{"table", "Sales"}}).value()).value();
  std::string sorted =
      graph
          .AddBox(boxes::MakeBox("Sort", {{"column", "units"}, {"ascending", "false"}})
                      .value())
          .value();
  std::string limited =
      graph.AddBox(boxes::MakeBox("Limit", {{"n", "2"}}).value()).value();
  ASSERT_TRUE(graph.Connect(table, 0, sorted, 0).ok());
  ASSERT_TRUE(graph.Connect(sorted, 0, limited, 0).ok());
  dataflow::Engine engine(&catalog);
  auto value = engine.Evaluate(graph, limited, 0).value();
  auto relation =
      display::AsRelation(std::get<display::Displayable>(value)).value();
  ASSERT_EQ(relation.num_rows(), 2u);
  EXPECT_EQ(relation.base()->at(0, 2).int_value(), 5);  // sorted descending

  std::string table2 =
      graph.AddBox(boxes::MakeBox("Table", {{"table", "Sales"}}).value()).value();
  std::string both =
      graph.AddBox(boxes::MakeBox("UnionAll", {}).value()).value();
  ASSERT_TRUE(graph.Connect(limited, 0, both, 0).ok());
  ASSERT_TRUE(graph.Connect(table2, 0, both, 1).ok());
  std::string distinct =
      graph.AddBox(boxes::MakeBox("Distinct", {}).value()).value();
  ASSERT_TRUE(graph.Connect(both, 0, distinct, 0).ok());
  auto distinct_value = engine.Evaluate(graph, distinct, 0).value();
  auto distinct_relation =
      display::AsRelation(std::get<display::Displayable>(distinct_value)).value();
  // 2 + 4 rows with the 2 limited ones duplicated -> 4 distinct.
  EXPECT_EQ(distinct_relation.num_rows(), 4u);
}

}  // namespace
}  // namespace tioga2::db
