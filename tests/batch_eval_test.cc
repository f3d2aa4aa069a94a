// Vectorized-vs-scalar equivalence. The BatchEvaluator must be
// observationally identical to the scalar EvalExpr — same runtime types,
// same textual values, same null pattern, same accept/reject decisions —
// so that flipping vectorized execution on can never change a memoized
// fingerprint. Three layers of evidence:
//   1. targeted Restrict/RestrictScalar comparisons over tricky operators,
//   2. a randomized property test over generated relations and expressions,
//   3. a full figure-program regression: fingerprints and stamps with
//      vectorization on equal those with it off (the memoization oracle).
// The SIMD kernel tiers (expr/simd/) are held to the same contract at every
// dispatch level — see the "SIMD kernel tiers" section below.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "boxes/relational_boxes.h"
#include "common/rng.h"
#include "db/operators.h"
#include "display/display_relation.h"
#include "expr/batch.h"
#include "expr/evaluator.h"
#include "expr/simd/simd.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"

namespace tioga2 {
namespace {

using db::Column;
using db::MakeRelation;
using db::RelationPtr;
using db::Tuple;
using types::DataType;
using types::Value;

/// Restores the process-default execution policy on scope exit.
class VectorizedGuard {
 public:
  explicit VectorizedGuard(bool enabled) : saved_(db::DefaultExecPolicy()) {
    db::ExecPolicy policy = saved_;
    policy.vectorized = enabled;
    db::SetDefaultExecPolicy(policy);
  }
  ~VectorizedGuard() { db::SetDefaultExecPolicy(saved_); }

 private:
  db::ExecPolicy saved_;
};

RelationPtr Mixed() {
  return MakeRelation(
             {Column{"i", DataType::kInt}, Column{"f", DataType::kFloat},
              Column{"s", DataType::kString}, Column{"b", DataType::kBool}},
             {
                 {Value::Int(1), Value::Float(0.5), Value::String("ann"),
                  Value::Bool(true)},
                 {Value::Int(-3), Value::Null(), Value::String("bob"),
                  Value::Bool(false)},
                 {Value::Null(), Value::Float(2.0), Value::Null(), Value::Null()},
                 {Value::Int(0), Value::Float(-1.5), Value::String(""),
                  Value::Bool(true)},
                 {Value::Int(7), Value::Float(7.0), Value::String("ann"),
                  Value::Null()},
             })
      .value();
}

void ExpectSameRestrict(const RelationPtr& rel, const std::string& predicate) {
  SCOPED_TRACE(predicate);
  auto compiled = db::CompilePredicate(rel->schema(), predicate);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto scalar = db::RestrictScalar(rel, compiled.value());
  VectorizedGuard guard(true);
  auto vectorized = db::Restrict(rel, compiled.value());
  ASSERT_EQ(scalar.ok(), vectorized.ok());
  if (!scalar.ok()) return;
  EXPECT_TRUE(db::RelationEquals(**scalar, **vectorized))
      << "scalar:\n"
      << (*scalar)->ToString() << "vectorized:\n"
      << (*vectorized)->ToString();
}

TEST(BatchRestrictTest, MatchesScalarOnOperatorZoo) {
  RelationPtr rel = Mixed();
  for (const char* predicate : {
           "i > 0",
           "f >= 0.5",
           "i = 1",
           "i != 1",
           "i <= f",
           "i + 1 > 0",
           "i * 2 = i + i",
           "i / 0 = 1",        // div by zero -> null -> reject
           "i % 2 = 1",
           "i % 0 = 0",        // mod by zero -> null -> reject
           "-i < 0",
           "not b",
           "b and i > 0",
           "b or i > 0",
           "b and (i > 0 or f < 1.0)",
           "s = \"ann\"",
           "s != \"ann\"",
           "s < \"b\"",
           "s + \"x\" = \"annx\"",
           "b = (i > 0)",
           "if(b, i, 0 - i) > 0",
           "coalesce(f, 0.0) > 0.0",
           "abs(i) > 2",
           "min(i, 2) = 2",
       }) {
    ExpectSameRestrict(rel, predicate);
  }
}

TEST(BatchRestrictTest, EmptyRelation) {
  RelationPtr empty =
      MakeRelation({Column{"i", DataType::kInt}}, std::vector<Tuple>{}).value();
  ExpectSameRestrict(empty, "i > 0");
}

TEST(BatchRestrictTest, BatchBoundary) {
  // More rows than one kBatchSize chunk, with the keep/reject decision
  // changing right at the boundary.
  std::vector<Tuple> rows;
  const size_t n = expr::kBatchSize * 2 + 17;
  for (size_t r = 0; r < n; ++r) {
    rows.push_back({r % 97 == 0 ? Value::Null() : Value::Int(static_cast<int64_t>(r))});
  }
  RelationPtr rel = MakeRelation({Column{"v", DataType::kInt}}, rows).value();
  ExpectSameRestrict(rel, "v % 3 = 1 and v > 4000");
}

TEST(BatchRestrictTest, NullLanesAtBitmapWordEdgesAndConstantPredicates) {
  // Null lanes on both sides of the null bitmap's word edges (63/64/65,
  // 127/128) and at the last row of a short final batch. A null int's
  // stored payload satisfies "v > -1", yet its row must not survive.
  for (size_t n : {size_t{130}, expr::kBatchSize + 129}) {
    SCOPED_TRACE(n);
    std::vector<Tuple> rows;
    for (size_t r = 0; r < n; ++r) {
      const size_t lane = r % expr::kBatchSize;
      const bool null = lane == 63 || lane == 64 || lane == 65 || lane == 127 ||
                        lane == 128 || r == n - 1;
      rows.push_back({null ? Value::Null() : Value::Int(static_cast<int64_t>(r % 5)),
                      r % 3 == 2 ? Value::Null() : Value::Bool(r % 2 == 0),
                      null ? Value::Null()
                           : Value::Float(static_cast<double>(r % 5) * 0.5 - 1.0)});
    }
    RelationPtr rel =
        MakeRelation({Column{"v", DataType::kInt}, Column{"b", DataType::kBool},
                      Column{"f", DataType::kFloat}},
                     rows)
            .value();
    // The float and computed leaves (f, v * 2, -f) read the same null lanes
    // from a column view and from owned vectors.
    for (const char* predicate :
         {"v > -1", "v % 2 = 0", "v >= 1 and v < 4", "v = 0 or v > 3", "b",
          "b or v > -1", "true", "false", "v > null", "true and v > 2",
          "false or v < 2", "f > -2.0", "f <= 0.0", "v * 2 > -1", "-f < 2.0",
          "b and f >= 0.5"}) {
      ExpectSameRestrict(rel, predicate);
    }
  }
}

// ---- Randomized property test --------------------------------------------

std::string RandomBoolExpr(Rng* rng, int depth);

/// Random numeric leaf over columns i, j (int) and f (float), plus literals
/// that include the div/mod-by-zero hazards.
std::string RandomNumericLeaf(Rng* rng) {
  switch (rng->NextUint64() % 5) {
    case 0: return "i";
    case 1: return "f";
    case 2: return std::to_string(static_cast<int64_t>(rng->NextUint64() % 7) - 3);
    case 3: return std::to_string(static_cast<int64_t>(rng->NextUint64() % 5)) + ".5";
    default: return "j";
  }
}

std::string RandomNumericExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextUint64() % 3 == 0) return RandomNumericLeaf(rng);
  const char* ops[] = {"+", "-", "*", "/"};
  std::string lhs = RandomNumericExpr(rng, depth - 1);
  std::string rhs = RandomNumericExpr(rng, depth - 1);
  switch (rng->NextUint64() % 6) {
    case 0:
      return "if(" + RandomBoolExpr(rng, 0) + ", " + lhs + ", " + rhs + ")";
    case 1:
      return "coalesce(" + lhs + ", " + rhs + ")";
    default:
      return "(" + lhs + " " + ops[rng->NextUint64() % 4] + " " + rhs + ")";
  }
}

std::string RandomBoolExpr(Rng* rng, int depth) {
  if (depth <= 0) {
    const char* cmps[] = {"<", "<=", ">", ">=", "=", "!="};
    return "(" + RandomNumericLeaf(rng) + " " + cmps[rng->NextUint64() % 6] + " " +
           RandomNumericLeaf(rng) + ")";
  }
  const char* cmps[] = {"<", "<=", ">", ">=", "=", "!="};
  switch (rng->NextUint64() % 4) {
    case 0:
      return "(" + RandomBoolExpr(rng, depth - 1) + " and " +
             RandomBoolExpr(rng, depth - 1) + ")";
    case 1:
      return "(" + RandomBoolExpr(rng, depth - 1) + " or " +
             RandomBoolExpr(rng, depth - 1) + ")";
    case 2:
      return "(not " + RandomBoolExpr(rng, depth - 1) + ")";
    default:
      return "(" + RandomNumericExpr(rng, depth - 1) + " " +
             cmps[rng->NextUint64() % 6] + " " + RandomNumericExpr(rng, depth - 1) +
             ")";
  }
}

RelationPtr RandomRelation(Rng* rng) {
  std::vector<Tuple> rows;
  size_t n = 1 + rng->NextUint64() % 200;
  for (size_t r = 0; r < n; ++r) {
    Tuple row;
    row.push_back(rng->NextUint64() % 8 == 0
                      ? Value::Null()
                      : Value::Int(static_cast<int64_t>(rng->NextUint64() % 21) - 10));
    row.push_back(rng->NextUint64() % 8 == 0
                      ? Value::Null()
                      : Value::Float((static_cast<double>(rng->NextUint64() % 41) - 20) / 4.0));
    row.push_back(rng->NextUint64() % 8 == 0
                      ? Value::Null()
                      : Value::Int(static_cast<int64_t>(rng->NextUint64() % 5) - 2));
    rows.push_back(std::move(row));
  }
  return MakeRelation({Column{"i", DataType::kInt}, Column{"f", DataType::kFloat},
                       Column{"j", DataType::kInt}},
                      rows)
      .value();
}

/// One textual form capturing runtime type + value + nullness.
std::string Describe(const Value& v) {
  if (v.is_null()) return "null";
  return types::DataTypeToString(v.type()) + ":" + v.ToString();
}

TEST(BatchEvalPropertyTest, BatchEqualsScalarOnRandomExpressions) {
  Rng rng(20260806);
  size_t compared = 0;
  for (int iter = 0; iter < 120; ++iter) {
    RelationPtr rel = RandomRelation(&rng);
    std::string source = (iter % 2 == 0) ? RandomBoolExpr(&rng, 3)
                                         : RandomNumericExpr(&rng, 3);
    SCOPED_TRACE(source);
    auto compiled = expr::CompiledExpr::Compile(source, db::SchemaEnv(rel->schema()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    expr::RelationBatchSource batch_source(*rel);
    expr::BatchEvaluator evaluator(batch_source);
    expr::Selection sel;
    expr::IdentitySelection(0, rel->num_rows(), &sel);
    auto vec = evaluator.Eval(compiled->root(), sel);

    // Scalar reference, row by row.
    bool scalar_failed = false;
    std::vector<Value> scalar_values;
    for (size_t r = 0; r < rel->num_rows(); ++r) {
      expr::TupleAccessor accessor(rel->row(r));
      auto v = compiled->Eval(accessor);
      if (!v.ok()) {
        scalar_failed = true;
        break;
      }
      scalar_values.push_back(std::move(v).value());
    }

    ASSERT_EQ(vec.ok(), !scalar_failed) << (vec.ok() ? "batch ok, scalar failed"
                                                     : vec.status().ToString());
    if (!vec.ok()) continue;
    for (size_t r = 0; r < rel->num_rows(); ++r) {
      EXPECT_EQ(Describe(vec->ValueAt(r)), Describe(scalar_values[r]))
          << "row " << r;
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000u);  // the test actually exercised something
}

// ---- SIMD kernel tiers ----------------------------------------------------
// The explicit SIMD layer (expr/simd/) must be invisible in results at every
// dispatch level. Evidence: the randomized sweep pinned per level, targeted
// payloads the kernels could plausibly get wrong (NaN, ±0.0, infinities,
// INT64_MIN/MAX), lengths straddling the lane width and the 64-row
// null-bitmap words, and selection shapes (dense, dense-with-offset, sparse).

/// Pins the process-default SIMD tier for a scope. Requested levels clamp to
/// what the build and CPU support (simd::Resolve), so pinning kAVX2 on an
/// SSE2-only machine degrades to kSSE2 rather than faulting.
class SimdGuard {
 public:
  explicit SimdGuard(db::SimdLevel level) : saved_(db::DefaultExecPolicy()) {
    db::ExecPolicy policy = saved_;
    policy.simd = level;
    db::SetDefaultExecPolicy(policy);
  }
  ~SimdGuard() { db::SetDefaultExecPolicy(saved_); }

 private:
  db::ExecPolicy saved_;
};

/// The dispatch levels that resolve to distinct code paths on this machine:
/// always kScalar, plus each kernel tier the build + CPU actually provide.
std::vector<db::SimdLevel> DistinctLevels() {
  std::vector<db::SimdLevel> levels = {db::SimdLevel::kScalar};
  expr::simd::Level best = expr::simd::BestLevel();
  if (best >= expr::simd::Level::kSSE2) levels.push_back(db::SimdLevel::kSSE2);
  if (best >= expr::simd::Level::kAVX2) levels.push_back(db::SimdLevel::kAVX2);
  return levels;
}

/// Evaluates `compiled` over `sel` rows of `rel` at the given SIMD level and
/// checks Describe-identity (runtime type + text + nullness) against the
/// row-at-a-time scalar evaluator. Returns how many node-batches the SIMD
/// kernels served, so callers can assert dispatch did/did not happen.
uint64_t ExpectSimdMatchesScalar(const expr::CompiledExpr& compiled,
                                 const RelationPtr& rel, db::SimdLevel level,
                                 const expr::Selection& sel) {
  db::ExecPolicy policy = db::DefaultExecPolicy();
  policy.simd = level;
  expr::RelationBatchSource batch_source(*rel);
  expr::BatchEvaluator evaluator(batch_source, policy);
  auto vec = evaluator.Eval(compiled.root(), sel);

  bool scalar_failed = false;
  std::vector<Value> scalar_values;
  for (uint32_t r : sel) {
    expr::TupleAccessor accessor(rel->row(r));
    auto v = compiled.Eval(accessor);
    if (!v.ok()) {
      scalar_failed = true;
      break;
    }
    scalar_values.push_back(std::move(v).value());
  }
  EXPECT_EQ(vec.ok(), !scalar_failed)
      << (vec.ok() ? "batch ok, scalar failed" : vec.status().ToString());
  if (!vec.ok() || scalar_failed) return 0;
  for (size_t k = 0; k < sel.size(); ++k) {
    EXPECT_EQ(Describe(vec->ValueAt(k)), Describe(scalar_values[k]))
        << "element " << k << " (row " << sel[k] << ")";
  }
  return evaluator.stats().simd_nodes;
}

/// Rows cycling through every payload the kernels must not normalize: NaN,
/// +0.0 vs -0.0, ±infinity, INT64_MIN/MAX (the doubles they round to), with
/// nulls at mutually prime periods so null words fill differently per column.
/// `e` cycles ±2^53 and their outer neighbours, which share their double
/// images. `big`/`big2` also feed +, -, *, % and negation, which wrap (and
/// x % -1 is 0) on both paths through expr::IntArith, so neither evaluator
/// overflows a signed integer (this test also runs under UBSan via
/// scripts/check.sh).
RelationPtr SpecialRelation(size_t n) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double f_cycle[] = {kNaN, 0.0, -0.0, 1.5, -2.25, kInf, -kInf, 3.0};
  const int64_t big_cycle[] = {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(), 0, -1, 1};
  constexpr int64_t k2To53 = int64_t{1} << 53;
  const int64_t e_cycle[] = {k2To53, k2To53 + 1, -k2To53, -k2To53 - 1, 7, k2To53 - 1};
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    Tuple row;
    row.push_back(r % 7 == 6 ? Value::Null()
                             : Value::Int(static_cast<int64_t>(r % 11) - 5));
    row.push_back(r % 5 == 4 ? Value::Null()
                             : Value::Int(static_cast<int64_t>(r % 9) - 4));
    row.push_back(r % 9 == 8 ? Value::Null() : Value::Int(big_cycle[r % 5]));
    row.push_back(r % 6 == 5 ? Value::Null()
                             : Value::Int(big_cycle[(r + 2) % 5]));
    row.push_back(r % 11 == 10 ? Value::Null() : Value::Float(f_cycle[r % 8]));
    row.push_back(r % 13 == 12 ? Value::Null()
                               : Value::Float(f_cycle[(r + 3) % 8]));
    row.push_back(r % 4 == 3 ? Value::Null() : Value::Bool(r % 2 == 0));
    row.push_back(r % 10 == 9 ? Value::Null() : Value::Bool((r / 2) % 2 == 0));
    row.push_back(r % 8 == 7 ? Value::Null() : Value::Int(e_cycle[r % 6]));
    rows.push_back(std::move(row));
  }
  return MakeRelation(
             {Column{"i", DataType::kInt}, Column{"j", DataType::kInt},
              Column{"big", DataType::kInt}, Column{"big2", DataType::kInt},
              Column{"f", DataType::kFloat}, Column{"g", DataType::kFloat},
              Column{"b", DataType::kBool}, Column{"c", DataType::kBool},
              Column{"e", DataType::kInt}},
             rows)
      .value();
}

TEST(SimdEquivalenceTest, BoundaryLengthsAndSpecialPayloads) {
  // Lengths straddle the SSE2 (2) and AVX2 (4) lane widths and the 64-row
  // null-bitmap word boundary.
  const size_t lengths[] = {1, 2, 3, 4, 5, 7, 63, 64, 65, 127, 129, 200};
  std::vector<RelationPtr> rels;
  for (size_t n : lengths) rels.push_back(SpecialRelation(n));
  uint64_t dispatched = 0;
  for (const char* source : {
           // Float comparisons: NaN unordered, +0.0 = -0.0.
           "f < g", "f <= g", "f > g", "f >= g", "f = g", "f != g",
           "f = f", "f != f", "f < f",
           // Float arithmetic: NaN/inf propagation, -0.0 products, div→null.
           "f + g", "f - g", "f * g", "f / g", "f / 0.0", "0.0 / f",
           // Int arithmetic and comparisons (moderate values only).
           "i + j", "i - j", "i * j", "i / j", "i % j", "i < j", "i = j",
           "i != j",
           // Mixed int/float promotes through the cvt kernel.
           "i < f", "i + f", "i * f",
           // INT64 extremes: comparisons and division compare/convert as
           // double exactly like the scalar path; + - * and negation wrap,
           // and INT64_MIN % -1 is 0.
           "big < big2", "big <= big2", "big = big2", "big != big2",
           "big >= big2", "big > big2", "big / j",
           "big + big2", "big - big2", "big * big2", "big * j", "-big",
           "big % big2", "big % j", "big2 % -1",
           // 3VL merges.
           "b and c", "b or c", "(f < g) and (i < j)", "(f = g) or (b and c)",
       }) {
    SCOPED_TRACE(source);
    auto compiled =
        expr::CompiledExpr::Compile(source, db::SchemaEnv(rels[0]->schema()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    for (size_t li = 0; li < std::size(lengths); ++li) {
      SCOPED_TRACE("n=" + std::to_string(lengths[li]));
      expr::Selection sel;
      expr::IdentitySelection(0, lengths[li], &sel);
      for (db::SimdLevel level : DistinctLevels()) {
        dispatched += ExpectSimdMatchesScalar(*compiled, rels[li], level, sel);
      }
    }
  }
#if defined(TIOGA2_SIMD_ENABLED)
  EXPECT_GT(dispatched, 0u);  // the kernels actually ran
#endif
}

TEST(IntegerOverflowTest, WrapsAndModMinusOneIsZeroUnderEveryPolicy) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  RelationPtr rel =
      MakeRelation({Column{"i", DataType::kInt}, Column{"j", DataType::kInt}},
                   {{Value::Int(kMin), Value::Int(-1)},
                    {Value::Int(kMax), Value::Int(kMin)},
                    {Value::Int(-7), Value::Int(kMax)},
                    {Value::Int(0), Value::Int(-1)},
                    {Value::Null(), Value::Int(-1)},
                    {Value::Int(kMin), Value::Null()}})
          .value();
  for (const char* predicate : {
           "i % -1 = 0", "i % j = 0", "-i = i", "i + j < i", "i - j > i",
           "i * j = 0", "i * 2 = 0", "(-9223372036854775807 - 1) % -1 = 0",
           "-(-9223372036854775807 - 1) < 0", "9223372036854775807 + 1 < 0",
       }) {
    ExpectSameRestrict(rel, predicate);
  }
  // The values themselves, folded at compile time and evaluated per row.
  struct Case {
    const char* source;
    int64_t row0;  // i = INT64_MIN, j = -1
  } cases[] = {{"i % -1", 0},     {"i % j", 0},    {"-i", kMin},
               {"i - 1", kMax},   {"i * j", kMin}, {"i + i", 0},
               {"(-9223372036854775807 - 1) % -1", 0},
               {"-(-9223372036854775807 - 1)", kMin}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.source);
    auto compiled = expr::CompiledExpr::Compile(c.source, db::SchemaEnv(rel->schema()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    expr::TupleAccessor accessor(rel->row(0));
    auto scalar = compiled->Eval(accessor);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    EXPECT_EQ(scalar->int_value(), c.row0);
    expr::Selection sel;
    expr::IdentitySelection(0, rel->num_rows(), &sel);
    for (db::SimdLevel level : DistinctLevels()) {
      ExpectSimdMatchesScalar(*compiled, rel, level, sel);
    }
  }
  // Restrict keeps the rows whose i % -1 is 0: every non-null one.
  auto compiled = db::CompilePredicate(rel->schema(), "i % -1 = 0");
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(db::Restrict(rel, *compiled, db::ExecPolicy{}).value()->num_rows(), 5u);
}

TEST(SimdEquivalenceTest, SelectionShapesDispatchOrFallBack) {
  RelationPtr rel = SpecialRelation(200);
  // Expected SIMD node-batches under dense and sparse selections. The and/or
  // merge kernel only runs when the left branch decided no rows (every row
  // still needs the right branch), so those cases build a true-or-null /
  // false-or-null lhs deliberately: dense 3 = two comparisons + the merge.
  //
  // Sparse selections dispatch two ways, keyed off their density against
  // the gather bound (0.5, kSparseGatherDensity in expr/batch.cc). An
  // every-3rd-row selection (density 1/3) gathers its column operands into
  // dense scratch first, so the kernels dispatch exactly as they do for the
  // dense window. A two-rows-in-three selection (density 2/3) is not
  // gathered: the comparisons fall back to the typed loops (their operands
  // are per-row gathers), but the and/or merge still runs — it consumes the
  // typed bool vectors the fallback loops materialized, which are contiguous
  // whatever the selection shape.
  const struct {
    const char* source;
    uint64_t dense_nodes;
    uint64_t no_gather_nodes;  // two-in-three selection, not gathered
  } cases[] = {
      {"f + g", 1, 0},
      {"f < g", 1, 0},
      {"f / g", 1, 0},
      {"i + j", 1, 0},
      {"(i = i) and (j = j)", 3, 1},
      {"(i != i) or (j != j)", 3, 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.source);
    auto compiled =
        expr::CompiledExpr::Compile(c.source, db::SchemaEnv(rel->schema()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    // Sparse selection under the default policy: the gather densifies the
    // operands, so dispatch matches the dense window.
    expr::Selection sparse;
    for (uint32_t r = 0; r < 200; r += 3) sparse.push_back(r);
    uint64_t sparse_dispatched =
        ExpectSimdMatchesScalar(*compiled, rel, db::SimdLevel::kAVX2, sparse);
#if defined(TIOGA2_SIMD_ENABLED)
    EXPECT_EQ(sparse_dispatched, c.dense_nodes);
#else
    EXPECT_EQ(sparse_dispatched, 0u);
#endif

    // A selection above the gather bound: column reads take the typed loops
    // (no contiguous window to hand a kernel) and still match the oracle.
    expr::Selection two_in_three;
    for (uint32_t r = 0; r < 200; ++r) {
      if (r % 3 != 2) two_in_three.push_back(r);
    }
    uint64_t no_gather_dispatched = ExpectSimdMatchesScalar(
        *compiled, rel, db::SimdLevel::kAVX2, two_in_three);
#if defined(TIOGA2_SIMD_ENABLED)
    EXPECT_EQ(no_gather_dispatched, c.no_gather_nodes);
#else
    EXPECT_EQ(no_gather_dispatched, 0u);
#endif

    // A dense suffix window starts mid-word, exercising the shifted
    // null-bitmap extraction.
    expr::Selection suffix;
    expr::IdentitySelection(37, 200, &suffix);
    ExpectSimdMatchesScalar(*compiled, rel, db::SimdLevel::kAVX2, suffix);

    expr::Selection dense;
    expr::IdentitySelection(0, 200, &dense);
    uint64_t dispatched =
        ExpectSimdMatchesScalar(*compiled, rel, db::SimdLevel::kAVX2, dense);
#if defined(TIOGA2_SIMD_ENABLED)
    EXPECT_EQ(dispatched, c.dense_nodes);
#else
    EXPECT_EQ(dispatched, 0u);
#endif
  }
}

TEST(SimdEquivalenceTest, PropertySweepPinnedAtEachLevel) {
  for (db::SimdLevel level : DistinctLevels()) {
    Rng rng(918273u + static_cast<uint64_t>(static_cast<int>(level)));
    for (int iter = 0; iter < 40; ++iter) {
      RelationPtr rel = RandomRelation(&rng);
      std::string source = (iter % 2 == 0) ? RandomBoolExpr(&rng, 3)
                                           : RandomNumericExpr(&rng, 3);
      SCOPED_TRACE(source);
      auto compiled =
          expr::CompiledExpr::Compile(source, db::SchemaEnv(rel->schema()));
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      expr::Selection sel;
      expr::IdentitySelection(0, rel->num_rows(), &sel);
      ExpectSimdMatchesScalar(*compiled, rel, level, sel);
    }
  }
}

/// Like ExpectSameRestrict, but compares rendered text: RelationEquals goes
/// through Value::Equals, for which NaN equals nothing — so two *identical*
/// NaN-carrying survivor sets would compare unequal.
void ExpectSameRestrictByText(const RelationPtr& rel,
                              const std::string& predicate) {
  SCOPED_TRACE(predicate);
  auto compiled = db::CompilePredicate(rel->schema(), predicate);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto scalar = db::RestrictScalar(rel, compiled.value());
  VectorizedGuard guard(true);
  auto vectorized = db::Restrict(rel, compiled.value());
  ASSERT_EQ(scalar.ok(), vectorized.ok());
  if (!scalar.ok()) return;
  EXPECT_EQ((*scalar)->ToString(1000), (*vectorized)->ToString(1000));
}

TEST(SimdEquivalenceTest, RestrictZooAtEachDispatchLevel) {
  RelationPtr rel = SpecialRelation(129);
  for (db::SimdLevel level : DistinctLevels()) {
    SCOPED_TRACE(expr::simd::LevelName(expr::simd::Resolve(level)));
    SimdGuard guard(level);
    for (const char* predicate : {
             "f * 2.0 + g >= 1.0",
             "f = g",
             "f != f",
             "big < big2 and i + j > 0",
             "f / g > 0.5 or b and c",
             "i * j - 3 <= f",
         }) {
      ExpectSameRestrictByText(rel, predicate);
    }
  }
}

/// FilterTrue over `sel` keeps exactly the rows of `sel` on which the scalar
/// evaluator finds `compiled` non-null true, in order.
void ExpectFilterMatchesScalar(const expr::CompiledExpr& compiled, const RelationPtr& rel,
                               const expr::Selection& sel) {
  expr::RelationBatchSource source(*rel);
  expr::BatchEvaluator evaluator(source);
  expr::Selection kept;
  Status filtered = evaluator.FilterTrue(compiled.root(), sel, &kept);
  expr::Selection expected;
  bool scalar_ok = true;
  for (uint32_t r : sel) {
    expr::TupleAccessor accessor(rel->row(r));
    auto v = compiled.Eval(accessor);
    if (!v.ok()) {
      scalar_ok = false;
      break;
    }
    if (!v->is_null() && v->bool_value()) expected.push_back(r);
  }
  ASSERT_EQ(filtered.ok(), scalar_ok) << filtered.ToString();
  if (scalar_ok) {
    EXPECT_EQ(kept, expected);
  }
}

TEST(SimdEquivalenceTest, RestrictLeavesMatchScalarOverSpecialPayloads) {
  // A comparison of a typed column with a non-null constant compares and
  // keeps each row in one loop (FilterTrue's leaf). Its survivors must be
  // the scalar oracle's on every payload of the lane kernels' sweep: NaN, ±0,
  // ±inf, INT64 extremes and ints that share a double image with 2^53, int
  // columns against float constants and float columns against int ones,
  // owned (computed) operands with and without nulls, in both operand orders,
  // and under dense, sparse and offset selections. Shapes the leaf declines
  // (two columns, bools) compare their operands into bools as before.
  const char* sources[] = {
      "f < 0.0", "f <= -0.0", "f > 1.5", "f >= 1.5", "f = -0.0", "f != 0.0",
      "0.0 <= f", "1.5 > f", "-2 = f", "f < 3", "f >= -2", "3 != f",
      "i < 0.5", "i >= -2.5", "j = 2.0", "j != -1.0", "2.5 > i", "i <= 1",
      "big > 0.5", "big <= -9.2e18", "big = 9223372036854775807",
      "big2 >= -9223372036854775807", "-1 < big2",
      "e = 9007199254740993", "e != 9007199254740992", "e < 9007199254740993",
      "e <= 9007199254740991", "-9007199254740993 = e", "e > -9007199254740992",
      "i * 2 > 3", "f * 1.0 <= 0.0", "-f >= 0.0", "f / g > 0.5", "big / j < 0.0",
      "f > g", "f = f", "b = true",
      "f > 0.0 and i < 3", "i >= 0 and f <= 1.5", "f != f or e = 9007199254740992",
  };
  const size_t lengths[] = {1, 63, 64, 65, 129, 200, expr::kBatchSize + 130};
  std::vector<RelationPtr> rels;
  for (size_t n : lengths) rels.push_back(SpecialRelation(n));
  for (db::SimdLevel level : DistinctLevels()) {
    SCOPED_TRACE(expr::simd::LevelName(expr::simd::Resolve(level)));
    SimdGuard guard(level);
    for (const char* source : sources) {
      SCOPED_TRACE(source);
      auto compiled = expr::CompiledExpr::Compile(source, db::SchemaEnv(rels[0]->schema()));
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      for (size_t li = 0; li < std::size(lengths); ++li) {
        SCOPED_TRACE("n=" + std::to_string(lengths[li]));
        ExpectSameRestrictByText(rels[li], source);
        const uint32_t n = static_cast<uint32_t>(lengths[li]);
        expr::Selection dense;
        expr::IdentitySelection(0, n, &dense);
        expr::Selection sparse;
        for (uint32_t r = 1; r < n; r += 3) sparse.push_back(r);
        expr::Selection offset;
        expr::IdentitySelection(std::min<uint32_t>(37, n), n, &offset);
        for (const expr::Selection* sel : {&dense, &sparse, &offset}) {
          ExpectFilterMatchesScalar(*compiled, rels[li], *sel);
        }
      }
    }
  }
}

// ---- Figure-program memo/stamp regression --------------------------------

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

TEST(BatchEvalStampRegressionTest, VectorizationCannotChangeFingerprintsOrStamps) {
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    SCOPED_TRACE(program.name);

    // Pass 0: scalar row-at-a-time. Pass 1: vectorized typed loops with the
    // SIMD tiers pinned off. Pass 2: vectorized with the best SIMD tier the
    // host supports forced on (kAVX2 clamps down on lesser machines). String
    // work runs on dictionary codes in passes 1 and 2. All three must agree
    // bit-for-bit or memoization would churn on a policy flip.
    std::map<std::string, std::string> fingerprints[3];
    std::map<std::string, std::optional<uint64_t>> stamps[3];
    for (int pass = 0; pass < 3; ++pass) {
      VectorizedGuard guard(pass >= 1);
      SimdGuard simd_guard(pass >= 2 ? db::SimdLevel::kAVX2
                                     : db::SimdLevel::kScalar);
      Environment env;
      ASSERT_TRUE(env.LoadDemoData(program.extra_stations, program.num_days).ok());
      Status built = program.build(&env);
      ASSERT_TRUE(built.ok()) << built.message();
      ui::Session& session = env.session();
      for (const Target& t : TargetsOf(session.graph())) {
        auto value =
            session.engine().Evaluate(session.graph(), t.from, t.from_port);
        ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
        fingerprints[pass][t.canvas] = testing::FingerprintBoxValue(value.value());
      }
      for (const std::string& id : session.graph().BoxIds()) {
        stamps[pass][id] = session.engine().cache().StampOf(id);
      }
    }
    for (int pass = 1; pass < 3; ++pass) {
      EXPECT_EQ(fingerprints[0], fingerprints[pass]) << "pass " << pass;
      EXPECT_EQ(stamps[0], stamps[pass]) << "pass " << pass;
    }
  }
}

// ---- Dictionary-encoded string execution -----------------------------------
// String comparisons against constants lower onto integer dictionary codes
// (db/columnar.h dictionaries, the lowering table in expr/batch.cc). The
// dictionary is sorted in Value::Compare's string order, so code-space
// thresholds reproduce the string loop's bits exactly. These tests hold the
// dict paths to the same Describe-identity standard as the SIMD tiers, plus
// dispatch-counter evidence that the lowering actually ran.

/// Categories exercising every ordering edge the lowering must respect: the
/// empty string (sorts first), an embedded NUL byte, plain ASCII, and a
/// multi-byte UTF-8 value; nulls on a period coprime with the category cycle.
RelationPtr CategoricalRelation(size_t n) {
  const std::string cats[] = {"",     std::string("a\0b", 3), "alpha",
                              "beta", "\xc3\xa9" "clair",     "omega"};
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    rows.push_back({r % 7 == 6 ? Value::Null() : Value::String(cats[r % 6]),
                    Value::Int(static_cast<int64_t>(r % 13) - 6)});
  }
  return MakeRelation(
             {Column{"s", DataType::kString}, Column{"i", DataType::kInt}}, rows)
      .value();
}

TEST(DictExecutionTest, CompareLoweringMatchesScalarAcrossOpsAndConstants) {
  RelationPtr rel = CategoricalRelation(200);
  uint64_t before = expr::BatchMetrics::Global().dict_simd_batches.load();
  // Constants cover: present values (middle, lowest = the empty string),
  // absent values that fall between, below, and above every dictionary
  // entry — each against every comparison op, in both operand orders.
  for (const char* source : {
           "s = \"beta\"", "s != \"beta\"", "s < \"beta\"", "s <= \"beta\"",
           "s > \"beta\"", "s >= \"beta\"",
           "s = \"\"", "s != \"\"", "s <= \"\"", "s > \"\"",
           // Absent: between "alpha" and "beta" / below all / above all.
           "s = \"b\"", "s != \"b\"", "s < \"b\"", "s >= \"b\"",
           "s = \"zzz\"", "s <= \"zzz\"", "s > \"zzz\"",
           // Constant on the left flips the comparison before lowering.
           "\"beta\" = s", "\"beta\" < s", "\"beta\" <= s", "\"beta\" >= s",
           // Inside compound predicates the lowered node feeds the 3VL merge.
           "s >= \"beta\" and i > 0", "s = \"omega\" or s = \"alpha\"",
       }) {
    SCOPED_TRACE(source);
    ExpectSameRestrict(rel, source);
    auto compiled =
        expr::CompiledExpr::Compile(source, db::SchemaEnv(rel->schema()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    // Describe-identity at every dispatch level, dense and sparse (the code
    // gather makes sparse selections dense for free).
    expr::Selection dense;
    expr::IdentitySelection(0, rel->num_rows(), &dense);
    expr::Selection sparse;
    for (uint32_t r = 1; r < rel->num_rows(); r += 3) sparse.push_back(r);
    for (db::SimdLevel level : DistinctLevels()) {
      ExpectSimdMatchesScalar(*compiled, rel, level, dense);
      ExpectSimdMatchesScalar(*compiled, rel, level, sparse);
    }
  }
  EXPECT_GT(expr::BatchMetrics::Global().dict_simd_batches.load(), before)
      << "the dictionary lowering never dispatched";
}

TEST(DictExecutionTest, RestrictLeafCountsOneDictBatchPerBatch) {
  // A Restrict whose only string comparison is a filter leaf reads codes in
  // the leaf alone, which counts one dict_simd_batch per batch it filters,
  // the dense left conjunct's batches and the sparse right conjunct's alike.
  RelationPtr rel = CategoricalRelation(expr::kBatchSize + 100);
  const struct {
    const char* source;
    uint64_t dict_batches;
  } cases[] = {{"s = \"beta\"", 2}, {"\"b\" <= s", 2}, {"i > 0 and s != \"omega\"", 2},
               {"s < \"alpha\" and s > \"\"", 4}, {"i > 0", 0}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.source);
    ExpectSameRestrict(rel, c.source);
    auto compiled = db::CompilePredicate(rel->schema(), c.source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const uint64_t before = expr::BatchMetrics::Global().dict_simd_batches.load();
    VectorizedGuard guard(true);
    ASSERT_TRUE(db::Restrict(rel, compiled.value()).ok());
    EXPECT_EQ(expr::BatchMetrics::Global().dict_simd_batches.load() - before,
              c.dict_batches);
  }
}

TEST(DictExecutionTest, VectorizedRestrictsMatchScalar) {
  // Each policy restricts its own freshly built relation, whose columns (and
  // dictionaries) materialize under it; both must produce the same bytes.
  const char* predicates[] = {"s >= \"beta\"", "s != \"alpha\" and i <= 2",
                              "s < \"b\" or s > \"omeg\""};
  for (const char* predicate : predicates) {
    SCOPED_TRACE(predicate);
    std::vector<RelationPtr> results;
    for (bool vec_on : {true, false}) {
      VectorizedGuard vec_guard(vec_on);
      RelationPtr rel = CategoricalRelation(150);
      auto compiled = db::CompilePredicate(rel->schema(), predicate);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      auto restricted = db::Restrict(rel, compiled.value());
      ASSERT_TRUE(restricted.ok()) << restricted.status().ToString();
      results.push_back(restricted.value());
    }
    for (size_t k = 1; k < results.size(); ++k) {
      EXPECT_TRUE(db::RelationEquals(*results[0], *results[k]))
          << "variant " << k << " diverged:\n"
          << results[0]->ToString() << "vs\n"
          << results[k]->ToString();
    }
  }
}

TEST(DictExecutionTest, RandomizedCategoricalSweep) {
  // Random category alphabets (including adversarial near-misses of each
  // other: prefixes, shared stems), random null rates, random comparison
  // predicates — batch output must Describe-match the scalar oracle at every
  // dispatch level.
  Rng rng(20260809);
  const std::string alphabet[] = {"a",  "ab",  "abc", "b",    "ba",
                                  "bb", "cat", "ca",  "c\x7f", ""};
  size_t compared = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const size_t n = 1 + rng.NextUint64() % 180;
    const size_t num_cats = 1 + rng.NextUint64() % std::size(alphabet);
    std::vector<Tuple> rows;
    for (size_t r = 0; r < n; ++r) {
      rows.push_back({rng.NextUint64() % 6 == 0
                          ? Value::Null()
                          : Value::String(alphabet[rng.NextUint64() % num_cats]),
                      Value::Int(static_cast<int64_t>(r))});
    }
    RelationPtr rel =
        MakeRelation(
            {Column{"s", DataType::kString}, Column{"i", DataType::kInt}}, rows)
            .value();
    const char* cmps[] = {"=", "!=", "<", "<=", ">", ">="};
    // Compare against a constant drawn from the same alphabet — roughly half
    // the draws are present in this relation, half absent.
    std::string constant = alphabet[rng.NextUint64() % std::size(alphabet)];
    std::string source = "s " + std::string(cmps[rng.NextUint64() % 6]) +
                         " \"" + constant + "\"";
    SCOPED_TRACE(source);
    auto compiled =
        expr::CompiledExpr::Compile(source, db::SchemaEnv(rel->schema()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    expr::Selection sel;
    expr::IdentitySelection(0, n, &sel);
    for (db::SimdLevel level : DistinctLevels()) {
      ExpectSimdMatchesScalar(*compiled, rel, level, sel);
    }
    compared += n;
  }
  EXPECT_GT(compared, 1000u);
}

TEST(DictExecutionTest, TextBuiltinSplatsDistinctCodes) {
  // text(s, const_size) over an encoded column formats each distinct value
  // once and splats the shared drawables by code — results must Describe-match
  // the per-row builtin eval, and the splat must actually dispatch.
  RelationPtr rel = CategoricalRelation(80);
  rel->columnar();
  for (const char* source : {"text(s, 2.0)", "text(s, 3.0, \"#112233\")"}) {
    SCOPED_TRACE(source);
    auto compiled =
        expr::CompiledExpr::Compile(source, db::SchemaEnv(rel->schema()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    uint64_t before = expr::BatchMetrics::Global().dict_simd_batches.load();
    expr::RelationBatchSource batch_source(*rel);
    expr::BatchEvaluator evaluator(batch_source);
    expr::Selection sel;
    expr::IdentitySelection(0, rel->num_rows(), &sel);
    auto vec = evaluator.Eval(compiled->root(), sel);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    EXPECT_GT(expr::BatchMetrics::Global().dict_simd_batches.load(), before);
    for (size_t r = 0; r < rel->num_rows(); ++r) {
      expr::TupleAccessor accessor(rel->row(r));
      auto scalar = compiled->Eval(accessor);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(Describe(vec->ValueAt(r)), Describe(scalar.value()))
          << "row " << r;
    }
  }
}

// ---- DisplayRelation batch paths ------------------------------------------

TEST(DisplayBatchTest, AttributeValuesMatchesAttributeValue) {
  RelationPtr rel = Mixed();
  auto dr = display::DisplayRelation::WithDefaults("mixed", rel);
  ASSERT_TRUE(dr.ok());
  auto with_attr = dr->AddAttribute("score", "i * 2 + coalesce(f, 0.0)");
  ASSERT_TRUE(with_attr.ok()) << with_attr.status().ToString();
  auto scaled = with_attr->ScaleAttribute("i", 2.0);
  ASSERT_TRUE(scaled.ok());
  const display::DisplayRelation& relation = scaled.value();
  for (const char* name : {"i", "f", "s", "score", "_x", "_y"}) {
    SCOPED_TRACE(name);
    VectorizedGuard guard(true);
    auto batch = relation.AttributeValues(name);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), relation.num_rows());
    for (size_t r = 0; r < relation.num_rows(); ++r) {
      auto scalar = relation.AttributeValue(r, name);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(Describe((*batch)[r]), Describe(scalar.value())) << "row " << r;
    }
  }
}

TEST(DisplayBatchTest, DrawableBuiltinsVectorize) {
  // The drawable-constructor builtins (the bulk of nodes_fallback on display
  // programs) run as batch kernels when their styling args are constants.
  // fallback_nodes must stay 0 — only the constructors' argument subtrees
  // may use other paths — and results must match the scalar builtin eval.
  RelationPtr rel = Mixed();
  for (const char* source : {
           "point()",
           "point(\"#aabbcc\")",
           "circle(i + 1.0)",
           "circle(f, \"#c81e1e\")",
           "circle(f, \"#c81e1e\", true)",
           "rect(i, f)",
           "rect(i * 2, f + 1.0, \"#00ff00\")",
           "rect(i, f, \"#00ff00\", false)",
           "line(i, f)",
           "line(i, f, \"#0000ff\")",
           "text(s, 2.0)",
           "text(s, f, \"#112233\")",
           "offset(circle(i + 1.0, \"#c81e1e\"), f, 0.0 - f)",
           // Per-row colours: lerp_color over a numeric column, and typed
           // colour columns from lerp_color, if and a stored string.
           "lerp_color(\"#1e46c8\", \"#c81e1e\", f)",
           "lerp_color(\"#1E46C8\", \"#c81e1e\", i / 4)",
           "circle(0.3, lerp_color(\"#1e46c8\", \"#c81e1e\", (f + 1.5) / 9.0), true)",
           "circle(1.5, if(i > 0, \"#c81e1e\", \"#1ea03c\"), true)",
           "circle(f, if(i > 0, \"#c81e1e\", \"#1ea03c\"))",
           "point(lerp_color(\"#000000\", \"#ffffff\", i / 10.0))",
           "rect(i, f, if(b, \"#00ff00\", \"#ff00ff\"))",
           "rect(2.0, 3.0, lerp_color(\"#000000\", \"#ffffff\", f), true)",
           "line(i, f, lerp_color(\"#000000\", \"#ffffff\", f))",
           "text(s, 2.0, if(b, \"#112233\", \"#332211\"))",
           "text(s, f, lerp_color(\"#000000\", \"#ffffff\", f))",
           // The bad colour sits on a row whose radius is null: the scalar
           // builtin returns null there without parsing it.
           "circle(f, if(i = -3, \"nope\", \"#c81e1e\"))",
       }) {
    SCOPED_TRACE(source);
    auto compiled =
        expr::CompiledExpr::Compile(source, db::SchemaEnv(rel->schema()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    expr::RelationBatchSource batch_source(*rel);
    expr::BatchEvaluator evaluator(batch_source);
    expr::Selection sel;
    expr::IdentitySelection(0, rel->num_rows(), &sel);
    auto vec = evaluator.Eval(compiled->root(), sel);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    EXPECT_EQ(evaluator.stats().fallback_nodes, 0u);
    for (size_t r = 0; r < rel->num_rows(); ++r) {
      expr::TupleAccessor accessor(rel->row(r));
      auto scalar = compiled->Eval(accessor);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(Describe(vec->ValueAt(r)), Describe(scalar.value()))
          << "row " << r;
    }
  }
}

TEST(DisplayBatchTest, PerRowColourColumns) {
  RelationPtr rel = Mixed();
  expr::RelationBatchSource batch_source(*rel);
  expr::Selection sel;
  expr::IdentitySelection(0, rel->num_rows(), &sel);
  auto eval = [&](const std::string& source) {
    auto compiled = expr::CompiledExpr::Compile(source, db::SchemaEnv(rel->schema()));
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    expr::BatchEvaluator evaluator(batch_source);
    return evaluator.Eval(compiled->root(), sel);
  };
  // Rows 0 and 4 (i > 0) share one list, and rows 1 and 3 another; row 2's
  // null condition gives a null colour and so a null display.
  auto shared = eval("circle(1.5, if(i > 0, \"#c81e1e\", \"#1ea03c\"), true)");
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_EQ(shared->ValueAt(0).display_value(), shared->ValueAt(4).display_value());
  EXPECT_EQ(shared->ValueAt(1).display_value(), shared->ValueAt(3).display_value());
  EXPECT_NE(shared->ValueAt(0).display_value(), shared->ValueAt(1).display_value());
  EXPECT_TRUE(shared->ValueAt(2).is_null());
  // A colour that fails to parse on a row the constructor builds is an
  // error under both paths.
  const std::string bad = "circle(i, if(i = 7, \"nope\", \"#c81e1e\"))";
  auto batch = eval(bad);
  EXPECT_FALSE(batch.ok());
  auto compiled = expr::CompiledExpr::Compile(bad, db::SchemaEnv(rel->schema()));
  ASSERT_TRUE(compiled.ok());
  expr::TupleAccessor accessor(rel->row(4));
  EXPECT_FALSE(compiled->Eval(accessor).ok());
}

TEST(DisplayBatchTest, RestrictMatchesScalarOverComputedAttributes) {
  RelationPtr rel = Mixed();
  auto dr = display::DisplayRelation::WithDefaults("mixed", rel);
  ASSERT_TRUE(dr.ok());
  auto with_attr = dr->AddAttribute("double_i", "i * 2");
  ASSERT_TRUE(with_attr.ok());
  const display::DisplayRelation& relation = with_attr.value();

  std::optional<display::DisplayRelation> on;
  std::optional<display::DisplayRelation> off;
  {
    VectorizedGuard guard(true);
    auto result = relation.Restrict("double_i > 0 and b");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    on = std::move(result).value();
  }
  {
    VectorizedGuard guard(false);
    auto result = relation.Restrict("double_i > 0 and b");
    ASSERT_TRUE(result.ok());
    off = std::move(result).value();
  }
  EXPECT_TRUE(db::RelationEquals(*on->base(), *off->base()));
}

// ---- kBatchSize boundaries -------------------------------------------------
// Every vectorized operator scans its input once, in expr::kBatchSize
// batches. The cases below put the input one row short of one batch, at
// exactly one, one row past it and one row past two, with null stripes that
// cross the null bitmap's 64-row words, and hold each operator to the scalar
// oracle.

constexpr size_t kBoundaryRows[] = {expr::kBatchSize - 1, expr::kBatchSize,
                                    expr::kBatchSize + 1, 2 * expr::kBatchSize + 1};

db::ExecPolicy ScalarOracle() {
  db::ExecPolicy policy;
  policy.vectorized = false;
  policy.simd = db::SimdLevel::kScalar;
  return policy;
}

/// `n` rows of (id, a, f, tag). `a` is null on 30 rows of every 97 and `f`
/// on every other run of 61 rows, so both stripes cross bitmap words and
/// batch edges. `a` is positive at rows 4,096 and 8,192, where the second
/// and third batches start, so a scan that skips a tail batch loses rows.
RelationPtr BoundaryStripes(size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back((i + 31) % 97 < 30 ? Value::Null()
                                     : Value::Int(static_cast<int64_t>(i % 211) - 50));
    row.push_back((i / 61) % 2 == 1
                      ? Value::Null()
                      : Value::Float(static_cast<double>(i % 173) * 0.5 - 40.0));
    row.push_back(Value::String(i % 3 == 0 ? "tri" : (i % 2 == 0 ? "even" : "odd")));
    rows.push_back(std::move(row));
  }
  return MakeRelation({Column{"id", DataType::kInt}, Column{"a", DataType::kInt},
                       Column{"f", DataType::kFloat},
                       Column{"tag", DataType::kString}},
                      rows)
      .value();
}

TEST(BatchBoundaryTest, RestrictMatchesScalarAcrossBatchEdges) {
  for (size_t n : kBoundaryRows) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    RelationPtr rel = BoundaryStripes(n);
    auto compiled = db::CompilePredicate(
        rel->schema(), "a > 0 or (f < 0.0 and tag = \"odd\")");
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto reference = db::RestrictScalar(rel, compiled.value());
    ASSERT_TRUE(reference.ok());
    // The last batch keeps a row, so a scan that stops early shows.
    const RelationPtr& kept = *reference;
    ASSERT_GT(kept->num_rows(), 0u);
    EXPECT_GE(kept->at(kept->num_rows() - 1, 0).int_value(),
              static_cast<int64_t>((n - 1) / expr::kBatchSize * expr::kBatchSize));
    auto result = db::Restrict(rel, compiled.value(), db::ExecPolicy{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(db::RelationEquals(*kept, **result));
  }
}

TEST(BatchBoundaryTest, HashJoinProbesPastOneBatch) {
  // 170 build keys cover most of `a`'s range. Stripes on the left probe from
  // the left; stripes on the right probe from the right, and the pairs are
  // reordered left-major.
  std::vector<Tuple> krows;
  for (int i = 0; i < 170; ++i) {
    krows.push_back({i % 9 == 0 ? Value::Null() : Value::Int(i - 50),
                     Value::String("k" + std::to_string(i))});
  }
  RelationPtr keys =
      MakeRelation({Column{"k", DataType::kInt}, Column{"name", DataType::kString}},
                   krows)
          .value();
  for (size_t n : kBoundaryRows) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    RelationPtr stripes = BoundaryStripes(n);
    for (bool stripes_left : {true, false}) {
      SCOPED_TRACE(stripes_left ? "stripes left" : "stripes right");
      const RelationPtr& left = stripes_left ? stripes : keys;
      const RelationPtr& right = stripes_left ? keys : stripes;
      auto oracle = db::Join(left, right, "a = k", ScalarOracle());
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      auto result = db::Join(left, right, "a = k", db::ExecPolicy{});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->algorithm, db::JoinAlgorithm::kHash);
      EXPECT_TRUE(db::RelationEquals(*oracle->relation, *result->relation));
    }
  }
}

TEST(BatchBoundaryTest, NestedLoopSplitsTheRightSideIntoBatches) {
  // "k < a" is not an equi-join, so each left row evaluates the predicate
  // over the right side in kBatchSize batches.
  RelationPtr left =
      MakeRelation({Column{"k", DataType::kInt}},
                   {{Value::Null()}, {Value::Int(-3)}, {Value::Int(40)}, {Value::Int(120)}})
          .value();
  for (size_t n : kBoundaryRows) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    RelationPtr right = BoundaryStripes(n);
    auto oracle = db::Join(left, right, "k < a", ScalarOracle());
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto result = db::Join(left, right, "k < a", db::ExecPolicy{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->algorithm, db::JoinAlgorithm::kNestedLoop);
    EXPECT_TRUE(db::RelationEquals(*oracle->relation, *result->relation));
  }
}

TEST(BatchBoundaryTest, DisplayPathsMatchScalarAcrossBatchEdges) {
  const db::ExecPolicy vectorized;
  const db::ExecPolicy scalar = ScalarOracle();
  const char* kPredicate = "score > 10.0 and tag != \"tri\"";
  for (size_t n : kBoundaryRows) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    auto dr = display::DisplayRelation::WithDefaults("stripes", BoundaryStripes(n));
    ASSERT_TRUE(dr.ok());
    // "score" takes the batched kExpr path, "_display" the per-row fallback.
    auto with_attr = dr->AddAttribute("score", "coalesce(a, 0) * 2 + _y");
    ASSERT_TRUE(with_attr.ok()) << with_attr.status().ToString();
    const display::DisplayRelation& relation = with_attr.value();

    for (const char* name : {"score", "_display"}) {
      SCOPED_TRACE(name);
      auto expected = relation.AttributeValues(name, scalar);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      auto values = relation.AttributeValues(name, vectorized);
      ASSERT_TRUE(values.ok()) << values.status().ToString();
      ASSERT_EQ(values->size(), n);
      ASSERT_EQ(expected->size(), n);
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(Describe((*values)[r]), Describe((*expected)[r])) << "row " << r;
      }
    }

    auto expected_restrict = relation.Restrict(kPredicate, scalar);
    ASSERT_TRUE(expected_restrict.ok());
    auto restricted = relation.Restrict(kPredicate, vectorized);
    ASSERT_TRUE(restricted.ok()) << restricted.status().ToString();
    EXPECT_TRUE(
        db::RelationEquals(*expected_restrict->base(), *restricted->base()));

    for (size_t end : {expr::kBatchSize - 1, expr::kBatchSize, expr::kBatchSize + 1, n}) {
      SCOPED_TRACE("end=" + std::to_string(end));
      auto expected_count = relation.CountKept(kPredicate, end, scalar);
      ASSERT_TRUE(expected_count.ok());
      auto count = relation.CountKept(kPredicate, end, vectorized);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(count.value(), expected_count.value());
    }
  }
}

TEST(BatchBoundaryTest, RestrictFailingPastTheFirstBatchFailsLikeScalar) {
  // Rows from 4,100 on hold a string date() cannot parse, so the predicate
  // fails only in the second batch.
  const size_t n = 2 * expr::kBatchSize + 1;
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::String(i < 4100 ? "1996-02-26" : "not a date")});
  }
  RelationPtr rel = MakeRelation({Column{"d", DataType::kString}}, rows).value();
  auto compiled = db::CompilePredicate(rel->schema(), "date(d) > date(\"1990-01-01\")");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto scalar = db::RestrictScalar(rel, compiled.value());
  ASSERT_FALSE(scalar.ok());
  auto vectorized = db::Restrict(rel, compiled.value(), db::ExecPolicy{});
  ASSERT_FALSE(vectorized.ok());
  EXPECT_EQ(vectorized.status().code(), scalar.status().code());
  EXPECT_EQ(vectorized.status().message(), scalar.status().message());
}

TEST(SortTest, VectorizedMatchesScalarIncludingNulls) {
  RelationPtr rel = Mixed();
  for (const char* column : {"i", "f", "s", "b"}) {
    for (bool ascending : {true, false}) {
      SCOPED_TRACE(std::string(column) + (ascending ? " asc" : " desc"));
      std::optional<RelationPtr> on;
      std::optional<RelationPtr> off;
      {
        VectorizedGuard guard(true);
        auto result = db::Sort(rel, column, ascending);
        ASSERT_TRUE(result.ok());
        on = std::move(result).value();
      }
      {
        VectorizedGuard guard(false);
        auto result = db::Sort(rel, column, ascending);
        ASSERT_TRUE(result.ok());
        off = std::move(result).value();
      }
      EXPECT_TRUE(db::RelationEquals(**on, **off))
          << "vectorized:\n"
          << (*on)->ToString() << "scalar:\n"
          << (*off)->ToString();
    }
  }
}

TEST(SortTest, StringColumnWithTiesAndNulBytesMatchesScalar) {
  // The vectorized sort compares dictionary codes; the scalar one compares
  // the strings. Ties must keep input order on both (the ids show it).
  const std::string nul("a\0b", 3);
  const std::string nul2("a\0a", 3);
  const Value labels[] = {Value::String("b"), Value::String(nul),  Value::Null(),
                          Value::String(""),  Value::String("a"),  Value::String(nul2),
                          Value::String("b"), Value::String(nul),  Value::String("\x01"),
                          Value::Null(),      Value::String(""),   Value::String("a")};
  std::vector<Tuple> rows;
  for (size_t r = 0; r < std::size(labels); ++r) {
    rows.push_back({labels[r], Value::Int(static_cast<int64_t>(r))});
  }
  RelationPtr base =
      MakeRelation({Column{"s", DataType::kString}, Column{"id", DataType::kInt}}, rows)
          .value();
  // Also sort a selection view, whose string column is gathered codes.
  RelationPtr view = db::Relation::MakeSelectionView(base, {11, 3, 3, 7, 1, 9, 0, 5});
  for (const RelationPtr& rel : {base, view}) {
    for (bool ascending : {true, false}) {
      SCOPED_TRACE(ascending ? "asc" : "desc");
      auto vectorized = db::Sort(rel, "s", ascending, db::ExecPolicy{});
      db::ExecPolicy scalar_policy;
      scalar_policy.vectorized = false;
      auto scalar = db::Sort(rel, "s", ascending, scalar_policy);
      ASSERT_TRUE(vectorized.ok() && scalar.ok());
      EXPECT_TRUE(db::RelationEquals(**vectorized, **scalar))
          << "vectorized:\n"
          << (*vectorized)->ToString() << "scalar:\n"
          << (*scalar)->ToString();
    }
  }
}

}  // namespace
}  // namespace tioga2
