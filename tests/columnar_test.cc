// Columnar view of a relation: the lazily materialized typed columns must
// reconstruct every stored Value bit-identically (the row store stays
// canonical; columnar() is a pure cache).

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "db/columnar.h"
#include "db/exec_policy.h"
#include "db/relation.h"
#include "types/date.h"

namespace tioga2::db {
namespace {

using types::DataType;
using types::Value;

RelationPtr AllTypes() {
  return MakeRelation(
             {Column{"b", DataType::kBool}, Column{"i", DataType::kInt},
              Column{"f", DataType::kFloat}, Column{"s", DataType::kString},
              Column{"d", DataType::kDate}},
             {
                 {Value::Bool(true), Value::Int(-7), Value::Float(1.25),
                  Value::String("hat"), Value::DateVal(types::Date(1000))},
                 {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
                  Value::Null()},
                 {Value::Bool(false), Value::Int(1LL << 40), Value::Float(-0.5),
                  Value::String(""), Value::DateVal(types::Date(-3))},
             })
      .value();
}

TEST(ColumnarTest, RoundTripsEveryTypeAndNull) {
  RelationPtr rel = AllTypes();
  const ColumnarTable& table = rel->columnar();
  for (size_t c = 0; c < rel->num_columns(); ++c) {
    const ColumnVector& col = table.column(c);
    EXPECT_EQ(col.type, rel->schema()->column(c).type);
    ASSERT_EQ(col.num_rows, rel->num_rows());
    for (size_t r = 0; r < rel->num_rows(); ++r) {
      const Value& want = rel->at(r, c);
      Value got = col.ValueAt(r);
      EXPECT_EQ(col.IsNull(r), want.is_null()) << "col " << c << " row " << r;
      if (want.is_null()) {
        EXPECT_TRUE(got.is_null());
      } else {
        EXPECT_EQ(got.type(), want.type()) << "col " << c << " row " << r;
        EXPECT_TRUE(got.Equals(want)) << "col " << c << " row " << r;
        EXPECT_EQ(got.ToString(), want.ToString());
      }
    }
  }
}

TEST(ColumnarTest, NullBitmapAcrossWordBoundaries) {
  // 130 rows spans three 64-bit bitmap words; nulls placed at both edges of
  // each word catch off-by-one errors in the bit addressing.
  std::vector<size_t> null_rows = {0, 63, 64, 127, 128, 129};
  std::vector<Tuple> rows;
  for (size_t r = 0; r < 130; ++r) {
    bool is_null =
        std::find(null_rows.begin(), null_rows.end(), r) != null_rows.end();
    rows.push_back({is_null ? Value::Null() : Value::Int(static_cast<int64_t>(r))});
  }
  RelationPtr rel = MakeRelation({Column{"v", DataType::kInt}}, rows).value();
  const ColumnVector& col = rel->columnar().column(0);
  EXPECT_TRUE(col.has_nulls());
  for (size_t r = 0; r < 130; ++r) {
    bool want_null =
        std::find(null_rows.begin(), null_rows.end(), r) != null_rows.end();
    EXPECT_EQ(col.IsNull(r), want_null) << "row " << r;
    if (!want_null) {
      EXPECT_EQ(col.ints[r], static_cast<int64_t>(r));
    }
  }
}

TEST(ColumnarTest, NoNullsMeansEmptyBitmap) {
  RelationPtr rel = MakeRelation({Column{"v", DataType::kInt}},
                                 {{Value::Int(1)}, {Value::Int(2)}})
                        .value();
  const ColumnVector& col = rel->columnar().column(0);
  EXPECT_FALSE(col.has_nulls());
  EXPECT_TRUE(col.null_bits.empty());
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_FALSE(col.IsNull(1));
}

TEST(ColumnarTest, SelectionViewChainsComposeToTheBase) {
  // A view-of-a-view-of-a-view (Restrict over Limit over Sort, say) gathers
  // its columns once from the deepest materialized ancestor's columns — but
  // whatever the mechanics, the values must equal walking the chain row by
  // row. Duplicated and out-of-order rows are allowed at every link.
  std::vector<Tuple> rows;
  for (size_t r = 0; r < 200; ++r) {
    rows.push_back({r % 13 == 0 ? Value::Null()
                                : Value::Int(static_cast<int64_t>(r)),
                    Value::String("s" + std::to_string(r % 7))});
  }
  RelationPtr base =
      MakeRelation({Column{"v", DataType::kInt}, Column{"s", DataType::kString}},
                   rows)
          .value();

  // Link 1: reversed evens. Link 2: every third, with a duplicate run at the
  // front. Link 3: a short permuted window.
  std::vector<uint32_t> evens;
  for (uint32_t r = 200; r-- > 0;) {
    if (r % 2 == 0) evens.push_back(r);
  }
  RelationPtr v1 = Relation::MakeSelectionView(base, evens);
  std::vector<uint32_t> thirds = {5, 5, 5};
  for (uint32_t r = 0; r < v1->num_rows(); r += 3) thirds.push_back(r);
  RelationPtr v2 = Relation::MakeSelectionView(v1, thirds);
  std::vector<uint32_t> window = {7, 3, 11, 0, 2, 1};
  RelationPtr v3 = Relation::MakeSelectionView(v2, window);

  for (const RelationPtr& view : {v1, v2, v3}) {
    const ColumnarTable& table = view->columnar();
    for (size_t c = 0; c < view->num_columns(); ++c) {
      const ColumnVector& col = table.column(c);
      ASSERT_EQ(col.num_rows, view->num_rows());
      for (size_t r = 0; r < view->num_rows(); ++r) {
        const Value& want = view->at(r, c);
        EXPECT_EQ(col.IsNull(r), want.is_null()) << "col " << c << " row " << r;
        if (!want.is_null()) {
          EXPECT_TRUE(col.ValueAt(r).Equals(want)) << "col " << c << " row " << r;
        }
      }
    }
  }
}

TEST(ColumnarTest, ColumnarViewIsSharedAndStable) {
  RelationPtr rel = AllTypes();
  const ColumnarTable& a = rel->columnar();
  const ColumnarTable& b = rel->columnar();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a.column(1), &b.column(1));
}

TEST(ColumnarTest, ConcurrentMaterializationIsSafe) {
  // Many threads racing on first use must all see one consistent column —
  // the per-column std::call_once in ColumnarTable is what the parallel
  // engine relies on when box firings share a base relation.
  std::vector<Tuple> rows;
  for (size_t r = 0; r < 10000; ++r) {
    rows.push_back({Value::Int(static_cast<int64_t>(r)),
                    Value::Float(static_cast<double>(r) * 0.5)});
  }
  RelationPtr rel =
      MakeRelation({Column{"i", DataType::kInt}, Column{"f", DataType::kFloat}}, rows)
          .value();
  std::vector<std::thread> threads;
  std::vector<const ColumnVector*> seen(8, nullptr);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&rel, &seen, t] { seen[t] = &rel->columnar().column(t % 2); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(seen[0], seen[2]);
  EXPECT_EQ(seen[1], seen[3]);
  EXPECT_EQ(rel->columnar().column(0).ints.size(), 10000u);
}

// ---- Dictionary encoding ---------------------------------------------------
// kString columns additionally carry a sorted-unique dictionary plus per-row
// codes (db/columnar.h). The canonical `strings` vector stays authoritative;
// the dictionary is an accelerator, so every test here checks both that the
// encoding round-trips and that the plain string data is untouched.

/// Pins ExecPolicy::dict_encode for a scope (materialization consults the
/// process default).
class DictGuard {
 public:
  explicit DictGuard(bool dict_encode) : saved_(DefaultExecPolicy()) {
    ExecPolicy policy = saved_;
    policy.dict_encode = dict_encode;
    SetDefaultExecPolicy(policy);
  }
  ~DictGuard() { SetDefaultExecPolicy(saved_); }

 private:
  ExecPolicy saved_;
};

RelationPtr StringRelation(const std::vector<Value>& cells) {
  std::vector<Tuple> rows;
  for (const Value& v : cells) rows.push_back({v});
  return MakeRelation({Column{"s", DataType::kString}}, rows).value();
}

/// Every non-null row's code must index a dictionary entry equal to its
/// string; null rows carry code 0; the dictionary is sorted and unique.
void ExpectDictConsistent(const ColumnVector& col) {
  ASSERT_TRUE(col.has_dict());
  ASSERT_EQ(col.dict_codes.size(), col.num_rows);
  const std::vector<std::string>& dict = *col.dict_values;
  EXPECT_TRUE(std::is_sorted(dict.begin(), dict.end()));
  EXPECT_EQ(std::adjacent_find(dict.begin(), dict.end()), dict.end());
  for (size_t r = 0; r < col.num_rows; ++r) {
    if (col.IsNull(r)) {
      EXPECT_EQ(col.dict_codes[r], 0u) << "row " << r;
    } else {
      ASSERT_LT(col.dict_codes[r], dict.size()) << "row " << r;
      EXPECT_EQ(dict[col.dict_codes[r]], col.strings[r]) << "row " << r;
    }
  }
}

TEST(ColumnarDictTest, SortedUniqueValuesAndCodes) {
  // Duplicates, the empty string, UTF-8 payloads, an embedded NUL byte, and a
  // null row — everything a dictionary must keep byte-exact.
  const std::string with_nul("a\0b", 3);
  RelationPtr rel = StringRelation(
      {Value::String("pear"), Value::String("apple"), Value::String(""),
       Value::String("pear"), Value::String("\xc3\xa9" "clair"), Value::Null(),
       Value::String(with_nul), Value::String("apple")});
  const ColumnVector& col = rel->columnar().column(0);
  ExpectDictConsistent(col);
  EXPECT_EQ(col.dict_values->size(), 5u);  // "", a\0b, apple, pear, éclair
  EXPECT_EQ((*col.dict_values)[0], "");
  EXPECT_EQ((*col.dict_values)[1], with_nul);
  // Canonical strings stay populated alongside the codes.
  EXPECT_EQ(col.strings[0], "pear");
  EXPECT_EQ(col.strings[6], with_nul);
}

TEST(ColumnarDictTest, DegenerateShapes) {
  // All-null: an empty dictionary, but still encoded (has_dict() drives the
  // fast paths, which all handle "no distinct values").
  RelationPtr all_null =
      StringRelation({Value::Null(), Value::Null(), Value::Null()});
  const ColumnVector& nul_col = all_null->columnar().column(0);
  ExpectDictConsistent(nul_col);
  EXPECT_TRUE(nul_col.dict_values->empty());

  // One distinct value shared by every row.
  std::vector<Value> same(100, Value::String("only"));
  RelationPtr one_rel = StringRelation(same);
  const ColumnVector& one = one_rel->columnar().column(0);
  ExpectDictConsistent(one);
  EXPECT_EQ(one.dict_values->size(), 1u);

  // All rows distinct: codes are a permutation of [0, n).
  std::vector<Value> uniq;
  for (int i = 0; i < 50; ++i) uniq.push_back(Value::String("v" + std::to_string(i)));
  RelationPtr all_rel = StringRelation(uniq);
  const ColumnVector& all = all_rel->columnar().column(0);
  ExpectDictConsistent(all);
  EXPECT_EQ(all.dict_values->size(), 50u);
}

TEST(ColumnarDictTest, ViewsShareTheDictionaryAndGatherCodes) {
  std::vector<Value> cells;
  for (size_t r = 0; r < 120; ++r) {
    cells.push_back(r % 11 == 10 ? Value::Null()
                                 : Value::String("cat" + std::to_string(r % 7)));
  }
  RelationPtr base = StringRelation(cells);
  const ColumnVector& base_col = base->columnar().column(0);
  ASSERT_TRUE(base_col.has_dict());

  // A duplicated, out-of-order selection view shares the dict_values pointer
  // (same shared_ptr, no re-encode) and gathers only the codes.
  std::vector<uint32_t> sel = {9, 9, 118, 0, 42, 10, 77, 10};
  RelationPtr view = Relation::MakeSelectionView(base, sel);
  const ColumnVector& vcol = view->columnar().column(0);
  EXPECT_EQ(vcol.dict_values.get(), base_col.dict_values.get());
  ExpectDictConsistent(vcol);

  // A view of the view still points at the original dictionary.
  RelationPtr view2 = Relation::MakeSelectionView(view, {3, 1, 1, 0});
  const ColumnVector& v2col = view2->columnar().column(0);
  EXPECT_EQ(v2col.dict_values.get(), base_col.dict_values.get());
  ExpectDictConsistent(v2col);

  // SplatCell broadcasts one cell's code (and an all-null splat for null
  // cells), sharing the dictionary the same way.
  ColumnVector splat = SplatCell(base_col, 3, 5);
  EXPECT_EQ(splat.dict_values.get(), base_col.dict_values.get());
  ExpectDictConsistent(splat);
  ColumnVector null_splat = SplatCell(base_col, 10, 4);  // row 10 is null
  ExpectDictConsistent(null_splat);
  for (size_t r = 0; r < 4; ++r) EXPECT_TRUE(null_splat.IsNull(r));

  // GatherColumn is the same machinery exposed directly.
  ColumnVector gathered = GatherColumn(base_col, {5, 5, 99, 10});
  EXPECT_EQ(gathered.dict_values.get(), base_col.dict_values.get());
  ExpectDictConsistent(gathered);
}

TEST(ColumnarDictTest, PolicyKnobDisablesEncoding) {
  DictGuard guard(/*dict_encode=*/false);
  RelationPtr rel = StringRelation({Value::String("x"), Value::String("y")});
  const ColumnVector& col = rel->columnar().column(0);
  EXPECT_FALSE(col.has_dict());
  EXPECT_TRUE(col.dict_codes.empty());
  // The canonical representation is unaffected.
  EXPECT_EQ(col.strings[0], "x");
  EXPECT_EQ(col.strings[1], "y");
}

}  // namespace
}  // namespace tioga2::db
