// Columnar view of a relation: the lazily materialized typed columns must
// reconstruct every stored Value bit-identically (the row store stays
// canonical; columnar() is a pure cache).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

#include "db/columnar.h"
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

// ---- The string column: a sorted dictionary --------------------------------
// A kString column is stored only as its dictionary (db/columnar.h): sorted,
// unique dict_values plus one code per row. Every way a string column is
// built must decode, row by row, to exactly the values the row store holds.

RelationPtr StringRelation(const std::vector<Value>& cells) {
  std::vector<Tuple> rows;
  for (const Value& v : cells) rows.push_back({v});
  return MakeRelation({Column{"s", DataType::kString}}, rows).value();
}

/// Column `c` of `rel`, read from the row store.
std::vector<Value> RowValues(const Relation& rel, size_t c) {
  std::vector<Value> values;
  for (size_t r = 0; r < rel.num_rows(); ++r) values.push_back(rel.at(r, c));
  return values;
}

/// `col` decodes through its dictionary to exactly `want`: the dictionary
/// is sorted and unique, a null row is null and holds code 0, and a non-null
/// row's code is the rank of its value in the dictionary.
void ExpectDecodesTo(const ColumnVector& col, const std::vector<Value>& want) {
  ASSERT_EQ(col.type, DataType::kString);
  ASSERT_NE(col.dict_values, nullptr);
  ASSERT_EQ(col.num_rows, want.size());
  ASSERT_EQ(col.dict_codes.size(), want.size());
  const std::vector<std::string>& dict = *col.dict_values;
  EXPECT_TRUE(std::adjacent_find(dict.begin(), dict.end(),
                                 std::greater_equal<std::string>()) == dict.end());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(col.IsNull(r), want[r].is_null()) << "row " << r;
    if (want[r].is_null()) {
      EXPECT_EQ(col.dict_codes[r], 0u) << "row " << r;
      EXPECT_TRUE(col.ValueAt(r).is_null());
      continue;
    }
    const std::string& text = want[r].string_value();
    const auto rank = std::lower_bound(dict.begin(), dict.end(), text) - dict.begin();
    EXPECT_EQ(col.dict_codes[r], static_cast<uint32_t>(rank)) << "row " << r;
    EXPECT_EQ(col.string_at(r), text) << "row " << r;
    EXPECT_TRUE(col.ValueAt(r) == want[r]) << "row " << r;
  }
}

TEST(ColumnarDictTest, EveryStringColumnDecodesToTheRowStore) {
  const std::string with_nul("a\0b", 3);
  std::vector<Value> one(100, Value::String("only"));
  std::vector<Value> distinct;
  for (int i = 0; i < 50; ++i) distinct.push_back(Value::String("v" + std::to_string(i)));
  const std::vector<std::vector<Value>> columns = {
      // Duplicates, the empty string, an embedded NUL, the '\x01' tag byte,
      // multi-byte UTF-8 and nulls.
      {Value::String("pear"), Value::String("apple"), Value::String(""),
       Value::String("pear"), Value::String("\xc3\xa9" "clair"), Value::Null(),
       Value::String(with_nul), Value::String("\x01tag"), Value::String("apple"),
       Value::Null(), Value::String("\xe6\x97\xa5\xe6\x9c\xac")},
      one,
      distinct,
      {Value::Null(), Value::Null(), Value::Null()},
      {},
  };
  for (const std::vector<Value>& cells : columns) {
    SCOPED_TRACE(cells.size());
    RelationPtr base = StringRelation(cells);
    const ColumnVector& col = base->columnar().column(0);
    ExpectDecodesTo(col, cells);
    // The base's dictionary is exactly its distinct non-null values.
    std::vector<std::string> values;
    for (const Value& v : cells) {
      if (!v.is_null()) values.push_back(v.string_value());
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    EXPECT_EQ(*col.dict_values, values);

    // Views share the base's dictionary and gather codes: a duplicated,
    // out-of-order selection view, a view of it, and each side of a join
    // view (here the base joined with itself, left rows reversed).
    const auto n = static_cast<uint32_t>(cells.size());
    std::vector<uint32_t> picks;
    for (uint32_t r = n; r-- > 0;) picks.push_back(r);
    if (n > 0) picks.insert(picks.end(), {0, n / 2, n / 2, n - 1});
    RelationPtr view = Relation::MakeSelectionView(base, picks);
    RelationPtr view2 = Relation::MakeSelectionView(view, std::vector<uint32_t>(
                                                              picks.rbegin(), picks.rend()));
    std::vector<uint32_t> rights(picks.size());
    for (size_t k = 0; k < picks.size(); ++k) rights[k] = picks[(k * 7) % picks.size()];
    SchemaPtr join_schema = std::make_shared<const Schema>(
        Schema::Make({Column{"s", DataType::kString}, Column{"t", DataType::kString}})
            .value());
    RelationPtr join = Relation::MakeJoinView(join_schema, base, picks, base, rights);
    for (const RelationPtr& rel : {view, view2, join}) {
      for (size_t c = 0; c < rel->num_columns(); ++c) {
        const ColumnVector& vcol = rel->columnar().column(c);
        EXPECT_EQ(vcol.dict_values.get(), col.dict_values.get());
        ExpectDecodesTo(vcol, RowValues(*rel, c));
      }
    }
    ExpectDecodesTo(GatherColumn(col, picks), RowValues(*view, 0));

    // SplatCell broadcasts one cell's code, a null cell as all-null.
    for (size_t r = 0; r < cells.size(); ++r) {
      ColumnVector splat = SplatCell(col, r, 5);
      EXPECT_EQ(splat.dict_values.get(), col.dict_values.get());
      ExpectDecodesTo(splat, std::vector<Value>(5, cells[r]));
    }
  }
}

TEST(ColumnarDictTest, CompareCellsOrdersStringsByCodeWithNullsFirst) {
  const std::string with_nul("a\0b", 3);
  RelationPtr rel = StringRelation({Value::String("b"), Value::Null(), Value::String(with_nul),
                                    Value::String("a"), Value::String(""),
                                    Value::String("b")});
  const ColumnVector& col = rel->columnar().column(0);
  for (size_t a = 0; a < rel->num_rows(); ++a) {
    for (size_t b = 0; b < rel->num_rows(); ++b) {
      EXPECT_EQ(CompareCells(col, a, b), rel->at(a, 0).Compare(rel->at(b, 0)).value())
          << a << " vs " << b;
    }
  }
}

}  // namespace
}  // namespace tioga2::db
