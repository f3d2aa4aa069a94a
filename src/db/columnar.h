#ifndef TIOGA2_DB_COLUMNAR_H_
#define TIOGA2_DB_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/schema.h"
#include "types/value.h"

namespace tioga2::db {

class Relation;

/// One column of a relation materialized as a typed vector plus a packed
/// null bitmap. Exactly one of the typed vectors is populated (the one
/// matching `type`); null rows hold a default-constructed element so that
/// vector positions stay aligned with row numbers. Display columns are kept
/// boxed (a DrawableList is a shared_ptr, so "boxed" is one pointer copy).
///
/// ColumnVectors are immutable after construction and derived from the row
/// store, never the other way around: the rows remain the canonical value of
/// a Relation (see ARCHITECTURE.md, "Row vs columnar representation").
struct ColumnVector {
  types::DataType type = types::DataType::kBool;
  size_t num_rows = 0;

  /// Packed null bitmap: bit r of word r/64 is 1 iff row r is null. Empty
  /// when the column has no nulls (the common case — skip the test).
  std::vector<uint64_t> null_bits;

  std::vector<uint8_t> bools;     // kBool
  std::vector<int64_t> ints;      // kInt
  std::vector<double> floats;     // kFloat
  std::vector<int64_t> dates;     // kDate, as days since epoch
  std::vector<types::Value> boxed;   // kDisplay

  /// A kString column is its sorted dictionary: `dict_values` is the
  /// sorted-unique value table in ascending std::string order — exactly the
  /// order Value::Compare gives strings, so code order == string order and
  /// ordered comparisons are valid on codes — and `dict_codes[r]` indexes it
  /// for every non-null row r (null rows hold 0, never read). `dict_values`
  /// is set on every kString column, empty or all-null ones included, and on
  /// no other. A column holds at most UINT32_MAX distinct values, so every
  /// code is below UINT32_MAX; materializing one with more aborts the
  /// process.
  ///
  /// Selection/join views *share* `dict_values` (one shared_ptr copy) and
  /// gather only the codes, so the table built once at base materialization
  /// propagates through arbitrarily deep view chains without re-encoding —
  /// and two columns with the same `dict_values` pointer can compare, group,
  /// and join on codes alone.
  std::shared_ptr<const std::vector<std::string>> dict_values;
  std::vector<uint32_t> dict_codes;

  /// The text of non-null row `row` of a kString column.
  const std::string& string_at(size_t row) const {
    return (*dict_values)[dict_codes[row]];
  }

  bool has_nulls() const { return !null_bits.empty(); }

  bool IsNull(size_t row) const {
    return has_nulls() && ((null_bits[row >> 6] >> (row & 63)) & 1) != 0;
  }

  /// Reconstructs the boxed value of row `row` — bit-identical to the value
  /// stored in the originating tuple (asserted by columnar_test's round-trip
  /// property).
  types::Value ValueAt(size_t row) const;
};

/// The lazily materialized columnar image of a Relation. Columns are built
/// independently on first access (a Sort touching one key column does not
/// pay for materializing strings or display lists it never reads), guarded
/// by per-column once_flags so concurrent readers — sessions firing boxes
/// over shared base relations — see each column built exactly once.
class ColumnarTable {
 public:
  /// `relation` must outlive the table (the table is owned by it).
  explicit ColumnarTable(const Relation* relation);

  ColumnarTable(const ColumnarTable&) = delete;
  ColumnarTable& operator=(const ColumnarTable&) = delete;

  size_t num_columns() const { return columns_.size(); }

  /// Column `c`, materializing it from the row store on first use.
  const ColumnVector& column(size_t c) const;

 private:
  const Relation* relation_;
  mutable std::vector<std::once_flag> once_;
  mutable std::vector<ColumnVector> columns_;
};

/// Three-way compare of rows `a` and `b` of one column, mirroring
/// Value::Compare's `x < y ? -1 : (x > y ? 1 : 0)`: nulls first, numerics
/// as double (int pairs too, and a NaN operand yields 0), strings by code,
/// which is string order. Display columns compare equal (callers reject
/// them first). The vectorized Sort and GroupBy's min/max share it.
inline int CompareCells(const ColumnVector& col, size_t a, size_t b) {
  const bool an = col.IsNull(a);
  const bool bn = col.IsNull(b);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  auto three_way = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  switch (col.type) {
    case types::DataType::kInt:
      return three_way(static_cast<double>(col.ints[a]), static_cast<double>(col.ints[b]));
    case types::DataType::kFloat:
      return three_way(col.floats[a], col.floats[b]);
    case types::DataType::kString:
      return three_way(col.dict_codes[a], col.dict_codes[b]);
    case types::DataType::kDate:
      return three_way(col.dates[a], col.dates[b]);
    case types::DataType::kBool:
      return three_way(col.bools[a] != 0, col.bools[b] != 0);
    case types::DataType::kDisplay:
      break;
  }
  return 0;
}

/// Builds one typed column from shared rows (exposed for tests; Relation
/// callers go through Relation::columnar()).
ColumnVector MaterializeColumn(
    const std::vector<std::shared_ptr<const std::vector<types::Value>>>& rows,
    size_t column, types::DataType type);

/// Gathers `rows` of `src` into a new ColumnVector of the same type —
/// element k of the result is src[rows[k]]. This is how a selection or join
/// view's columnar() builds its columns straight from the parents' typed
/// vectors, without boxing a Value or touching any row store (exposed for
/// tests).
ColumnVector GatherColumn(const ColumnVector& src,
                          const std::vector<uint32_t>& rows);

/// A column of `n` rows, every element equal to src[row] (or all-null when
/// src[row] is null). The batched nested-loop join broadcasts the fixed
/// left-row cells over a block of right rows with this.
ColumnVector SplatCell(const ColumnVector& src, size_t row, size_t n);

}  // namespace tioga2::db

#endif  // TIOGA2_DB_COLUMNAR_H_
