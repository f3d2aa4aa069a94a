#include "db/columnar.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "db/relation.h"
#include "expr/batch.h"

namespace tioga2::db {

using types::DataType;
using types::Value;

types::Value ColumnVector::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(bools[row] != 0);
    case DataType::kInt:
      return Value::Int(ints[row]);
    case DataType::kFloat:
      return Value::Float(floats[row]);
    case DataType::kString:
      return Value::String(string_at(row));
    case DataType::kDate:
      return Value::DateVal(types::Date(dates[row]));
    case DataType::kDisplay:
      return boxed[row];
  }
  return Value::Null();
}

namespace {

void ResizeTyped(ColumnVector* out, size_t n) {
  switch (out->type) {
    case DataType::kBool:
      out->bools.resize(n);
      break;
    case DataType::kInt:
      out->ints.resize(n);
      break;
    case DataType::kFloat:
      out->floats.resize(n);
      break;
    case DataType::kString:
      out->dict_codes.resize(n);
      break;
    case DataType::kDate:
      out->dates.resize(n);
      break;
    case DataType::kDisplay:
      out->boxed.resize(n);
      break;
  }
}

void SetNullBit(ColumnVector* out, size_t n, size_t r) {
  if (out->null_bits.empty()) out->null_bits.resize((n + 63) / 64, 0);
  out->null_bits[r >> 6] |= uint64_t{1} << (r & 63);
}

/// Encodes a kString column while it materializes: Add gives each distinct
/// value a provisional code in first-appearance order, keyed by a view into
/// the row store's own string (rows are immutable and outlive the build), and
/// Finish sorts the distinct values ascending (std::string order ==
/// Value::Compare's string order, the property every ordered-comparison
/// lowering relies on) and remaps the codes onto their sorted ranks. Views
/// never encode — they share the parent's dict_values and gather codes.
class DictionaryBuilder {
 public:
  uint32_t Add(std::string_view s) {
    const auto [it, inserted] =
        ids_.try_emplace(s, static_cast<uint32_t>(distinct_.size()));
    if (inserted) {
      // Codes stay below UINT32_MAX, which the join keeps for "no match".
      if (distinct_.size() == std::numeric_limits<uint32_t>::max()) {
        std::fputs("string column exceeds the dictionary's code range\n", stderr);
        std::abort();
      }
      distinct_.push_back(s);
    }
    return it->second;
  }

  void Finish(ColumnVector* out) const {
    std::vector<uint32_t> order(distinct_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return distinct_[a] < distinct_[b]; });
    auto values = std::make_shared<std::vector<std::string>>();
    values->reserve(order.size());
    std::vector<uint32_t> remap(order.size());
    for (uint32_t rank = 0; rank < order.size(); ++rank) {
      remap[order[rank]] = rank;
      values->emplace_back(distinct_[order[rank]]);
    }
    for (size_t r = 0; r < out->num_rows; ++r) {
      if (!out->IsNull(r)) out->dict_codes[r] = remap[out->dict_codes[r]];
    }
    out->dict_values = std::move(values);
    ++expr::BatchMetrics::Global().dict_columns_built;
  }

 private:
  std::unordered_map<std::string_view, uint32_t> ids_;
  std::vector<std::string_view> distinct_;  // provisional code -> value
};

}  // namespace

ColumnVector MaterializeColumn(
    const std::vector<std::shared_ptr<const std::vector<types::Value>>>& rows,
    size_t column, types::DataType type) {
  ColumnVector out;
  out.type = type;
  out.num_rows = rows.size();
  const size_t n = rows.size();
  ResizeTyped(&out, n);
  DictionaryBuilder dictionary;
  for (size_t r = 0; r < n; ++r) {
    const Value& v = (*rows[r])[column];
    if (v.is_null()) {
      SetNullBit(&out, n, r);
      continue;
    }
    switch (type) {
      case DataType::kBool:
        out.bools[r] = v.bool_value() ? 1 : 0;
        break;
      case DataType::kInt:
        out.ints[r] = v.int_value();
        break;
      case DataType::kFloat:
        out.floats[r] = v.float_value();
        break;
      case DataType::kString:
        out.dict_codes[r] = dictionary.Add(v.string_value());
        break;
      case DataType::kDate:
        out.dates[r] = v.date_value().DaysValue();
        break;
      case DataType::kDisplay:
        out.boxed[r] = v;
        break;
    }
  }
  if (type == DataType::kString) dictionary.Finish(&out);
  return out;
}

ColumnVector GatherColumn(const ColumnVector& src,
                          const std::vector<uint32_t>& rows) {
  ColumnVector out;
  out.type = src.type;
  out.num_rows = rows.size();
  const size_t n = rows.size();
  ResizeTyped(&out, n);
  // Share the value table, gather only the codes: views never re-encode.
  out.dict_values = src.dict_values;
  for (size_t k = 0; k < n; ++k) {
    const size_t r = rows[k];
    if (src.IsNull(r)) {
      SetNullBit(&out, n, k);
      continue;
    }
    switch (src.type) {
      case DataType::kBool:
        out.bools[k] = src.bools[r];
        break;
      case DataType::kInt:
        out.ints[k] = src.ints[r];
        break;
      case DataType::kFloat:
        out.floats[k] = src.floats[r];
        break;
      case DataType::kString:
        out.dict_codes[k] = src.dict_codes[r];
        break;
      case DataType::kDate:
        out.dates[k] = src.dates[r];
        break;
      case DataType::kDisplay:
        out.boxed[k] = src.boxed[r];
        break;
    }
  }
  return out;
}

ColumnVector SplatCell(const ColumnVector& src, size_t row, size_t n) {
  ColumnVector out;
  out.type = src.type;
  out.num_rows = n;
  ResizeTyped(&out, n);
  out.dict_values = src.dict_values;
  if (src.IsNull(row)) {
    // Every row null: saturate the bitmap (bits past n are never read).
    out.null_bits.assign((n + 63) / 64, ~uint64_t{0});
    return out;
  }
  switch (src.type) {
    case DataType::kBool:
      out.bools.assign(n, src.bools[row]);
      break;
    case DataType::kInt:
      out.ints.assign(n, src.ints[row]);
      break;
    case DataType::kFloat:
      out.floats.assign(n, src.floats[row]);
      break;
    case DataType::kString:
      out.dict_codes.assign(n, src.dict_codes[row]);
      break;
    case DataType::kDate:
      out.dates.assign(n, src.dates[row]);
      break;
    case DataType::kDisplay:
      out.boxed.assign(n, src.boxed[row]);
      break;
  }
  return out;
}

ColumnarTable::ColumnarTable(const Relation* relation)
    : relation_(relation),
      once_(relation->num_columns()),
      columns_(relation->num_columns()) {}

const ColumnVector& ColumnarTable::column(size_t c) const {
  std::call_once(once_[c], [this, c] { columns_[c] = relation_->BuildColumn(c); });
  return columns_[c];
}

}  // namespace tioga2::db
