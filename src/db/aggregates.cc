#include "db/aggregates.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "db/columnar.h"
#include "expr/batch.h"

namespace tioga2::db {

using types::DataType;
using types::Value;

std::string AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "count";
    case AggFn::kSum: return "sum";
    case AggFn::kAvg: return "avg";
    case AggFn::kMin: return "min";
    case AggFn::kMax: return "max";
  }
  return "?";
}

bool AggFnFromString(const std::string& text, AggFn* out) {
  static constexpr std::pair<const char*, AggFn> kNames[] = {
      {"count", AggFn::kCount}, {"sum", AggFn::kSum}, {"avg", AggFn::kAvg},
      {"min", AggFn::kMin},     {"max", AggFn::kMax},
  };
  for (const auto& [name, fn] : kNames) {
    if (text == name) {
      *out = fn;
      return true;
    }
  }
  return false;
}

Result<std::string> TupleKey(const Tuple& tuple, const std::vector<size_t>& columns) {
  std::string key;
  for (size_t c : columns) {
    if (c >= tuple.size()) return Status::Internal("TupleKey column out of range");
    const Value& v = tuple[c];
    if (v.is_null()) {
      key += "\x01n";
    } else if (v.is_int() || v.is_float()) {
      // Unify 2 and 2.0.
      key += "\x01#" + FormatDouble(v.AsDouble());
    } else if (v.is_display()) {
      return Status::TypeError("display values cannot be grouping keys");
    } else {
      key += "\x01v" + v.ToString();
    }
  }
  return key;
}

namespace {

/// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  Value extreme;  // min or max so far
};

DataType AggResultType(const AggSpec& spec, DataType column_type) {
  switch (spec.fn) {
    case AggFn::kCount:
      return DataType::kInt;
    case AggFn::kSum:
    case AggFn::kAvg:
      return DataType::kFloat;
    case AggFn::kMin:
    case AggFn::kMax:
      return column_type;
  }
  return DataType::kFloat;
}

// ---------------------------------------------------------------------------
// Columnar group-by fast path.
//
// The scalar loop groups rows by TupleKey — per column "\x01n" for null,
// "\x01#" + FormatDouble(AsDouble) for numerics, "\x01v" + ToString
// otherwise. The columnar path must group *exactly* the same way, so a key
// column is eligible only when per-cell canonical equality provably matches
// TupleKey string equality:
//   kInt  — FormatDouble is injective per double, so key equality ⇔ equality
//           of the ints' double images (ints beyond 2^53 that round together
//           collapse into one group on both paths).
//   kBool / kDate — ToString is injective per stored value.
//   kString — equality ⇔ dictionary code equality. The TupleKey cell
//           is "\x01v" + QuoteString(value), which is injective per value
//           (interior quotes are escaped, so no value can forge a cell
//           boundary). Distinct values containing the '\x01' tag byte are
//           still declined as a conservative guard: they are vanishingly
//           rare in categorical data, and falling back keeps the scalar
//           oracle authoritative for any concatenation subtlety.
//   kFloat — ineligible: FormatDouble("-0") ≠ "0" yet -0.0 == 0.0, and every
//           NaN formats as "nan" yet compares unequal, so the double image
//           diverges from the string image both ways.
// Group order is first appearance on both paths, aggregate accumulation runs
// in the same row order with the same double arithmetic, and min/max track
// the winning *row* so the output Value round-trips bit-identically through
// ColumnVector::ValueAt.
//
// A selection view is grouped through its composed row map instead of its
// own (gathered) columns. Eligibility is decided on the base's columns; a
// gathered string column shares the base's dictionary (GatherColumn), so the
// verdict is the one the view's own columns would get.

inline uint64_t MixHash64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

bool ColumnarGroupKeysEligible(const Relation& input,
                               const std::vector<size_t>& key_columns,
                               std::vector<const ColumnVector*>* cols) {
  for (size_t c : key_columns) {
    const ColumnVector& col = input.columnar().column(c);
    switch (col.type) {
      case DataType::kInt:
      case DataType::kBool:
      case DataType::kDate:
        break;
      case DataType::kString:
        for (const std::string& s : *col.dict_values) {
          if (s.find('\x01') != std::string::npos) return false;
        }
        break;
      case DataType::kFloat:
      case DataType::kDisplay:
        return false;
    }
    cols->push_back(&col);
  }
  return true;
}

uint64_t HashKeyRow(const std::vector<const ColumnVector*>& cols, size_t r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const ColumnVector* col : cols) {
    uint64_t cell = 0;
    if (col->IsNull(r)) {
      cell = 0x9ae16a3b2f90404fULL;
    } else {
      switch (col->type) {
        case DataType::kInt: {
          // Hash the double image so ints that group together hash together.
          const double d = static_cast<double>(col->ints[r]);
          std::memcpy(&cell, &d, sizeof(cell));
          break;
        }
        case DataType::kBool:
          cell = col->bools[r] != 0 ? 1 : 2;
          break;
        case DataType::kDate:
          cell = static_cast<uint64_t>(col->dates[r]) ^ 0xe7037ed1a0b428dbULL;
          break;
        default:  // kString
          cell = static_cast<uint64_t>(col->dict_codes[r]) ^
                 0x8ebc6af09c88c6e3ULL;
          break;
      }
    }
    h = MixHash64(h ^ MixHash64(cell));
  }
  return h;
}

bool KeysEqualRows(const std::vector<const ColumnVector*>& cols, size_t a,
                   size_t b) {
  for (const ColumnVector* col : cols) {
    const bool an = col->IsNull(a);
    const bool bn = col->IsNull(b);
    if (an != bn) return false;
    if (an) continue;
    switch (col->type) {
      case DataType::kInt:
        if (static_cast<double>(col->ints[a]) !=
            static_cast<double>(col->ints[b])) {
          return false;
        }
        break;
      case DataType::kBool:
        if ((col->bools[a] != 0) != (col->bools[b] != 0)) return false;
        break;
      case DataType::kDate:
        if (col->dates[a] != col->dates[b]) return false;
        break;
      default:
        if (col->dict_codes[a] != col->dict_codes[b]) return false;
        break;
    }
  }
  return true;
}

/// Open-addressing table from a group key to its group id: power-of-two
/// slots, linear probing, doubling at half load. Each slot keeps the key's
/// full hash and a `Key` (the key itself when it fits in a word, else the
/// base row that first carried it), so a probe compares keys only on a hash
/// match, never reads through the group list, and growth re-slots without
/// rehashing a key.
template <typename Key>
class GroupTable {
 public:
  /// The group whose slot key `same_key` accepts among the groups hashed to
  /// `hash`; when there is none, records `key` and `new_group` under `hash`
  /// and returns `new_group`.
  template <typename SameKey>
  uint32_t FindOrAdd(uint64_t hash, Key key, uint32_t new_group, SameKey same_key) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.group == kEmpty) {
        slot = Slot{hash, key, new_group};
        if (++used_ * 2 > slots_.size()) Grow();
        return new_group;
      }
      if (slot.hash == hash && same_key(slot.key)) return slot.group;
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint64_t hash = 0;
    Key key{};
    uint32_t group = kEmpty;
  };

  void Grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.group == kEmpty) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].group != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(16);
  size_t used_ = 0;
};

/// Calls fn(k, map[k]) for input rows k = 0, 1, ... in order, with the
/// identity map's test taken out of the loop.
template <typename Fn>
void ForEachRow(const Relation::RowMap& map, size_t num_rows, Fn&& fn) {
  if (map.rows == nullptr) {
    for (size_t k = 0; k < num_rows; ++k) fn(k, static_cast<uint32_t>(k));
    return;
  }
  const uint32_t* rows = map.rows->data();
  for (size_t k = 0; k < num_rows; ++k) fn(k, rows[k]);
}

/// Pass 1 of the columnar group-by: a group id per input row, groups
/// numbered in order of first appearance.
struct GroupIds {
  std::vector<uint32_t> of_row;  // per input row
  std::vector<uint32_t> reps;    // per group: its first base row
};

/// The smallest and largest of `keys[r]` over the input rows.
std::pair<int64_t, int64_t> KeyRange(const int64_t* keys, const Relation::RowMap& map,
                                     size_t num_rows) {
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  ForEachRow(map, num_rows, [&](size_t, uint32_t r) {
    lo = std::min(lo, keys[r]);
    hi = std::max(hi, keys[r]);
  });
  return {lo, hi};
}

/// Pass 1 over one non-null key whose values, minus `lo`, fall in
/// [0, span): the key indexes a flat slot array of group ids.
template <typename Key>
void AssignDirect(const Key* keys, int64_t lo, uint64_t span, const Relation::RowMap& map,
                  GroupIds* ids) {
  constexpr uint32_t kNoGroup = UINT32_MAX;
  std::vector<uint32_t> slots(span, kNoGroup);
  uint32_t* of_row = ids->of_row.data();
  ForEachRow(map, ids->of_row.size(), [&](size_t k, uint32_t r) {
    uint32_t& group = slots[static_cast<uint64_t>(keys[r]) - static_cast<uint64_t>(lo)];
    if (group == kNoGroup) {
      group = static_cast<uint32_t>(ids->reps.size());
      ids->reps.push_back(r);
    }
    of_row[k] = group;
  });
}

/// Pass 1 by direct index when `key` is one non-null column of a small
/// domain: a dictionary's codes, or the observed [min, max] of int or date
/// values, spanning at most max(2 × rows, 4,096) values. An int key also
/// needs every value within ±2^53, where distinct ints have distinct double
/// images: the hash path groups ints by double image, so 2^53 and 2^53 + 1
/// share a group there and would not here. False when the key does not
/// qualify.
bool AssignGroupsDirect(const ColumnVector& key, const Relation::RowMap& map,
                        GroupIds* ids) {
  const size_t num_rows = ids->of_row.size();
  if (key.has_nulls() || num_rows == 0) return false;
  const uint64_t max_span = std::max<uint64_t>(2 * uint64_t{num_rows}, 4096);
  if (key.type == DataType::kString) {
    if (key.dict_values->size() > max_span) return false;
    AssignDirect(key.dict_codes.data(), 0, key.dict_values->size(), map, ids);
    return true;
  }
  if (key.type != DataType::kInt && key.type != DataType::kDate) return false;
  const int64_t* keys = key.type == DataType::kInt ? key.ints.data() : key.dates.data();
  const auto [lo, hi] = KeyRange(keys, map, num_rows);
  constexpr int64_t kExact = int64_t{1} << 53;
  if (key.type == DataType::kInt && (lo < -kExact || hi > kExact)) return false;
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (span >= max_span) return false;
  AssignDirect(keys, lo, span + 1, map, ids);
  return true;
}

GroupIds AssignGroups(const Relation::RowMap& map, size_t num_rows,
                      const std::vector<const ColumnVector*>& key_cols) {
  GroupIds ids;
  ids.of_row.resize(num_rows);
  if (key_cols.size() == 1 && AssignGroupsDirect(*key_cols[0], map, &ids)) return ids;
  auto assign = [&](size_t k, uint32_t r, uint32_t group) {
    if (group == ids.reps.size()) ids.reps.push_back(r);
    ids.of_row[k] = group;
  };
  if (key_cols.size() == 1 && key_cols[0]->type == DataType::kInt &&
      !key_cols[0]->has_nulls()) {
    // One non-null int key: the slot keeps the key's double image, the
    // image KeysEqualRows compares, so a probe reads only the key array.
    const int64_t* keys = key_cols[0]->ints.data();
    GroupTable<double> table;
    ForEachRow(map, num_rows, [&](size_t k, uint32_t r) {
      const double key = static_cast<double>(keys[r]);
      uint64_t bits = 0;
      std::memcpy(&bits, &key, sizeof(bits));
      const auto next = static_cast<uint32_t>(ids.reps.size());
      assign(k, r, table.FindOrAdd(MixHash64(bits), key, next,
                                   [key](double slot_key) { return slot_key == key; }));
    });
    return ids;
  }
  GroupTable<uint32_t> table;
  ForEachRow(map, num_rows, [&](size_t k, uint32_t r) {
    const auto next = static_cast<uint32_t>(ids.reps.size());
    assign(k, r, table.FindOrAdd(HashKeyRow(key_cols, r), r, next, [&](uint32_t rep) {
      return KeysEqualRows(key_cols, r, rep);
    }));
  });
  return ids;
}

/// Running state of one aggregate within one group; min/max track the
/// winning base row, so the output Value round-trips through ValueAt.
struct ColAggState {
  int64_t count = 0;
  double sum = 0;
  uint32_t extreme_row = 0;
};

/// Sum/avg and min/max over a numeric column without nulls: `read(r)` is
/// base row r's double image. Each group's winner is seeded with its first
/// row, so a later row replaces it only under CompareCells' strict < or >,
/// and ties, ±0 and NaN keep the earlier row.
template <typename Read>
void AggregateNumeric(AggFn fn, Read read, const Relation::RowMap& map,
                      const GroupIds& ids, ColAggState* states) {
  const uint32_t* group_of = ids.of_row.data();
  const size_t num_rows = ids.of_row.size();
  if (fn == AggFn::kSum || fn == AggFn::kAvg) {
    ForEachRow(map, num_rows, [&](size_t k, uint32_t r) {
      ColAggState& state = states[group_of[k]];
      state.sum += read(r);
      ++state.count;
    });
    return;
  }
  std::vector<double> best(ids.reps.size());
  for (size_t g = 0; g < ids.reps.size(); ++g) {
    best[g] = read(ids.reps[g]);
    states[g].extreme_row = ids.reps[g];
  }
  auto track = [&](auto wins) {
    ForEachRow(map, num_rows, [&](size_t k, uint32_t r) {
      const uint32_t g = group_of[k];
      const double v = read(r);
      const bool won = wins(v, best[g]);
      best[g] = won ? v : best[g];
      states[g].extreme_row = won ? r : states[g].extreme_row;
      ++states[g].count;
    });
  };
  if (fn == AggFn::kMin) {
    track([](double v, double b) { return v < b; });
  } else {
    track([](double v, double b) { return v > b; });
  }
}

/// Pass 2: one aggregate over (group id, base row) for every input row, in
/// input order. `col` is the base's column (unused for count).
std::vector<ColAggState> Aggregate(const AggSpec& spec, const ColumnVector* col,
                                   const Relation::RowMap& map, const GroupIds& ids) {
  std::vector<ColAggState> states(ids.reps.size());
  const uint32_t* group_of = ids.of_row.data();
  const size_t num_rows = ids.of_row.size();
  if (spec.fn == AggFn::kCount) {
    for (size_t k = 0; k < num_rows; ++k) ++states[group_of[k]].count;
    return states;
  }
  if (!col->has_nulls() && col->type == DataType::kFloat) {
    const double* values = col->floats.data();
    AggregateNumeric(spec.fn, [values](uint32_t r) { return values[r]; }, map, ids,
                     states.data());
    return states;
  }
  if (!col->has_nulls() && col->type == DataType::kInt) {
    const int64_t* values = col->ints.data();
    AggregateNumeric(
        spec.fn, [values](uint32_t r) { return static_cast<double>(values[r]); },
        map, ids, states.data());
    return states;
  }
  ForEachRow(map, num_rows, [&](size_t k, uint32_t r) {
    if (col->IsNull(r)) return;
    ColAggState& state = states[group_of[k]];
    switch (spec.fn) {
      case AggFn::kSum:
      case AggFn::kAvg:
        state.sum += col->type == DataType::kInt ? static_cast<double>(col->ints[r])
                                                 : col->floats[r];
        break;
      case AggFn::kMin:
      case AggFn::kMax: {
        if (state.count == 0) {
          state.extreme_row = r;
        } else {
          const int cmp = CompareCells(*col, r, state.extreme_row);
          if ((spec.fn == AggFn::kMin && cmp < 0) ||
              (spec.fn == AggFn::kMax && cmp > 0)) {
            state.extreme_row = r;
          }
        }
        break;
      }
      case AggFn::kCount:
        break;
    }
    ++state.count;
  });
  return states;
}

/// Groups `input` through its composed row map (Relation::ComposedSelection):
/// view row k is base row map[k], and every hash, key comparison and
/// aggregate reads the base's columns at that row, so a selection view is
/// never gathered first. `key_cols` are the base's key columns. Pass 1
/// assigns every row its group id; pass 2 runs each aggregate over the ids
/// (DESIGN §14 gives why the output matches the TupleKey loop's).
Result<RelationPtr> GroupByColumnar(const Relation& input, const Relation::RowMap& map,
                                    const std::vector<const ColumnVector*>& key_cols,
                                    const std::vector<AggSpec>& aggs,
                                    const std::vector<size_t>& agg_columns,
                                    SchemaPtr out_schema) {
  const GroupIds ids = AssignGroups(map, input.num_rows(), key_cols);
  std::vector<const ColumnVector*> agg_cols(aggs.size(), nullptr);
  std::vector<std::vector<ColAggState>> states(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn != AggFn::kCount) {
      agg_cols[a] = &map.base->columnar().column(agg_columns[a]);
    }
    states[a] = Aggregate(aggs[a], agg_cols[a], map, ids);
  }

  RelationBuilder builder(std::move(out_schema));
  builder.Reserve(ids.reps.size());
  for (size_t g = 0; g < ids.reps.size(); ++g) {
    Tuple row;
    row.reserve(key_cols.size() + aggs.size());
    for (const ColumnVector* col : key_cols) {
      row.push_back(col->ValueAt(ids.reps[g]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const ColAggState& state = states[a][g];
      switch (aggs[a].fn) {
        case AggFn::kCount:
          row.push_back(Value::Int(state.count));
          break;
        case AggFn::kSum:
          row.push_back(state.count == 0 ? Value::Null() : Value::Float(state.sum));
          break;
        case AggFn::kAvg:
          row.push_back(state.count == 0
                            ? Value::Null()
                            : Value::Float(state.sum / static_cast<double>(state.count)));
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          row.push_back(state.count == 0 ? Value::Null()
                                         : agg_cols[a]->ValueAt(state.extreme_row));
          break;
      }
    }
    builder.AddRowUnchecked(std::move(row));
  }
  return builder.Build();
}

}  // namespace

Result<RelationPtr> GroupBy(const RelationPtr& input,
                            const std::vector<std::string>& keys,
                            const std::vector<AggSpec>& aggs,
                            const ExecPolicy& policy) {
  const Schema& schema = *input->schema();
  std::vector<size_t> key_columns;
  std::vector<Column> out_columns;
  for (const std::string& key : keys) {
    TIOGA2_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(key));
    if (schema.column(index).type == DataType::kDisplay) {
      return Status::TypeError("display column '" + key + "' cannot be a grouping key");
    }
    key_columns.push_back(index);
    out_columns.push_back(schema.column(index));
  }
  std::vector<size_t> agg_columns;
  for (const AggSpec& spec : aggs) {
    if (spec.output_name.empty()) {
      return Status::InvalidArgument("aggregate output name must be non-empty");
    }
    size_t index = 0;
    DataType column_type = DataType::kInt;
    if (spec.fn != AggFn::kCount) {
      TIOGA2_ASSIGN_OR_RETURN(index, schema.ColumnIndex(spec.column));
      column_type = schema.column(index).type;
      if (spec.fn == AggFn::kSum || spec.fn == AggFn::kAvg) {
        if (!types::IsNumericType(column_type)) {
          return Status::TypeError(AggFnToString(spec.fn) + "(" + spec.column +
                                   ") needs a numeric column");
        }
      } else if (column_type == DataType::kDisplay) {
        return Status::TypeError("display columns cannot be aggregated");
      }
    }
    agg_columns.push_back(index);
    out_columns.push_back(Column{spec.output_name, AggResultType(spec, column_type)});
  }
  TIOGA2_ASSIGN_OR_RETURN(Schema out_schema, Schema::Make(std::move(out_columns)));

  if (policy.vectorized) {
    const Relation::RowMap map = input->ComposedSelection();
    std::vector<const ColumnVector*> key_cols;
    if (ColumnarGroupKeysEligible(*map.base, key_columns, &key_cols)) {
      return GroupByColumnar(*input, map, key_cols, aggs, agg_columns,
                             std::make_shared<const Schema>(std::move(out_schema)));
    }
  }
  expr::BatchMetrics::Global().group_by_scalar_rows += input->num_rows();

  struct Group {
    Tuple key_values;
    std::vector<AggState> states;
  };
  std::unordered_map<std::string, size_t> index_by_key;
  std::vector<Group> groups;
  for (size_t r = 0; r < input->num_rows(); ++r) {
    const Tuple& row = input->row(r);
    TIOGA2_ASSIGN_OR_RETURN(std::string key, TupleKey(row, key_columns));
    auto [it, inserted] = index_by_key.emplace(key, groups.size());
    if (inserted) {
      Group group;
      for (size_t c : key_columns) group.key_values.push_back(row[c]);
      group.states.resize(aggs.size());
      groups.push_back(std::move(group));
    }
    Group& group = groups[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggState& state = group.states[a];
      if (aggs[a].fn == AggFn::kCount) {
        ++state.count;
        continue;
      }
      const Value& v = row[agg_columns[a]];
      if (v.is_null()) continue;
      switch (aggs[a].fn) {
        case AggFn::kSum:
        case AggFn::kAvg:
          state.sum += v.AsDouble();
          ++state.count;
          break;
        case AggFn::kMin:
        case AggFn::kMax: {
          if (state.count == 0) {
            state.extreme = v;
          } else {
            TIOGA2_ASSIGN_OR_RETURN(int cmp, v.Compare(state.extreme));
            if ((aggs[a].fn == AggFn::kMin && cmp < 0) ||
                (aggs[a].fn == AggFn::kMax && cmp > 0)) {
              state.extreme = v;
            }
          }
          ++state.count;
          break;
        }
        case AggFn::kCount:
          break;
      }
    }
  }

  RelationBuilder builder(std::make_shared<const Schema>(std::move(out_schema)));
  builder.Reserve(groups.size());
  for (const Group& group : groups) {
    Tuple row = group.key_values;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggState& state = group.states[a];
      switch (aggs[a].fn) {
        case AggFn::kCount:
          row.push_back(Value::Int(state.count));
          break;
        case AggFn::kSum:
          row.push_back(state.count == 0 ? Value::Null() : Value::Float(state.sum));
          break;
        case AggFn::kAvg:
          row.push_back(state.count == 0
                            ? Value::Null()
                            : Value::Float(state.sum / static_cast<double>(state.count)));
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          row.push_back(state.count == 0 ? Value::Null() : state.extreme);
          break;
      }
    }
    builder.AddRowUnchecked(std::move(row));
  }
  return builder.Build();
}

Result<RelationPtr> Distinct(const RelationPtr& input) {
  std::vector<size_t> all_columns(input->schema()->num_columns());
  for (size_t i = 0; i < all_columns.size(); ++i) all_columns[i] = i;
  std::unordered_map<std::string, bool> seen;
  RelationBuilder builder(input->schema());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    TIOGA2_ASSIGN_OR_RETURN(std::string key, TupleKey(input->row(r), all_columns));
    if (seen.emplace(std::move(key), true).second) {
      builder.AddRowShared(input->row_ptr(r));
    }
  }
  return builder.Build();
}

Result<RelationPtr> UnionAll(const RelationPtr& first, const RelationPtr& second) {
  if (!(*first->schema() == *second->schema())) {
    return Status::TypeError("UnionAll needs identical schemas: " +
                             first->schema()->ToString() + " vs " +
                             second->schema()->ToString());
  }
  RelationBuilder builder(first->schema());
  builder.Reserve(first->num_rows() + second->num_rows());
  for (const TuplePtr& row : first->row_ptrs()) builder.AddRowShared(row);
  for (const TuplePtr& row : second->row_ptrs()) builder.AddRowShared(row);
  return builder.Build();
}

}  // namespace tioga2::db
