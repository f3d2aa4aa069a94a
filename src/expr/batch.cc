#include "expr/batch.h"

#include <algorithm>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "db/relation.h"
#include "draw/drawable.h"
#include "expr/builtins.h"
#include "expr/evaluator.h"
#include "expr/simd/simd.h"

namespace tioga2::expr {

using types::DataType;
using types::Value;

void IdentitySelection(size_t begin, size_t end, Selection* sel) {
  const size_t n = end - begin;
  sel->resize(n);
  uint32_t* out = sel->data();
  const auto first = static_cast<uint32_t>(begin);
  // Blocks of a fixed eight rows, which the compiler writes as vector stores.
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    for (uint32_t j = 0; j < 8; ++j) out[k + j] = first + static_cast<uint32_t>(k) + j;
  }
  for (; k < n; ++k) out[k] = first + static_cast<uint32_t>(k);
}

bool Vec::IsNull(size_t k) const {
  switch (rep) {
    case Rep::kConst:
      return cval.is_null();
    case Rep::kView:
      return view->IsNull((*view_sel)[k]);
    case Rep::kOwned:
      if (!boxed.empty()) return boxed[k].is_null();
      return !null_bits.empty() && ((null_bits[k >> 6] >> (k & 63)) & 1) != 0;
  }
  return false;
}

Value Vec::ValueAt(size_t k) const {
  switch (rep) {
    case Rep::kConst:
      return cval;
    case Rep::kView:
      return view->ValueAt((*view_sel)[k]);
    case Rep::kOwned:
      break;
  }
  if (!boxed.empty()) return boxed[k];
  if (IsNull(k)) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(bools[k] != 0);
    case DataType::kInt:
      return Value::Int(ints[k]);
    case DataType::kFloat:
      return Value::Float(floats[k]);
    case DataType::kString:
      return Value::String(strings[k]);
    case DataType::kDate:
      return Value::DateVal(types::Date(dates[k]));
    case DataType::kDisplay:
      break;  // typed display vecs are never built; display stays boxed
  }
  return Value::Null();
}

Vec Vec::Const(Value v, size_t n) {
  Vec out;
  out.rep = Rep::kConst;
  out.size = n;
  if (!v.is_null()) out.type = v.type();
  out.cval = std::move(v);
  return out;
}

Vec Vec::OwnedBoxed(std::vector<Value> values) {
  Vec out;
  out.rep = Rep::kOwned;
  out.size = values.size();
  out.boxed = std::move(values);
  return out;
}

void Vec::SetNull(size_t k) {
  if (null_bits.empty()) null_bits.resize((size + 63) / 64, 0);
  null_bits[k >> 6] |= uint64_t{1} << (k & 63);
}

size_t RelationBatchSource::num_rows() const { return relation_.num_rows(); }

const db::ColumnVector* RelationBatchSource::StoredColumn(size_t index) const {
  return &relation_.columnar().column(index);
}

Result<Value> RelationBatchSource::StoredAt(size_t index, size_t row) const {
  if (index >= relation_.num_columns()) {
    return Status::Internal("stored attribute index out of range");
  }
  return relation_.at(row, index);
}

Result<Value> RelationBatchSource::NamedAt(const std::string& name, size_t) const {
  return Status::NotFound("no computed attribute '" + name +
                          "' on a plain relation tuple");
}

BatchMetrics& BatchMetrics::Global() {
  static BatchMetrics* metrics = new BatchMetrics();
  return *metrics;
}

void BatchMetrics::Reset() {
  restrict_batches = 0;
  restrict_rows = 0;
  restrict_scalar_rows = 0;
  group_by_scalar_rows = 0;
  sort_key_batches = 0;
  sort_scalar_fallbacks = 0;
  display_attr_batches = 0;
  display_attr_rows = 0;
  render_location_batches = 0;
  render_scalar_fallbacks = 0;
  join_hash_build_rows = 0;
  join_hash_probe_rows = 0;
  join_nested_batches = 0;
  nodes_vectorized = 0;
  nodes_fallback = 0;
  simd_batches_sse2 = 0;
  simd_batches_avx2 = 0;
  simd_rows = 0;
  simd_scalar_fallbacks = 0;
  dict_columns_built = 0;
  dict_simd_batches = 0;
  sparse_gathers = 0;
}

BatchEvaluator::BatchEvaluator(const BatchSource& source)
    : BatchEvaluator(source, db::DefaultExecPolicy()) {}

BatchEvaluator::BatchEvaluator(const BatchSource& source,
                               const db::ExecPolicy& policy)
    : source_(source), simd_level_(static_cast<int>(simd::Resolve(policy.simd))) {}

namespace {

/// The vec-level runtime type, when uniform: the type every non-null element
/// has at runtime. nullopt for boxed vecs (per-element types may differ) and
/// null constants (no runtime type at all).
std::optional<DataType> UniformType(const Vec& v) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      if (v.cval.is_null()) return std::nullopt;
      return v.cval.type();
    case Vec::Rep::kView:
      return v.view->type;
    case Vec::Rep::kOwned:
      if (!v.boxed.empty()) return std::nullopt;
      return v.type;
  }
  return std::nullopt;
}

double ReadDouble(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.AsDouble();
    case Vec::Rep::kView: {
      size_t row = (*v.view_sel)[k];
      return v.view->type == DataType::kInt ? static_cast<double>(v.view->ints[row])
                                            : v.view->floats[row];
    }
    case Vec::Rep::kOwned:
      return v.type == DataType::kInt ? static_cast<double>(v.ints[k]) : v.floats[k];
  }
  return 0;
}

int64_t ReadInt(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.int_value();
    case Vec::Rep::kView:
      return v.view->ints[(*v.view_sel)[k]];
    case Vec::Rep::kOwned:
      return v.ints[k];
  }
  return 0;
}

bool ReadBool(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.bool_value();
    case Vec::Rep::kView:
      return v.view->bools[(*v.view_sel)[k]] != 0;
    case Vec::Rep::kOwned:
      if (!v.boxed.empty()) return v.boxed[k].bool_value();
      return v.bools[k] != 0;
  }
  return false;
}

const std::string& ReadString(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.string_value();
    case Vec::Rep::kView:
      return v.view->string_at((*v.view_sel)[k]);
    case Vec::Rep::kOwned:
      return v.strings[k];
  }
  return v.cval.string_value();
}

int64_t ReadDateDays(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.date_value().DaysValue();
    case Vec::Rep::kView:
      return v.view->dates[(*v.view_sel)[k]];
    case Vec::Rep::kOwned:
      return v.dates[k];
  }
  return 0;
}

Vec MakeTypedVec(DataType type, size_t n) {
  Vec out;
  out.rep = Vec::Rep::kOwned;
  out.type = type;
  out.size = n;
  switch (type) {
    case DataType::kBool:
      out.bools.resize(n);
      break;
    case DataType::kInt:
      out.ints.resize(n);
      break;
    case DataType::kFloat:
      out.floats.resize(n);
      break;
    case DataType::kString:
      out.strings.resize(n);
      break;
    case DataType::kDate:
      out.dates.resize(n);
      break;
    case DataType::kDisplay:
      out.boxed.resize(n);
      break;
  }
  return out;
}

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// Whether `a <op> b` holds, under the rules every typed comparison shares.
/// Orderings mirror Value::Compare's `a < b ? -1 : (a > b ? 1 : 0)`, so a
/// NaN operand makes <= and >= true and < and > false; equality mirrors
/// Value::Equals's IEEE `a == b`, so NaN equals nothing and -0.0 equals 0.0.
/// The two disagree on NaN, so eq/ne must not go through the ordering.
/// Numeric operands compare as double, int with int included.
template <BinaryOp kOp, typename T>
bool Holds(const T& a, const T& b) {
  if constexpr (kOp == BinaryOp::kEq) return a == b;
  if constexpr (kOp == BinaryOp::kNe) return !(a == b);
  if constexpr (kOp == BinaryOp::kLt) return a < b;
  if constexpr (kOp == BinaryOp::kLe) return !(a > b);
  if constexpr (kOp == BinaryOp::kGt) return a > b;
  if constexpr (kOp == BinaryOp::kGe) return !(a < b);
  return false;
}

/// Calls fn(std::integral_constant<BinaryOp, op>{}) for comparison `op`, so
/// a loop over rows can take its comparison as a compile-time constant.
template <typename Fn>
void WithComparison(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kEq: fn(std::integral_constant<BinaryOp, BinaryOp::kEq>{}); break;
    case BinaryOp::kNe: fn(std::integral_constant<BinaryOp, BinaryOp::kNe>{}); break;
    case BinaryOp::kLt: fn(std::integral_constant<BinaryOp, BinaryOp::kLt>{}); break;
    case BinaryOp::kLe: fn(std::integral_constant<BinaryOp, BinaryOp::kLe>{}); break;
    case BinaryOp::kGt: fn(std::integral_constant<BinaryOp, BinaryOp::kGt>{}); break;
    default: fn(std::integral_constant<BinaryOp, BinaryOp::kGe>{}); break;
  }
}

/// True when `v` reads a string column, whose dictionary codes a string
/// comparison can lower onto.
bool DictCompareOperand(const Vec& v) {
  return v.rep == Vec::Rep::kView && v.view->type == DataType::kString;
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

/// Maps `column <op> constant` into code space. With L = lower-bound rank of
/// the constant in the sorted dictionary and U = its upper-bound rank
/// (L+1 when present, L when absent — the dictionary is duplicate-free):
///   =   → code == L   (== -1 when absent: always false, codes are >= 0)
///   <>  → code != L   (!= -1 when absent: always true)
///   <   → code <  L
///   <=  → code <  U
///   >   → code >= U
///   >=  → code >= L
/// Valid because the dictionary is sorted in the exact order Value::Compare
/// gives strings, so code order == string order.
void LowerDictCompare(const std::vector<std::string>& dict, BinaryOp op,
                      const std::string& constant, BinaryOp* op_out,
                      int64_t* const_out) {
  const auto lo = std::lower_bound(dict.begin(), dict.end(), constant);
  const int64_t rank = lo - dict.begin();
  const bool found = lo != dict.end() && *lo == constant;
  const int64_t upper = found ? rank + 1 : rank;
  switch (op) {
    case BinaryOp::kEq:
      *op_out = BinaryOp::kEq;
      *const_out = found ? rank : -1;
      break;
    case BinaryOp::kNe:
      *op_out = BinaryOp::kNe;
      *const_out = found ? rank : -1;
      break;
    case BinaryOp::kLt:
      *op_out = BinaryOp::kLt;
      *const_out = rank;
      break;
    case BinaryOp::kLe:
      *op_out = BinaryOp::kLt;
      *const_out = upper;
      break;
    case BinaryOp::kGt:
      *op_out = BinaryOp::kGe;
      *const_out = upper;
      break;
    default:  // kGe
      *op_out = BinaryOp::kGe;
      *const_out = rank;
      break;
  }
}

/// Orders a comparison's operands as (*other, *constant) when exactly one of
/// them is a non-null constant, flipping `*op` when the constant was on the
/// left; false when both or neither are.
bool ConstantOnRight(BinaryOp* op, const Vec** other, const Vec** constant) {
  auto is_const = [](const Vec* v) {
    return v->rep == Vec::Rep::kConst && !v->cval.is_null();
  };
  if (is_const(*other) == is_const(*constant)) return false;
  if (is_const(*other)) {
    std::swap(*other, *constant);
    *op = FlipComparison(*op);
  }
  return true;
}

/// Where element k of a comparison leaf's typed operand, and its row, sit.
enum class Layout {
  kDense,  // the rows are first, first + 1, ...: values[k], null bit null_base + k
  kRows,   // a column view: values[rows[k]], null bit rows[k]
  kOwned,  // an owned vector: values[k], null bit k
};

/// Appends the row of every non-null element k of a typed operand whose
/// value satisfies Holds<kOp>(value, c), for the n > 0 rows `rows` (null: no
/// nulls). Every element writes its row one past the survivors so far and
/// only a kept one advances the count, so the loop does not branch on the
/// data. Returns the count.
template <BinaryOp kOp, Layout kLayout, typename C, typename T>
size_t KeepComparing(const T* values, const uint64_t* nulls, size_t null_base, C c,
                     const uint32_t* rows, size_t n, uint32_t* dst) {
  const uint32_t first = rows[0];
  auto row = [&](size_t k) {
    return kLayout == Layout::kDense ? static_cast<uint32_t>(first + k) : rows[k];
  };
  auto at = [](size_t k, uint32_t r) -> size_t { return kLayout == Layout::kRows ? r : k; };
  size_t m = 0;
  if (nulls == nullptr) {
    for (size_t k = 0; k < n; ++k) {
      const uint32_t r = row(k);
      dst[m] = r;
      m += Holds<kOp>(static_cast<C>(values[at(k, r)]), c);
    }
    return m;
  }
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = row(k);
    const size_t a = at(k, r);
    const size_t bit = null_base + a;
    dst[m] = r;
    m += Holds<kOp>(static_cast<C>(values[a]), c) & ~(nulls[bit >> 6] >> (bit & 63)) & 1;
  }
  return m;
}

/// FilterTrue's comparison leaf over operands evaluated under `sel`: when
/// one is a typed column (a float, int or dictionary-string view, or an
/// owned int or float vector) and the other a non-null constant, appends the
/// rows of `sel` the comparison keeps, reading, comparing and compacting in
/// one loop. A dictionary column compares its codes against the constant's
/// code-space threshold (LowerDictCompare) and counts a dict_simd_batch.
/// Returns false, with `out` untouched, for any other operand shape.
bool AppendComparisonSurvivors(BinaryOp op, const Vec& lhs, const Vec& rhs,
                               const Selection& sel, Selection* out) {
  const Vec* operand = &lhs;
  const Vec* constant = &rhs;
  if (!ConstantOnRight(&op, &operand, &constant)) return false;
  const Value& c = constant->cval;
  const size_t n = sel.size();
  const bool dense = n > 0 && sel.back() - sel.front() + size_t{1} == n;
  auto keep = [&](bool view, BinaryOp keep_op, auto cval, const auto* values,
                  const uint64_t* nulls) {
    if (n == 0) return true;
    const size_t base = out->size();
    out->resize(base + n);
    uint32_t* dst = out->data() + base;
    // A view over a dense run reads its elements from the run's first row on.
    const size_t shift = view && dense ? sel.front() : 0;
    size_t m = 0;
    WithComparison(keep_op, [&](auto kop) {
      constexpr BinaryOp kOp = decltype(kop)::value;
      if (dense) {
        m = KeepComparing<kOp, Layout::kDense>(values + shift, nulls, shift, cval,
                                               sel.data(), n, dst);
      } else if (view) {
        m = KeepComparing<kOp, Layout::kRows>(values, nulls, 0, cval, sel.data(), n, dst);
      } else {
        m = KeepComparing<kOp, Layout::kOwned>(values, nulls, 0, cval, sel.data(), n, dst);
      }
    });
    out->resize(base + m);
    return true;
  };
  const bool numeric = IsNumericType(c.type());
  if (operand->rep == Vec::Rep::kView && operand->view_sel == &sel) {
    const db::ColumnVector& col = *operand->view;
    const uint64_t* nulls = col.has_nulls() ? col.null_bits.data() : nullptr;
    if (DictCompareOperand(*operand) && c.type() == DataType::kString) {
      BinaryOp code_op = BinaryOp::kEq;
      int64_t code = 0;
      LowerDictCompare(*col.dict_values, op, c.string_value(), &code_op, &code);
      ++BatchMetrics::Global().dict_simd_batches;
      return keep(true, code_op, code, col.dict_codes.data(), nulls);
    }
    if (numeric && col.type == DataType::kFloat) {
      return keep(true, op, c.AsDouble(), col.floats.data(), nulls);
    }
    if (numeric && col.type == DataType::kInt) {
      return keep(true, op, c.AsDouble(), col.ints.data(), nulls);
    }
    return false;
  }
  if (operand->rep == Vec::Rep::kOwned && !operand->is_boxed() && numeric) {
    const uint64_t* nulls =
        operand->null_bits.empty() ? nullptr : operand->null_bits.data();
    if (operand->type == DataType::kFloat) {
      return keep(false, op, c.AsDouble(), operand->floats.data(), nulls);
    }
    if (operand->type == DataType::kInt) {
      return keep(false, op, c.AsDouble(), operand->ints.data(), nulls);
    }
  }
  return false;
}

/// Density (selected / spanned rows) at or below which MaybeGatherSparse
/// gathers an operand. After a selective Restrict the surviving selection is
/// sparse, which would otherwise put every downstream numeric node on the
/// per-element typed loops.
constexpr double kSparseGatherDensity = 0.5;

/// Gathers a sparse numeric kView operand into dense kOwned storage when its
/// density is at or below kSparseGatherDensity, so the SIMD kernels — which
/// require dense selections — still apply after a selective Restrict.
/// Bit-identical either way; only the storage moves.
bool MaybeGatherSparse(Vec* v, size_t n) {
  if (v->rep != Vec::Rep::kView || n == 0) return false;
  const db::ColumnVector& col = *v->view;
  if (col.type != DataType::kInt && col.type != DataType::kFloat) return false;
  const Selection& vs = *v->view_sel;
  const size_t span = static_cast<size_t>(vs.back() - vs.front()) + 1;
  if (span == n) return false;  // dense run: FlattenNumeric takes it as-is
  if (static_cast<double>(n) > kSparseGatherDensity * static_cast<double>(span)) {
    return false;
  }
  Vec gathered = MakeTypedVec(col.type, n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = vs[k];
    if (col.IsNull(r)) {
      gathered.SetNull(k);
    } else if (col.type == DataType::kInt) {
      gathered.ints[k] = col.ints[r];
    } else {
      gathered.floats[k] = col.floats[r];
    }
  }
  ++BatchMetrics::Global().sparse_gathers;
  *v = std::move(gathered);
  return true;
}

/// Converts a boxed Vec to a typed one when every non-null element has the
/// same primitive runtime type (all-null becomes a null constant). Uniformity
/// is checked at runtime, not taken from the analyzer: `if`/`coalesce` may
/// return Int where Float was declared, and the typed form must mirror what
/// the scalar evaluator actually produced.
void PromoteIfUniform(Vec* v) {
  if (!v->is_boxed()) return;
  std::optional<DataType> t;
  for (const Value& value : v->boxed) {
    if (value.is_null()) continue;
    DataType vt = value.type();
    if (vt == DataType::kDisplay) return;  // display stays boxed
    if (!t.has_value()) {
      t = vt;
    } else if (*t != vt) {
      return;
    }
  }
  if (!t.has_value()) {
    *v = Vec::Const(Value::Null(), v->size);
    return;
  }
  Vec typed = MakeTypedVec(*t, v->size);
  for (size_t k = 0; k < v->boxed.size(); ++k) {
    const Value& value = v->boxed[k];
    if (value.is_null()) {
      typed.SetNull(k);
      continue;
    }
    switch (*t) {
      case DataType::kBool:
        typed.bools[k] = value.bool_value() ? 1 : 0;
        break;
      case DataType::kInt:
        typed.ints[k] = value.int_value();
        break;
      case DataType::kFloat:
        typed.floats[k] = value.float_value();
        break;
      case DataType::kString:
        typed.strings[k] = value.string_value();
        break;
      case DataType::kDate:
        typed.dates[k] = value.date_value().DaysValue();
        break;
      case DataType::kDisplay:
        break;  // unreachable: display returned above
    }
  }
  *v = std::move(typed);
}

/// Batch path for the drawable-constructor builtins (point/circle/rect/line/
/// text/offset) and for lerp_color: fill flags must be batch constants, a
/// colour is a constant (parsed once) or a typed string column (parsed once
/// per row), and numeric/string/display arguments stream from the operand
/// vectors without per-row boxing. Returns true and fills *out with results
/// value-identical to running the overload's scalar eval row by row; false
/// (including for a colour that fails to parse on a row the scalar loop
/// would build — that loop then reports it) means the caller falls back.
bool TryEvalDisplayBuiltin(const ExprNode& node, const std::vector<Vec>& args,
                           size_t n, Vec* out) {
  if (node.overload == nullptr || node.overload->null_opaque) return false;
  const std::string& name = node.name;
  const size_t argc = args.size();

  auto numeric_ok = [&](size_t a) {
    std::optional<DataType> t = UniformType(args[a]);
    return !args[a].is_boxed() && t.has_value() && IsNumericType(*t);
  };
  auto string_ok = [&](size_t a) {
    return !args[a].is_boxed() && UniformType(args[a]) == DataType::kString;
  };
  auto const_nonnull = [&](size_t a, DataType t) {
    return args[a].rep == Vec::Rep::kConst && !args[a].cval.is_null() &&
           args[a].cval.type() == t;
  };
  auto parse_color = [&](size_t a, draw::Color* color) {
    return draw::ColorFromHex(args[a].cval.string_value(), color);
  };
  // The scalar loop yields null for a row with any null argument.
  auto null_row = [&](size_t k) {
    for (const Vec& a : args) {
      if (a.IsNull(k)) return true;
    }
    return false;
  };
  // colors[k] is row k's colour argument; rows that build null are skipped.
  std::vector<draw::Color> colors;
  auto parse_colors = [&](size_t a) {
    if (const_nonnull(a, DataType::kString)) {
      draw::Color color;
      if (!parse_color(a, &color)) return false;
      colors.assign(n, color);
      return true;
    }
    if (!string_ok(a)) return false;
    colors.resize(n);
    for (size_t k = 0; k < n; ++k) {
      if (!null_row(k) && !draw::ColorFromHex(ReadString(args[a], k), &colors[k])) {
        return false;
      }
    }
    return true;
  };
  auto wrap = [](draw::Drawable d) {
    return Value::Display(draw::MakeDrawableList({std::move(d)}));
  };
  auto build = [&](auto&& make) {
    std::vector<Value> values;
    values.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      values.push_back(null_row(k) ? Value::Null() : make(k));
    }
    *out = Vec::OwnedBoxed(std::move(values));
    PromoteIfUniform(out);
    return true;
  };
  // build() for a constructor whose colour argument `color_arg` is the only
  // one that may vary per row: rows of one colour then share one list, as
  // the rows of a constant display do (a render image holds every row's).
  auto build_by_color = [&](size_t color_arg, auto&& make) {
    for (size_t a = 0; a < argc; ++a) {
      if (a != color_arg && args[a].rep != Vec::Rep::kConst) return build(make);
    }
    std::unordered_map<uint32_t, Value> by_color;
    return build([&](size_t k) {
      const draw::Color& c = colors[k];
      Value& shared = by_color[(uint32_t{c.r} << 16) | (uint32_t{c.g} << 8) | c.b];
      if (shared.is_null()) shared = make(k);
      return shared;
    });
  };

  if (name == "lerp_color") {
    draw::Color from;
    draw::Color to;
    if (argc != 3 || !const_nonnull(0, DataType::kString) ||
        !const_nonnull(1, DataType::kString) || !numeric_ok(2) ||
        !parse_color(0, &from) || !parse_color(1, &to)) {
      return false;
    }
    Vec hex = MakeTypedVec(DataType::kString, n);
    for (size_t k = 0; k < n; ++k) {
      if (args[2].IsNull(k)) {
        hex.SetNull(k);
      } else {
        hex.strings[k] =
            draw::ColorToHex(draw::LerpColor(from, to, ReadDouble(args[2], k)));
      }
    }
    *out = std::move(hex);
    return true;
  }
  if (name == "point") {
    if (argc == 0) {
      *out = Vec::Const(wrap(draw::MakePoint()), n);
      return true;
    }
    draw::Color color;
    if (argc == 1 && const_nonnull(0, DataType::kString) &&
        parse_color(0, &color)) {
      *out = Vec::Const(wrap(draw::MakePoint(color)), n);
      return true;
    }
    if (argc != 1 || !parse_colors(0)) return false;
    return build_by_color(0, [&](size_t k) { return wrap(draw::MakePoint(colors[k])); });
  }
  if (name == "circle") {
    if (argc < 1 || !numeric_ok(0)) return false;
    if (argc == 1) {
      return build(
          [&](size_t k) { return wrap(draw::MakeCircle(ReadDouble(args[0], k))); });
    }
    if (!parse_colors(1)) return false;
    if (argc == 2) {
      return build_by_color(1, [&](size_t k) {
        return wrap(draw::MakeCircle(ReadDouble(args[0], k), colors[k]));
      });
    }
    if (argc == 3 && const_nonnull(2, DataType::kBool)) {
      const draw::FillMode fill = args[2].cval.bool_value()
                                      ? draw::FillMode::kFilled
                                      : draw::FillMode::kOutline;
      return build_by_color(1, [&](size_t k) {
        return wrap(draw::MakeCircle(ReadDouble(args[0], k), colors[k], fill));
      });
    }
    return false;
  }
  if (name == "rect") {
    if (argc < 2 || !numeric_ok(0) || !numeric_ok(1)) return false;
    if (argc == 2) {
      return build([&](size_t k) {
        return wrap(
            draw::MakeRectangle(ReadDouble(args[0], k), ReadDouble(args[1], k)));
      });
    }
    if (!parse_colors(2)) return false;
    if (argc == 3) {
      return build_by_color(2, [&](size_t k) {
        return wrap(draw::MakeRectangle(ReadDouble(args[0], k),
                                        ReadDouble(args[1], k), colors[k]));
      });
    }
    if (argc == 4 && const_nonnull(3, DataType::kBool)) {
      const draw::FillMode fill = args[3].cval.bool_value()
                                      ? draw::FillMode::kFilled
                                      : draw::FillMode::kOutline;
      return build_by_color(2, [&](size_t k) {
        return wrap(draw::MakeRectangle(ReadDouble(args[0], k),
                                        ReadDouble(args[1], k), colors[k], fill));
      });
    }
    return false;
  }
  if (name == "line") {
    if (argc < 2 || !numeric_ok(0) || !numeric_ok(1)) return false;
    if (argc == 2) {
      return build([&](size_t k) {
        return wrap(draw::MakeLine(ReadDouble(args[0], k), ReadDouble(args[1], k)));
      });
    }
    if (argc == 3 && parse_colors(2)) {
      return build_by_color(2, [&](size_t k) {
        return wrap(draw::MakeLine(ReadDouble(args[0], k), ReadDouble(args[1], k),
                                   colors[k]));
      });
    }
    return false;
  }
  if (name == "text") {
    if (argc < 2 || !string_ok(0) || !numeric_ok(1)) return false;
    const bool have_color = argc == 3;
    if (argc > 3 || (have_color && !parse_colors(2))) return false;
    // Dictionary splat: with a label column and a constant size and
    // colour, rows with the same code yield the same drawable — format each
    // distinct code once and share the DrawableList across its rows (sharing
    // is established practice: a kConst display Vec already shares one list).
    if (args[0].rep == Vec::Rep::kView && args[1].rep == Vec::Rep::kConst &&
        !args[1].cval.is_null() && (!have_color || args[2].rep == Vec::Rep::kConst)) {
      const db::ColumnVector& col = *args[0].view;
      const std::vector<std::string>& dict = *col.dict_values;
      const double size_arg = args[1].cval.AsDouble();
      std::vector<Value> per_code(dict.size());
      std::vector<Value> values;
      values.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        if (args[0].IsNull(k)) {
          values.push_back(Value::Null());
          continue;
        }
        const uint32_t code = col.dict_codes[(*args[0].view_sel)[k]];
        Value& cached = per_code[code];
        if (cached.is_null()) {
          cached = have_color
                       ? wrap(draw::MakeText(dict[code], size_arg, colors[k]))
                       : wrap(draw::MakeText(dict[code], size_arg));
        }
        values.push_back(cached);
      }
      ++BatchMetrics::Global().dict_simd_batches;
      *out = Vec::OwnedBoxed(std::move(values));
      PromoteIfUniform(out);
      return true;
    }
    if (have_color) {
      return build_by_color(2, [&](size_t k) {
        return wrap(draw::MakeText(ReadString(args[0], k), ReadDouble(args[1], k),
                                   colors[k]));
      });
    }
    return build([&](size_t k) {
      return wrap(draw::MakeText(ReadString(args[0], k), ReadDouble(args[1], k)));
    });
  }
  if (name == "offset" && argc == 3) {
    // The display operand stays boxed (DrawableLists are shared pointers);
    // the win is streaming the two offsets from typed vectors.
    if (!numeric_ok(1) || !numeric_ok(2)) return false;
    return build([&](size_t k) {
      return Value::Display(draw::CombineDrawableLists(
          draw::MakeDrawableList({}), args[0].ValueAt(k).display_value(),
          ReadDouble(args[1], k), ReadDouble(args[2], k)));
    });
  }
  return false;
}

}  // namespace

Result<Vec> BatchEvaluator::Eval(const ExprNode& node, const Selection& sel) {
  switch (node.kind) {
    case ExprNode::Kind::kLiteral:
      ++stats_.vectorized_nodes;
      return Vec::Const(node.literal, sel.size());
    case ExprNode::Kind::kAttributeRef:
      return EvalAttribute(node, sel);
    case ExprNode::Kind::kUnary: {
      TIOGA2_ASSIGN_OR_RETURN(Vec v, Eval(*node.children[0], sel));
      const size_t n = sel.size();
      if (v.rep == Vec::Rep::kConst) {
        ++stats_.vectorized_nodes;
        return Vec::Const(ApplyUnaryOp(node.unary_op, v.cval), n);
      }
      std::optional<DataType> t = UniformType(v);
      if (node.unary_op == UnaryOp::kNeg && t.has_value() && IsNumericType(*t)) {
        ++stats_.vectorized_nodes;
        Vec out = MakeTypedVec(*t, n);
        for (size_t k = 0; k < n; ++k) {
          if (v.IsNull(k)) {
            out.SetNull(k);
          } else if (*t == DataType::kInt) {
            out.ints[k] = IntArith(BinaryOp::kSub, 0, ReadInt(v, k));
          } else {
            out.floats[k] = -ReadDouble(v, k);
          }
        }
        return out;
      }
      if (node.unary_op == UnaryOp::kNot && t == DataType::kBool) {
        ++stats_.vectorized_nodes;
        Vec out = MakeTypedVec(DataType::kBool, n);
        for (size_t k = 0; k < n; ++k) {
          if (v.IsNull(k)) {
            out.SetNull(k);
          } else {
            out.bools[k] = ReadBool(v, k) ? 0 : 1;
          }
        }
        return out;
      }
      ++stats_.fallback_nodes;
      std::vector<Value> values;
      values.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        values.push_back(ApplyUnaryOp(node.unary_op, v.ValueAt(k)));
      }
      Vec out = Vec::OwnedBoxed(std::move(values));
      PromoteIfUniform(&out);
      return out;
    }
    case ExprNode::Kind::kBinary:
      if (node.binary_op == BinaryOp::kAnd || node.binary_op == BinaryOp::kOr) {
        return EvalAndOr(node, sel);
      }
      return EvalBinary(node, sel);
    case ExprNode::Kind::kCall:
      return EvalCall(node, sel);
  }
  return Status::Internal("unhandled node kind in BatchEvaluator");
}

Result<Vec> BatchEvaluator::EvalAttribute(const ExprNode& node, const Selection& sel) {
  if (node.stored_index.has_value()) {
    const db::ColumnVector* column = source_.StoredColumn(*node.stored_index);
    if (column != nullptr) {
      ++stats_.vectorized_nodes;
      Vec out;
      out.rep = Vec::Rep::kView;
      out.type = column->type;
      out.size = sel.size();
      out.view = column;
      out.view_sel = &sel;
      return out;
    }
    ++stats_.fallback_nodes;
    std::vector<Value> values;
    values.reserve(sel.size());
    for (uint32_t row : sel) {
      TIOGA2_ASSIGN_OR_RETURN(Value v, source_.StoredAt(*node.stored_index, row));
      values.push_back(std::move(v));
    }
    Vec out = Vec::OwnedBoxed(std::move(values));
    PromoteIfUniform(&out);
    return out;
  }
  // Computed attribute with a batchable definition: recurse into the
  // defining expression as a vector instead of boxing one Value per row.
  // The in-flight stack guards self-referential definitions — those take
  // the per-row path below, which reports the recursion error.
  const ExprNode* def = source_.NamedExpr(node.name);
  if (def != nullptr &&
      std::find(named_in_flight_.begin(), named_in_flight_.end(), node.name) ==
          named_in_flight_.end()) {
    named_in_flight_.push_back(node.name);
    Result<Vec> expanded = Eval(*def, sel);
    named_in_flight_.pop_back();
    if (expanded.ok()) {
      ++stats_.vectorized_nodes;
      return expanded;
    }
    // On error fall through: the per-row path reproduces the scalar
    // evaluator's message (success/failure always agrees, see class doc).
  }
  ++stats_.fallback_nodes;
  std::vector<Value> values;
  values.reserve(sel.size());
  for (uint32_t row : sel) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, source_.NamedAt(node.name, row));
    values.push_back(std::move(v));
  }
  Vec out = Vec::OwnedBoxed(std::move(values));
  PromoteIfUniform(&out);
  return out;
}

Result<Vec> BatchEvaluator::EvalBinary(const ExprNode& node, const Selection& sel) {
  TIOGA2_ASSIGN_OR_RETURN(Vec lhs, Eval(*node.children[0], sel));
  TIOGA2_ASSIGN_OR_RETURN(Vec rhs, Eval(*node.children[1], sel));
  return ApplyBinary(node.binary_op, std::move(lhs), std::move(rhs), sel.size());
}

Result<Vec> BatchEvaluator::ApplyBinary(BinaryOp op, Vec lhs, Vec rhs, size_t n) {
  // A null constant operand makes every comparison and arithmetic result
  // null (the scalar evaluator's null propagation).
  if ((lhs.rep == Vec::Rep::kConst && lhs.cval.is_null()) ||
      (rhs.rep == Vec::Rep::kConst && rhs.cval.is_null())) {
    ++stats_.vectorized_nodes;
    return Vec::Const(Value::Null(), n);
  }

  std::optional<DataType> lt = UniformType(lhs);
  std::optional<DataType> rt = UniformType(rhs);
  const bool both_numeric = lt.has_value() && rt.has_value() &&
                            IsNumericType(*lt) && IsNumericType(*rt);

  const bool is_comparison = IsComparison(op);

  // SIMD fast path: dense numeric comparisons and + - * / run as explicit
  // lane kernels (expr/simd/), bit-identical to the typed loops below.
  // Boxed operands and kMod fall through unchanged; sparse selections are
  // gathered dense first when selective enough (kSparseGatherDensity),
  // otherwise they fall through too.
  if (simd_level_ != static_cast<int>(simd::Level::kScalar) && both_numeric &&
      op != BinaryOp::kMod) {
    MaybeGatherSparse(&lhs, n);
    MaybeGatherSparse(&rhs, n);
    Vec out;
    if (simd::TryNumericBinary(static_cast<simd::Level>(simd_level_), op, lhs,
                               rhs, n, &out)) {
      ++stats_.vectorized_nodes;
      ++stats_.simd_nodes;
      BatchMetrics& m = BatchMetrics::Global();
      if (simd_level_ == static_cast<int>(simd::Level::kAVX2)) {
        ++m.simd_batches_avx2;
      } else {
        ++m.simd_batches_sse2;
      }
      m.simd_rows += n;
      return out;
    }
    ++BatchMetrics::Global().simd_scalar_fallbacks;
  }

  // Dictionary lowering: `string_column <cmp> constant` over a stored string
  // column becomes an integer comparison on its dictionary codes, read in
  // place through the selection: the constant resolves to a code-space
  // threshold once per batch. The bool bits are identical to the string
  // loop's because code order equals string order.
  if (is_comparison) {
    BinaryOp code_op = op;
    const Vec* col_side = &lhs;
    const Vec* const_side = &rhs;
    if (ConstantOnRight(&code_op, &col_side, &const_side) &&
        DictCompareOperand(*col_side) && const_side->cval.type() == DataType::kString) {
      int64_t code_const = 0;
      LowerDictCompare(*col_side->view->dict_values, code_op,
                       const_side->cval.string_value(), &code_op, &code_const);
      ++stats_.vectorized_nodes;
      ++BatchMetrics::Global().dict_simd_batches;
      const db::ColumnVector& col = *col_side->view;
      const Selection& rows = *col_side->view_sel;
      Vec out = MakeTypedVec(DataType::kBool, n);
      WithComparison(code_op, [&](auto kop) {
        for (size_t k = 0; k < n; ++k) {
          if (col.IsNull(rows[k])) {
            out.SetNull(k);
          } else {
            out.bools[k] = Holds<decltype(kop)::value>(
                static_cast<int64_t>(col.dict_codes[rows[k]]), code_const);
          }
        }
      });
      return out;
    }
    // Same comparable class on both sides → typed loop, under Holds' rules.
    enum class Cmp { kNumeric, kString, kDate, kBool, kNone };
    Cmp mode = Cmp::kNone;
    if (both_numeric) {
      mode = Cmp::kNumeric;
    } else if (lt == DataType::kString && rt == DataType::kString) {
      mode = Cmp::kString;
    } else if (lt == DataType::kDate && rt == DataType::kDate) {
      mode = Cmp::kDate;
    } else if (lt == DataType::kBool && rt == DataType::kBool) {
      mode = Cmp::kBool;
    }
    if (mode != Cmp::kNone) {
      ++stats_.vectorized_nodes;
      Vec out = MakeTypedVec(DataType::kBool, n);
      WithComparison(op, [&](auto kop) {
        constexpr BinaryOp kOp = decltype(kop)::value;
        for (size_t k = 0; k < n; ++k) {
          if (lhs.IsNull(k) || rhs.IsNull(k)) {
            out.SetNull(k);
            continue;
          }
          bool result = false;
          switch (mode) {
            case Cmp::kNumeric:
              result = Holds<kOp>(ReadDouble(lhs, k), ReadDouble(rhs, k));
              break;
            case Cmp::kString:
              result = Holds<kOp>(ReadString(lhs, k), ReadString(rhs, k));
              break;
            case Cmp::kDate:
              result = Holds<kOp>(ReadDateDays(lhs, k), ReadDateDays(rhs, k));
              break;
            case Cmp::kBool:
              result = Holds<kOp>(ReadBool(lhs, k), ReadBool(rhs, k));
              break;
            case Cmp::kNone:
              break;
          }
          out.bools[k] = result ? 1 : 0;
        }
      });
      return out;
    }
  } else if (both_numeric) {
    // Arithmetic over numeric vecs. The int/float decision comes from the
    // vecs' *runtime* types (not the analyzer), so an `if` that returned
    // Int where Float was declared still yields the same Value kinds as the
    // scalar evaluator.
    const bool both_int = *lt == DataType::kInt && *rt == DataType::kInt;
    if (op == BinaryOp::kAdd || op == BinaryOp::kSub || op == BinaryOp::kMul) {
      ++stats_.vectorized_nodes;
      Vec out = MakeTypedVec(both_int ? DataType::kInt : DataType::kFloat, n);
      for (size_t k = 0; k < n; ++k) {
        if (lhs.IsNull(k) || rhs.IsNull(k)) {
          out.SetNull(k);
          continue;
        }
        if (both_int) {
          out.ints[k] = IntArith(op, ReadInt(lhs, k), ReadInt(rhs, k));
        } else {
          double a = ReadDouble(lhs, k);
          double b = ReadDouble(rhs, k);
          out.floats[k] = op == BinaryOp::kAdd   ? a + b
                          : op == BinaryOp::kSub ? a - b
                                                 : a * b;
        }
      }
      return out;
    }
    if (op == BinaryOp::kDiv) {
      ++stats_.vectorized_nodes;
      Vec out = MakeTypedVec(DataType::kFloat, n);
      for (size_t k = 0; k < n; ++k) {
        if (lhs.IsNull(k) || rhs.IsNull(k)) {
          out.SetNull(k);
          continue;
        }
        double b = ReadDouble(rhs, k);
        if (b == 0) {
          out.SetNull(k);
        } else {
          out.floats[k] = ReadDouble(lhs, k) / b;
        }
      }
      return out;
    }
    if (op == BinaryOp::kMod && both_int) {
      ++stats_.vectorized_nodes;
      Vec out = MakeTypedVec(DataType::kInt, n);
      for (size_t k = 0; k < n; ++k) {
        if (lhs.IsNull(k) || rhs.IsNull(k)) {
          out.SetNull(k);
          continue;
        }
        int64_t b = ReadInt(rhs, k);
        if (b == 0) {
          out.SetNull(k);
        } else {
          out.ints[k] = IntArith(op, ReadInt(lhs, k), b);
        }
      }
      return out;
    }
  }

  // Uncovered operand combination (strings +, dates, display, mixed boxed):
  // element-wise through the shared scalar kernel.
  ++stats_.fallback_nodes;
  std::vector<Value> values;
  values.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, ApplyBinaryOp(op, lhs.ValueAt(k), rhs.ValueAt(k)));
    values.push_back(std::move(v));
  }
  Vec out = Vec::OwnedBoxed(std::move(values));
  PromoteIfUniform(&out);
  return out;
}

Result<Vec> BatchEvaluator::EvalAndOr(const ExprNode& node, const Selection& sel) {
  const BinaryOp op = node.binary_op;
  const bool is_and = op == BinaryOp::kAnd;
  TIOGA2_ASSIGN_OR_RETURN(Vec lhs, Eval(*node.children[0], sel));
  const size_t n = sel.size();

  // Rows where the left operand decides short-circuit past the right one,
  // so the right operand is evaluated only where the scalar evaluator would
  // evaluate it (same error surface, same cost profile).
  auto decisive = [&](size_t k) {
    if (lhs.IsNull(k)) return false;
    bool l = ReadBool(lhs, k);
    return is_and ? !l : l;
  };
  Selection need;
  for (size_t k = 0; k < n; ++k) {
    if (!decisive(k)) need.push_back(sel[k]);
  }

  ++stats_.vectorized_nodes;
  Vec out = MakeTypedVec(DataType::kBool, n);
  if (need.empty()) {
    for (size_t k = 0; k < n; ++k) out.bools[k] = is_and ? 0 : 1;
    return out;
  }
  TIOGA2_ASSIGN_OR_RETURN(Vec rhs, Eval(*node.children[1], need));
  // When no row was decisive the right operand is aligned with the left
  // (need == sel), and the whole three-valued merge can run as a SIMD
  // kernel. Any decisive row keeps the scalar merge below, preserving the
  // short-circuit contract row for row.
  if (simd_level_ != static_cast<int>(simd::Level::kScalar) &&
      need.size() == n) {
    if (simd::TryAndOrMerge(static_cast<simd::Level>(simd_level_), is_and, lhs,
                            rhs, n, &out)) {
      ++stats_.simd_nodes;
      BatchMetrics& m = BatchMetrics::Global();
      if (simd_level_ == static_cast<int>(simd::Level::kAVX2)) {
        ++m.simd_batches_avx2;
      } else {
        ++m.simd_batches_sse2;
      }
      m.simd_rows += n;
      return out;
    }
    ++BatchMetrics::Global().simd_scalar_fallbacks;
  }
  size_t ri = 0;
  for (size_t k = 0; k < n; ++k) {
    if (decisive(k)) {
      out.bools[k] = is_and ? 0 : 1;
      continue;
    }
    const bool lnull = lhs.IsNull(k);
    const bool rnull = rhs.IsNull(ri);
    const bool r = rnull ? false : ReadBool(rhs, ri);
    ++ri;
    if (is_and) {
      // Non-decisive lhs is null or true.
      if (!rnull && !r) {
        out.bools[k] = 0;
      } else if (lnull || rnull) {
        out.SetNull(k);
      } else {
        out.bools[k] = 1;
      }
    } else {
      // Non-decisive lhs is null or false.
      if (!rnull && r) {
        out.bools[k] = 1;
      } else if (lnull || rnull) {
        out.SetNull(k);
      } else {
        out.bools[k] = 0;
      }
    }
  }
  return out;
}

Result<Vec> BatchEvaluator::EvalCall(const ExprNode& node, const Selection& sel) {
  const size_t n = sel.size();
  if (node.name == "if") {
    TIOGA2_ASSIGN_OR_RETURN(Vec cond, Eval(*node.children[0], sel));
    Selection then_sel, else_sel;
    for (size_t k = 0; k < n; ++k) {
      if (cond.IsNull(k)) continue;
      (ReadBool(cond, k) ? then_sel : else_sel).push_back(sel[k]);
    }
    Vec then_vec, else_vec;
    if (!then_sel.empty()) {
      TIOGA2_ASSIGN_OR_RETURN(then_vec, Eval(*node.children[1], then_sel));
    }
    if (!else_sel.empty()) {
      TIOGA2_ASSIGN_OR_RETURN(else_vec, Eval(*node.children[2], else_sel));
    }
    ++stats_.vectorized_nodes;
    std::vector<Value> values;
    values.reserve(n);
    size_t ti = 0, ei = 0;
    for (size_t k = 0; k < n; ++k) {
      if (cond.IsNull(k)) {
        values.push_back(Value::Null());
      } else if (ReadBool(cond, k)) {
        values.push_back(then_vec.ValueAt(ti++));
      } else {
        values.push_back(else_vec.ValueAt(ei++));
      }
    }
    Vec out = Vec::OwnedBoxed(std::move(values));
    PromoteIfUniform(&out);
    return out;
  }
  if (node.name == "coalesce") {
    TIOGA2_ASSIGN_OR_RETURN(Vec first, Eval(*node.children[0], sel));
    Selection null_sel;
    for (size_t k = 0; k < n; ++k) {
      if (first.IsNull(k)) null_sel.push_back(sel[k]);
    }
    ++stats_.vectorized_nodes;
    if (null_sel.empty()) return first;
    TIOGA2_ASSIGN_OR_RETURN(Vec second, Eval(*node.children[1], null_sel));
    std::vector<Value> values;
    values.reserve(n);
    size_t si = 0;
    for (size_t k = 0; k < n; ++k) {
      if (first.IsNull(k)) {
        values.push_back(second.ValueAt(si++));
      } else {
        values.push_back(first.ValueAt(k));
      }
    }
    Vec out = Vec::OwnedBoxed(std::move(values));
    PromoteIfUniform(&out);
    return out;
  }

  const BuiltinOverload* overload = node.overload;
  if (overload == nullptr) {
    return Status::Internal("call to '" + node.name + "' was not analyzed");
  }
  std::vector<Vec> args;
  args.reserve(node.children.size());
  for (const ExprNodePtr& child : node.children) {
    TIOGA2_ASSIGN_OR_RETURN(Vec v, Eval(*child, sel));
    args.push_back(std::move(v));
  }
  {
    Vec display_out;
    if (TryEvalDisplayBuiltin(node, args, n, &display_out)) {
      ++stats_.vectorized_nodes;
      return display_out;
    }
  }
  // Builtins run element-wise on the vectorized operands.
  ++stats_.fallback_nodes;
  std::vector<Value> values;
  values.reserve(n);
  std::vector<Value> row_args(args.size());
  for (size_t k = 0; k < n; ++k) {
    bool null_arg = false;
    for (size_t a = 0; a < args.size(); ++a) {
      row_args[a] = args[a].ValueAt(k);
      if (row_args[a].is_null()) null_arg = true;
    }
    if (null_arg && !overload->null_opaque) {
      values.push_back(Value::Null());
      continue;
    }
    TIOGA2_ASSIGN_OR_RETURN(Value v, overload->eval(row_args));
    values.push_back(std::move(v));
  }
  Vec out = Vec::OwnedBoxed(std::move(values));
  PromoteIfUniform(&out);
  return out;
}

namespace {

/// Appends sel[k] for every lane k of `v` that is non-null true. A typed
/// bool vector compacts without a branch: every lane writes its row id one
/// past the survivors so far, and only a surviving lane advances the count.
/// Null lanes are masked by the bitmap rather than trusted to hold 0.
void AppendTrueLanes(const Vec& v, const Selection& sel, Selection* out) {
  const size_t n = sel.size();
  if (v.rep == Vec::Rep::kConst) {
    if (!v.cval.is_null() && v.cval.bool_value()) {
      out->insert(out->end(), sel.begin(), sel.end());
    }
    return;
  }
  if (v.rep != Vec::Rep::kOwned || v.is_boxed() || v.type != DataType::kBool) {
    for (size_t k = 0; k < n; ++k) {
      if (!v.IsNull(k) && ReadBool(v, k)) out->push_back(sel[k]);
    }
    return;
  }
  const size_t base = out->size();
  out->resize(base + n);
  uint32_t* dst = out->data() + base;
  const uint32_t* rows = sel.data();
  const uint8_t* lanes = v.bools.data();
  size_t m = 0;
  if (v.null_bits.empty()) {
    for (size_t k = 0; k < n; ++k) {
      dst[m] = rows[k];
      m += lanes[k] != 0;
    }
  } else {
    const uint64_t* nulls = v.null_bits.data();
    for (size_t k = 0; k < n; ++k) {
      dst[m] = rows[k];
      m += (lanes[k] != 0) & ~(nulls[k >> 6] >> (k & 63)) & 1;
    }
  }
  out->resize(base + m);
}

}  // namespace

Status BatchEvaluator::FilterTrue(const ExprNode& pred, const Selection& sel,
                                  Selection* out) {
  if (pred.kind == ExprNode::Kind::kBinary && pred.binary_op == BinaryOp::kAnd) {
    // Conjunct narrowing: rows rejected by the left conjunct never see the
    // right one. (A row where the left conjunct is null is also dropped:
    // null AND x is never true.)
    Selection left;
    TIOGA2_RETURN_IF_ERROR(FilterTrue(*pred.children[0], sel, &left));
    if (left.empty()) return Status::OK();
    return FilterTrue(*pred.children[1], left, out);
  }
  if (pred.kind == ExprNode::Kind::kBinary && pred.binary_op == BinaryOp::kOr) {
    Selection left_true;
    TIOGA2_RETURN_IF_ERROR(FilterTrue(*pred.children[0], sel, &left_true));
    Selection rest;
    rest.reserve(sel.size() - left_true.size());
    std::set_difference(sel.begin(), sel.end(), left_true.begin(), left_true.end(),
                        std::back_inserter(rest));
    Selection right_true;
    TIOGA2_RETURN_IF_ERROR(FilterTrue(*pred.children[1], rest, &right_true));
    const size_t base = out->size();
    out->resize(base + left_true.size() + right_true.size());
    std::merge(left_true.begin(), left_true.end(), right_true.begin(),
               right_true.end(), out->begin() + static_cast<ptrdiff_t>(base));
    return Status::OK();
  }
  if (pred.kind == ExprNode::Kind::kBinary && IsComparison(pred.binary_op)) {
    // A comparison leaf evaluates its operands once; a typed column against
    // a constant then keeps its rows in one loop, and any other shape
    // compares the same operands into bools and compacts them.
    TIOGA2_ASSIGN_OR_RETURN(Vec lhs, Eval(*pred.children[0], sel));
    TIOGA2_ASSIGN_OR_RETURN(Vec rhs, Eval(*pred.children[1], sel));
    if (AppendComparisonSurvivors(pred.binary_op, lhs, rhs, sel, out)) {
      ++stats_.vectorized_nodes;
      return Status::OK();
    }
    TIOGA2_ASSIGN_OR_RETURN(
        Vec v, ApplyBinary(pred.binary_op, std::move(lhs), std::move(rhs), sel.size()));
    AppendTrueLanes(v, sel, out);
    return Status::OK();
  }
  TIOGA2_ASSIGN_OR_RETURN(Vec v, Eval(pred, sel));
  AppendTrueLanes(v, sel, out);
  return Status::OK();
}

}  // namespace tioga2::expr
