#include "db/operators.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "expr/batch.h"

namespace tioga2::db {

using types::DataType;
using types::Value;

Result<bool> PredicateKeeps(const expr::CompiledExpr& predicate,
                            const expr::RowAccessor& row) {
  TIOGA2_ASSIGN_OR_RETURN(Value keep, predicate.Eval(row));
  return !keep.is_null() && keep.bool_value();
}

expr::TypeEnv SchemaEnv(const SchemaPtr& schema) {
  return [schema](const std::string& name) -> std::optional<expr::AttrInfo> {
    std::optional<size_t> index = schema->FindColumn(name);
    if (!index.has_value()) return std::nullopt;
    return expr::AttrInfo{schema->column(*index).type, *index};
  };
}

Result<expr::CompiledExpr> CompilePredicate(const SchemaPtr& schema,
                                            const std::string& predicate_source) {
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr predicate,
                          expr::CompiledExpr::Compile(predicate_source, SchemaEnv(schema)));
  if (predicate.result_type() != DataType::kBool) {
    return Status::TypeError("predicate '" + predicate_source + "' has type " +
                             types::DataTypeToString(predicate.result_type()) +
                             ", want bool");
  }
  return predicate;
}

Result<RelationPtr> Project(const RelationPtr& input,
                            const std::vector<std::string>& columns) {
  std::vector<size_t> indices;
  std::vector<Column> out_columns;
  indices.reserve(columns.size());
  for (const std::string& name : columns) {
    TIOGA2_ASSIGN_OR_RETURN(size_t index, input->schema()->ColumnIndex(name));
    indices.push_back(index);
    out_columns.push_back(input->schema()->column(index));
  }
  TIOGA2_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(out_columns)));
  RelationBuilder builder(std::make_shared<const Schema>(std::move(schema)));
  builder.Reserve(input->num_rows());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    Tuple out;
    out.reserve(indices.size());
    for (size_t index : indices) out.push_back(input->at(r, index));
    builder.AddRowUnchecked(std::move(out));
  }
  return builder.Build();
}

Result<RelationPtr> RestrictScalar(const RelationPtr& input,
                                   const expr::CompiledExpr& predicate) {
  if (predicate.result_type() != DataType::kBool) {
    return Status::TypeError("Restrict predicate must be bool");
  }
  expr::BatchMetrics::Global().restrict_scalar_rows += input->num_rows();
  RelationBuilder builder(input->schema());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    expr::TupleAccessor accessor(input->row(r));
    TIOGA2_ASSIGN_OR_RETURN(bool keep, PredicateKeeps(predicate, accessor));
    if (keep) builder.AddRowShared(input->row_ptr(r));
  }
  return builder.Build();
}

Result<std::vector<uint32_t>> RestrictSurvivors(const expr::BatchSource& source,
                                                const expr::ExprNode& predicate,
                                                const ExecPolicy& policy) {
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  const size_t n = source.num_rows();
  metrics.restrict_rows += n;
  // One evaluator filters [0, n) in kBatchSize batches, appending each
  // batch's survivors (ascending row ids) to one list.
  expr::BatchEvaluator evaluator(source, policy);
  expr::Selection sel;
  expr::Selection kept;
  kept.reserve(n);
  for (size_t b = 0; b < n; b += expr::kBatchSize) {
    expr::IdentitySelection(b, std::min(b + expr::kBatchSize, n), &sel);
    TIOGA2_RETURN_IF_ERROR(evaluator.FilterTrue(predicate, sel, &kept));
    ++metrics.restrict_batches;
  }
  metrics.nodes_vectorized += evaluator.stats().vectorized_nodes;
  metrics.nodes_fallback += evaluator.stats().fallback_nodes;
  // A selection view holds the list for as long as it is cached, so it is
  // handed over exactly sized.
  kept.shrink_to_fit();
  return kept;
}

Result<RelationPtr> Restrict(const RelationPtr& input,
                             const expr::CompiledExpr& predicate,
                             const ExecPolicy& policy) {
  if (!policy.vectorized) return RestrictScalar(input, predicate);
  if (predicate.result_type() != DataType::kBool) {
    return Status::TypeError("Restrict predicate must be bool");
  }
  expr::RelationBatchSource source(*input);
  TIOGA2_ASSIGN_OR_RETURN(expr::Selection kept,
                          RestrictSurvivors(source, predicate.root(), policy));
  // Surviving rows become a selection view over the input: no tuple is
  // copied, and columnar() gathers the survivors straight from the input's
  // typed columns.
  return Relation::MakeSelectionView(input, std::move(kept));
}

Result<RelationPtr> Restrict(const RelationPtr& input,
                             const std::string& predicate_source,
                             const ExecPolicy& policy) {
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr predicate,
                          CompilePredicate(input->schema(), predicate_source));
  return Restrict(input, predicate, policy);
}

Result<RelationPtr> Sample(const RelationPtr& input, double probability, uint64_t seed,
                           const ExecPolicy& policy) {
  // Written so that NaN fails too.
  if (!(probability >= 0.0 && probability <= 1.0)) {
    return Status::InvalidArgument("sampling probability must be in [0, 1], got " +
                                   std::to_string(probability));
  }
  // One draw per input row, in input order, on either path: the draw
  // sequence defines the output, so the loop stays serial.
  Rng rng(seed);
  if (policy.vectorized) {
    // The kept rows become a selection view, like Restrict's survivors: the
    // upstream row store is never built, and a consumer reads the base's
    // columns through the composed row map. Every row writes its id one past
    // the kept rows so far and only a kept row advances, so no branch
    // depends on a draw.
    const size_t n = input->num_rows();
    std::vector<uint32_t> kept(n);
    size_t m = 0;
    for (size_t r = 0; r < n; ++r) {
      kept[m] = static_cast<uint32_t>(r);
      m += rng.NextDouble() < probability;
    }
    kept.resize(m);
    kept.shrink_to_fit();  // the view holds only the kept rows while cached
    return Relation::MakeSelectionView(input, std::move(kept));
  }
  RelationBuilder builder(input->schema());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    if (rng.NextDouble() < probability) builder.AddRowShared(input->row_ptr(r));
  }
  return builder.Build();
}

Result<SchemaPtr> JoinOutputSchema(const SchemaPtr& left, const SchemaPtr& right) {
  std::vector<Column> columns = left->columns();
  for (const Column& column : right->columns()) {
    Column out = column;
    if (left->HasColumn(out.name)) out.name += "_2";
    columns.push_back(std::move(out));
  }
  TIOGA2_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(columns)));
  return std::make_shared<const Schema>(std::move(schema));
}

namespace {

/// If `predicate` is exactly `left_col = right_col` (one stored attribute on
/// each side of the join boundary), returns their indices for a hash join.
struct EquiJoinKey {
  size_t left_index;
  size_t right_index;  // index within the right relation
};

std::optional<EquiJoinKey> DetectEquiJoin(const expr::ExprNode& root,
                                          size_t left_width, size_t out_width) {
  if (root.kind != expr::ExprNode::Kind::kBinary ||
      root.binary_op != expr::BinaryOp::kEq) {
    return std::nullopt;
  }
  const expr::ExprNode& a = *root.children[0];
  const expr::ExprNode& b = *root.children[1];
  if (a.kind != expr::ExprNode::Kind::kAttributeRef ||
      b.kind != expr::ExprNode::Kind::kAttributeRef) {
    return std::nullopt;
  }
  if (!a.stored_index.has_value() || !b.stored_index.has_value()) return std::nullopt;
  size_t ai = *a.stored_index;
  size_t bi = *b.stored_index;
  if (ai >= out_width || bi >= out_width) return std::nullopt;
  if (ai < left_width && bi >= left_width) {
    return EquiJoinKey{ai, bi - left_width};
  }
  if (bi < left_width && ai >= left_width) {
    return EquiJoinKey{bi, ai - left_width};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Join-key hashing.
//
// Keys hash as a typed uint64_t over the canonical value — no per-row string
// allocation (the old text key cost one std::string per probe and per build
// row) and no narrowing casts (the old `d == static_cast<int64_t>(d)` test
// was undefined behavior for keys outside int64 range, and
// std::to_string(double)'s 6-digit rounding collided distinct float keys).
//
// The hash must be consistent with Value::Equals, which unifies numerics:
// `2` joins `2.0`. So int and float keys both hash their AsDouble() image
// (the int64→double conversion is well-defined for every value; ints beyond
// 2^53 that round to the same double also compare equal under Equals, so
// hashing the rounded image is exactly right). -0.0 is collapsed onto +0.0
// before hashing because they compare equal. Equal values therefore hash
// equal; distinct values may still collide and are resolved by a real
// equality check at probe time.

/// splitmix64 finalizer: a cheap full-avalanche mix.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Per-type seeds keep, say, Int(0) and Bool(false) from colliding by
// construction.
constexpr uint64_t kNumericSeed = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kBoolSeed = 0xa0761d6478bd642fULL;
constexpr uint64_t kDateSeed = 0xe7037ed1a0b428dbULL;
constexpr uint64_t kStringSeed = 0x8ebc6af09c88c6e3ULL;

inline uint64_t HashNumericKey(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 and +0.0 compare equal → must hash equal
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return MixHash(bits ^ kNumericSeed);
}

inline uint64_t HashStringKey(const std::string& s) {
  // FNV-1a, finalized through the mixer.
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return MixHash(h ^ kStringSeed);
}

/// Hash of a non-null scalar key (the row-store path).
uint64_t HashKeyValue(const Value& v) {
  switch (v.type()) {
    case DataType::kInt:
    case DataType::kFloat:
      return HashNumericKey(v.AsDouble());
    case DataType::kBool:
      return MixHash(kBoolSeed ^ (v.bool_value() ? 1 : 0));
    case DataType::kDate:
      return MixHash(kDateSeed ^ static_cast<uint64_t>(v.date_value().DaysValue()));
    case DataType::kString:
      return HashStringKey(v.string_value());
    case DataType::kDisplay:
      return HashStringKey(v.ToString());
  }
  return 0;
}

/// Hash of a non-null key cell of a typed column (the columnar path). Must
/// agree with HashKeyValue on every value — join_test checks the property.
uint64_t HashKeyCell(const ColumnVector& col, size_t row) {
  switch (col.type) {
    case DataType::kInt:
      return HashNumericKey(static_cast<double>(col.ints[row]));
    case DataType::kFloat:
      return HashNumericKey(col.floats[row]);
    case DataType::kBool:
      return MixHash(kBoolSeed ^ (col.bools[row] != 0 ? 1 : 0));
    case DataType::kDate:
      return MixHash(kDateSeed ^ static_cast<uint64_t>(col.dates[row]));
    case DataType::kString:
      return HashStringKey(col.string_at(row));
    case DataType::kDisplay:
      return HashStringKey(col.boxed[row].ToString());
  }
  return 0;
}

/// Equality of two non-null key cells, mirroring Value::Equals: numerics
/// compare as double across int/float, other types require matching type.
bool JoinCellsEqual(const ColumnVector& a, size_t ar, const ColumnVector& b,
                    size_t br) {
  const bool a_num = a.type == DataType::kInt || a.type == DataType::kFloat;
  const bool b_num = b.type == DataType::kInt || b.type == DataType::kFloat;
  if (a_num && b_num) {
    double x = a.type == DataType::kInt ? static_cast<double>(a.ints[ar]) : a.floats[ar];
    double y = b.type == DataType::kInt ? static_cast<double>(b.ints[br]) : b.floats[br];
    return x == y;
  }
  if (a.type != b.type) return false;
  switch (a.type) {
    case DataType::kBool:
      return a.bools[ar] == b.bools[br];
    case DataType::kString:
      return a.string_at(ar) == b.string_at(br);
    case DataType::kDate:
      return a.dates[ar] == b.dates[br];
    case DataType::kDisplay:
      return a.boxed[ar].Equals(b.boxed[br]);
    case DataType::kInt:
    case DataType::kFloat:
      break;  // handled above
  }
  return false;
}

/// Compact chained hash table over the build side's non-null key rows:
/// flat arrays, power-of-two buckets, no per-entry allocation. Entries are
/// inserted in *descending* build-row order so each bucket chain enumerates
/// candidates in ascending row order — one half of the left-major ordering
/// contract.
class JoinHashTable {
 public:
  template <typename IsNullFn, typename HashFn>
  void Build(size_t n, const IsNullFn& is_null, const HashFn& hash) {
    size_t buckets = 16;
    while (buckets < 2 * n) buckets <<= 1;
    mask_ = buckets - 1;
    head_.assign(buckets, kEnd);
    next_.reserve(n);
    hashes_.reserve(n);
    rows_.reserve(n);
    for (size_t i = n; i-- > 0;) {
      if (is_null(i)) continue;  // null keys never join
      const uint64_t h = hash(i);
      const size_t b = static_cast<size_t>(h) & mask_;
      next_.push_back(head_[b]);
      hashes_.push_back(h);
      rows_.push_back(static_cast<uint32_t>(i));
      head_[b] = static_cast<uint32_t>(rows_.size() - 1);
    }
  }

  /// Calls `match(build_row)` for every entry whose full hash equals `h`,
  /// in ascending build-row order.
  template <typename MatchFn>
  void ForEachCandidate(uint64_t h, const MatchFn& match) const {
    for (uint32_t e = head_[static_cast<size_t>(h) & mask_]; e != kEnd;
         e = next_[e]) {
      if (hashes_[e] == h) match(rows_[e]);
    }
  }

 private:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();
  size_t mask_ = 0;
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> rows_;
};

/// Matched (left row, right row) pairs, position-aligned.
struct JoinPairs {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
};

/// Stable counting sort of the pairs by left row id. Probing emits pairs
/// grouped by probe row, so when the probe side was the *right* input the
/// pair list is right-major and must be reordered; stability keeps right ids
/// ascending within each left id (the probe scanned them in order).
void ReorderLeftMajor(size_t left_num_rows, JoinPairs* pairs) {
  std::vector<uint32_t> offsets(left_num_rows + 1, 0);
  for (uint32_t l : pairs->left) ++offsets[l + 1];
  for (size_t i = 1; i <= left_num_rows; ++i) offsets[i] += offsets[i - 1];
  std::vector<uint32_t> left(pairs->left.size());
  std::vector<uint32_t> right(pairs->right.size());
  for (size_t k = 0; k < pairs->left.size(); ++k) {
    const uint32_t pos = offsets[pairs->left[k]]++;
    left[pos] = pairs->left[k];
    right[pos] = pairs->right[k];
  }
  pairs->left = std::move(left);
  pairs->right = std::move(right);
}

/// Builds on one side, probes with the other, and returns matches in
/// left-major order regardless of which side was built — the build-side
/// choice is a cost heuristic and must never show up in output order (the
/// old implementation emitted probe-major rows, so the order flipped when an
/// update grew one input past the other).
template <typename BuildNull, typename BuildHash, typename ProbeNull,
          typename ProbeHash, typename EqualFn>
JoinPairs HashJoinPairs(size_t left_num_rows, size_t build_num_rows,
                        size_t probe_num_rows, bool build_left,
                        const BuildNull& build_null, const BuildHash& build_hash,
                        const ProbeNull& probe_null, const ProbeHash& probe_hash,
                        const EqualFn& equal) {
  // One build table and one ascending scan of the probe rows, so pairs come
  // out grouped by probe row, in probe-row order.
  JoinHashTable table;
  table.Build(build_num_rows, build_null, build_hash);
  // With unique build keys, as in a key-to-foreign-key join, each probe row
  // joins at most once, so this much room spares that case regrowth copies.
  JoinPairs pairs;
  pairs.left.reserve(probe_num_rows);
  pairs.right.reserve(probe_num_rows);
  for (size_t j = 0; j < probe_num_rows; ++j) {
    if (probe_null(j)) continue;
    const uint64_t h = probe_hash(j);
    table.ForEachCandidate(h, [&](uint32_t i) {
      // Hash collisions are resolved by a real equality check.
      if (!equal(i, j)) return;
      if (build_left) {
        pairs.left.push_back(i);
        pairs.right.push_back(static_cast<uint32_t>(j));
      } else {
        pairs.left.push_back(static_cast<uint32_t>(j));
        pairs.right.push_back(i);
      }
    });
  }
  // A join view holds the pairs for as long as it is cached, so they are
  // handed over exactly sized; the reorder writes exactly sized copies.
  if (build_left) {
    ReorderLeftMajor(left_num_rows, &pairs);
  } else {
    pairs.left.shrink_to_fit();
    pairs.right.shrink_to_fit();
  }
  return pairs;
}

Tuple ConcatTuples(const Tuple& left, const Tuple& right) {
  Tuple out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Result<RelationPtr> RunNestedLoop(const RelationPtr& left, const RelationPtr& right,
                                  const SchemaPtr& out_schema,
                                  const expr::CompiledExpr& predicate) {
  RelationBuilder builder(out_schema);
  for (size_t l = 0; l < left->num_rows(); ++l) {
    const Tuple& lrow = left->row(l);
    for (size_t r = 0; r < right->num_rows(); ++r) {
      Tuple combined = ConcatTuples(lrow, right->row(r));
      expr::TupleAccessor accessor(combined);
      TIOGA2_ASSIGN_OR_RETURN(bool keep, PredicateKeeps(predicate, accessor));
      if (keep) builder.AddRowUnchecked(std::move(combined));
    }
  }
  return builder.Build();
}

/// BatchSource over one slice of the cross product: a fixed left row against
/// every right row. Right columns borrow the right relation's columnar view;
/// left columns materialize lazily as splats of the fixed left cell (only
/// the columns the predicate actually references get splatted).
class CrossBlockSource : public expr::BatchSource {
 public:
  CrossBlockSource(const Relation& left, const Relation& right)
      : left_(left),
        right_(right),
        left_width_(left.schema()->num_columns()),
        splats_(left_width_) {}

  void SetLeftRow(size_t row) {
    left_row_ = row;
    for (auto& splat : splats_) splat.reset();
  }

  size_t num_rows() const override { return right_.num_rows(); }

  const ColumnVector* StoredColumn(size_t index) const override {
    if (index >= left_width_) {
      return &right_.columnar().column(index - left_width_);
    }
    std::unique_ptr<ColumnVector>& splat = splats_[index];
    if (splat == nullptr) {
      splat = std::make_unique<ColumnVector>(SplatCell(
          left_.columnar().column(index), left_row_, right_.num_rows()));
    }
    return splat.get();
  }

  Result<Value> StoredAt(size_t index, size_t row) const override {
    if (index < left_width_) return left_.at(left_row_, index);
    return right_.at(row, index - left_width_);
  }

  Result<Value> NamedAt(const std::string& name, size_t) const override {
    return Status::NotFound("no computed attribute '" + name +
                            "' on a join input");
  }

 private:
  const Relation& left_;
  const Relation& right_;
  size_t left_width_;
  size_t left_row_ = 0;
  mutable std::vector<std::unique_ptr<ColumnVector>> splats_;
};

/// Vectorized nested loop: the predicate runs through expr::BatchEvaluator
/// over kBatchSize blocks of right rows per left row, the way Restrict
/// batches. Output order (left-major) matches the scalar nested loop.
Result<RelationPtr> RunNestedLoopBatched(const RelationPtr& left,
                                         const RelationPtr& right,
                                         const SchemaPtr& out_schema,
                                         const expr::CompiledExpr& predicate,
                                         const ExecPolicy& policy) {
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  const size_t right_rows = right->num_rows();
  CrossBlockSource source(*left, *right);
  expr::BatchEvaluator evaluator(source, policy);
  JoinPairs pairs;
  expr::Selection sel;
  for (size_t l = 0; l < left->num_rows(); ++l) {
    source.SetLeftRow(l);
    for (size_t begin = 0; begin < right_rows; begin += expr::kBatchSize) {
      expr::IdentitySelection(begin, std::min(begin + expr::kBatchSize, right_rows),
                              &sel);
      TIOGA2_RETURN_IF_ERROR(
          evaluator.FilterTrue(predicate.root(), sel, &pairs.right));
      ++metrics.join_nested_batches;
    }
    pairs.left.resize(pairs.right.size(), static_cast<uint32_t>(l));
  }
  metrics.nodes_vectorized += evaluator.stats().vectorized_nodes;
  metrics.nodes_fallback += evaluator.stats().fallback_nodes;
  // Left-major, like the scalar double loop. A join view holds the pairs for
  // as long as it is cached, so they are handed over exactly sized.
  pairs.left.shrink_to_fit();
  pairs.right.shrink_to_fit();
  return Relation::MakeJoinView(out_schema, left, std::move(pairs.left), right,
                                std::move(pairs.right));
}

// Row ids in views and selections are uint32.
constexpr size_t kMaxJoinRows = std::numeric_limits<uint32_t>::max();

}  // namespace

Result<JoinResult> Join(const RelationPtr& left, const RelationPtr& right,
                        const std::string& predicate_source,
                        const ExecPolicy& policy) {
  if (left->num_rows() > kMaxJoinRows || right->num_rows() > kMaxJoinRows) {
    return Status::InvalidArgument("join input exceeds 2^32-1 rows");
  }
  TIOGA2_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                          JoinOutputSchema(left->schema(), right->schema()));
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr predicate,
                          CompilePredicate(out_schema, predicate_source));

  std::optional<EquiJoinKey> key = DetectEquiJoin(
      predicate.root(), left->schema()->num_columns(), out_schema->num_columns());
  if (!key.has_value()) {
    TIOGA2_ASSIGN_OR_RETURN(
        RelationPtr rel,
        policy.vectorized ? RunNestedLoopBatched(left, right, out_schema, predicate, policy)
                          : RunNestedLoop(left, right, out_schema, predicate));
    return JoinResult{std::move(rel), JoinAlgorithm::kNestedLoop};
  }

  // Hash join: build on the smaller input, probe with the larger. The
  // build-side choice only affects cost — HashJoinPairs emits left-major
  // order either way.
  const bool build_left = left->num_rows() <= right->num_rows();
  const RelationPtr& build = build_left ? left : right;
  const RelationPtr& probe = build_left ? right : left;
  const size_t build_key = build_left ? key->left_index : key->right_index;
  const size_t probe_key = build_left ? key->right_index : key->left_index;

  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  if (policy.vectorized) {
    // Columnar path: hash typed key cells straight out of the inputs'
    // column vectors and emit a join view — no tuple is materialized and no
    // Value is boxed anywhere on this path.
    metrics.join_hash_build_rows += build->num_rows();
    metrics.join_hash_probe_rows += probe->num_rows();
    const ColumnVector& bcol = build->columnar().column(build_key);
    const ColumnVector& pcol = probe->columnar().column(probe_key);
    JoinPairs pairs;
    if (bcol.type == DataType::kString && pcol.type == DataType::kString) {
      // String keys join on dictionary codes, never the strings. Codes are
      // only comparable within one dictionary, so when the sides' tables
      // differ the build side's codes are remapped onto probe-side codes
      // once (one binary search per *distinct* build value); a build value
      // absent from the probe dictionary can never match any probe row, so
      // its rows are skipped like null keys. Code equality ⇔ string
      // equality after the remap.
      constexpr uint32_t kNoMatch = std::numeric_limits<uint32_t>::max();
      const bool shared = bcol.dict_values == pcol.dict_values;
      std::vector<uint32_t> remap;
      if (!shared) {
        const std::vector<std::string>& bdict = *bcol.dict_values;
        const std::vector<std::string>& pdict = *pcol.dict_values;
        remap.resize(bdict.size(), kNoMatch);
        for (size_t c = 0; c < bdict.size(); ++c) {
          const auto it = std::lower_bound(pdict.begin(), pdict.end(), bdict[c]);
          if (it != pdict.end() && *it == bdict[c]) {
            remap[c] = static_cast<uint32_t>(it - pdict.begin());
          }
        }
      }
      auto build_code = [&](size_t i) {
        const uint32_t c = bcol.dict_codes[i];
        return shared ? c : remap[c];
      };
      pairs = HashJoinPairs(
          left->num_rows(), build->num_rows(), probe->num_rows(), build_left,
          [&](size_t i) { return bcol.IsNull(i) || build_code(i) == kNoMatch; },
          [&](size_t i) { return MixHash(kStringSeed ^ build_code(i)); },
          [&](size_t j) { return pcol.IsNull(j); },
          [&](size_t j) { return MixHash(kStringSeed ^ pcol.dict_codes[j]); },
          [&](size_t i, size_t j) { return build_code(i) == pcol.dict_codes[j]; });
    } else {
      pairs = HashJoinPairs(
          left->num_rows(), build->num_rows(), probe->num_rows(), build_left,
          [&](size_t i) { return bcol.IsNull(i); },
          [&](size_t i) { return HashKeyCell(bcol, i); },
          [&](size_t j) { return pcol.IsNull(j); },
          [&](size_t j) { return HashKeyCell(pcol, j); },
          [&](size_t i, size_t j) { return JoinCellsEqual(bcol, i, pcol, j); });
    }
    RelationPtr rel =
        Relation::MakeJoinView(std::move(out_schema), left, std::move(pairs.left),
                               right, std::move(pairs.right));
    return JoinResult{std::move(rel), JoinAlgorithm::kHash};
  }

  // Scalar oracle path: hash Values tuple-at-a-time, materialize rows.
  JoinPairs pairs = HashJoinPairs(
      left->num_rows(), build->num_rows(), probe->num_rows(), build_left,
      [&](size_t i) { return build->at(i, build_key).is_null(); },
      [&](size_t i) { return HashKeyValue(build->at(i, build_key)); },
      [&](size_t j) { return probe->at(j, probe_key).is_null(); },
      [&](size_t j) { return HashKeyValue(probe->at(j, probe_key)); },
      [&](size_t i, size_t j) {
        return build->at(i, build_key).Equals(probe->at(j, probe_key));
      });
  RelationBuilder builder(out_schema);
  builder.Reserve(pairs.left.size());
  for (size_t k = 0; k < pairs.left.size(); ++k) {
    builder.AddRowUnchecked(
        ConcatTuples(left->row(pairs.left[k]), right->row(pairs.right[k])));
  }
  return JoinResult{builder.Build(), JoinAlgorithm::kHash};
}

Result<RelationPtr> NestedLoopJoin(const RelationPtr& left, const RelationPtr& right,
                                   const std::string& predicate_source,
                                   const ExecPolicy& policy) {
  if (left->num_rows() > kMaxJoinRows || right->num_rows() > kMaxJoinRows) {
    return Status::InvalidArgument("join input exceeds 2^32-1 rows");
  }
  TIOGA2_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                          JoinOutputSchema(left->schema(), right->schema()));
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr predicate,
                          CompilePredicate(out_schema, predicate_source));
  return policy.vectorized ? RunNestedLoopBatched(left, right, out_schema, predicate, policy)
                           : RunNestedLoop(left, right, out_schema, predicate);
}

Result<RelationPtr> Sort(const RelationPtr& input, const std::string& column,
                         bool ascending, const ExecPolicy& policy) {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, input->schema()->ColumnIndex(column));
  if (input->schema()->column(index).type == DataType::kDisplay) {
    return Status::TypeError("cannot sort by a display column");
  }
  if (policy.vectorized) {
    // Sort key extraction through the columnar view: one typed column scan
    // instead of a Value variant dispatch per comparison. The permutation
    // becomes a selection view — no tuple is copied or re-referenced.
    const ColumnVector& col = input->columnar().column(index);
    ++expr::BatchMetrics::Global().sort_key_batches;
    std::vector<uint32_t> order(input->num_rows());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      int cmp = CompareCells(col, a, b);
      return ascending ? cmp < 0 : cmp > 0;
    });
    return Relation::MakeSelectionView(input, std::move(order));
  }
  ++expr::BatchMetrics::Global().sort_scalar_fallbacks;
  std::vector<size_t> order(input->num_rows());
  std::iota(order.begin(), order.end(), 0);
  Status failure = Status::OK();
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    Result<int> cmp = input->at(a, index).Compare(input->at(b, index));
    if (!cmp.ok()) {
      if (failure.ok()) failure = cmp.status();
      return false;
    }
    return ascending ? cmp.value() < 0 : cmp.value() > 0;
  });
  TIOGA2_RETURN_IF_ERROR(failure);
  RelationBuilder builder(input->schema());
  builder.Reserve(input->num_rows());
  for (size_t i : order) builder.AddRowShared(input->row_ptr(i));
  return builder.Build();
}

Result<RelationPtr> Limit(const RelationPtr& input, size_t n,
                          const ExecPolicy& policy) {
  const size_t count = std::min(n, input->num_rows());
  if (policy.vectorized) {
    std::vector<uint32_t> prefix(count);
    std::iota(prefix.begin(), prefix.end(), 0u);
    return Relation::MakeSelectionView(input, std::move(prefix));
  }
  RelationBuilder builder(input->schema());
  builder.Reserve(count);
  for (size_t i = 0; i < count; ++i) builder.AddRowShared(input->row_ptr(i));
  return builder.Build();
}

}  // namespace tioga2::db
