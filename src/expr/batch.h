#ifndef TIOGA2_EXPR_BATCH_H_
#define TIOGA2_EXPR_BATCH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/columnar.h"
#include "db/exec_policy.h"
#include "expr/ast.h"

namespace tioga2::expr {

/// Row ids (into a BatchSource's row domain), always in ascending order.
/// Operators evaluate expressions over a selection and narrow it as
/// predicates eliminate rows, so no tuples are copied until a row survives
/// the whole predicate.
using Selection = std::vector<uint32_t>;

/// Fills `sel` with [begin, end).
void IdentitySelection(size_t begin, size_t end, Selection* sel);

/// The result of evaluating one expression node over a selection.
///
/// Element k always corresponds to row sel[k] of the selection the Vec was
/// evaluated under. Three representations:
///   kConst — one Value for every selected row (literals, null-propagation).
///   kView  — borrows a ColumnVector; element k is view->…[(*view_sel)[k]].
///            Zero-copy leaf for stored attribute references.
///   kOwned — typed vectors (or boxed Values) of length size(), materialized
///            by a kernel. `type` is meaningful only when boxed is empty.
///
/// Invariant: a typed kOwned/kView Vec holds exactly the runtime types the
/// scalar evaluator would have produced for those rows — kernels must never
/// widen Int results to Float (or vice versa), because downstream both_int
/// arithmetic decisions and memoized fingerprints depend on runtime types.
struct Vec {
  enum class Rep { kConst, kView, kOwned };

  Rep rep = Rep::kConst;
  types::DataType type = types::DataType::kBool;
  size_t size = 0;

  // kConst
  types::Value cval;

  // kView
  const db::ColumnVector* view = nullptr;
  const Selection* view_sel = nullptr;

  // kOwned. null_bits empty means no nulls; bit k of word k/64 set = null.
  std::vector<uint64_t> null_bits;
  std::vector<uint8_t> bools;
  std::vector<int64_t> ints;
  std::vector<double> floats;
  std::vector<std::string> strings;
  std::vector<int64_t> dates;
  // Non-empty boxed makes this a boxed Vec: per-element runtime types may
  // differ (e.g. an `if` whose branches return Int and Float).
  std::vector<types::Value> boxed;

  bool is_boxed() const { return rep == Rep::kOwned && !boxed.empty(); }
  bool IsNull(size_t k) const;
  /// Reconstructs the Value for element k, bit-identical to what the scalar
  /// evaluator returns for row sel[k].
  types::Value ValueAt(size_t k) const;

  static Vec Const(types::Value v, size_t n);
  static Vec OwnedBoxed(std::vector<types::Value> values);

  void SetNull(size_t k);
};

/// Supplies attribute columns (and per-row fallbacks) to a BatchEvaluator —
/// the batch analogue of RowAccessor. The relation layer implements it over
/// a Relation's columnar() view; the display layer adds transformed stored
/// columns and computed ("method") attributes.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  /// Rows in the underlying domain; selections index [0, num_rows()).
  virtual size_t num_rows() const = 0;

  /// Typed column for stored attribute `index`, or nullptr when no columnar
  /// form exists (the evaluator then gathers per row via StoredAt).
  virtual const db::ColumnVector* StoredColumn(size_t index) const = 0;

  /// Scalar value of stored attribute `index` at `row`.
  virtual Result<types::Value> StoredAt(size_t index, size_t row) const = 0;

  /// Scalar value of the computed attribute `name` at `row`.
  virtual Result<types::Value> NamedAt(const std::string& name, size_t row) const = 0;

  /// The defining expression of computed attribute `name`, when it is a plain
  /// expression over this same source (no per-row state, no coordinate
  /// transform) — the evaluator then recurses into it as a vector instead of
  /// calling NamedAt per row. nullptr (the default) means "no batchable
  /// definition"; correctness never depends on this hook, only fallback
  /// counts do.
  virtual const ExprNode* NamedExpr(const std::string& /*name*/) const {
    return nullptr;
  }
};

/// BatchSource over a plain relation: stored columns come straight from
/// Relation::columnar(); there are no computed attributes.
class RelationBatchSource : public BatchSource {
 public:
  /// `relation` must outlive the source.
  explicit RelationBatchSource(const db::Relation& relation) : relation_(relation) {}

  size_t num_rows() const override;
  const db::ColumnVector* StoredColumn(size_t index) const override;
  Result<types::Value> StoredAt(size_t index, size_t row) const override;
  Result<types::Value> NamedAt(const std::string& name, size_t row) const override;

 private:
  const db::Relation& relation_;
};

/// Process-wide counters for the vectorized path, surfaced through
/// runtime::Metrics::ToJson under "batch_eval". Counters are atomic so
/// concurrent sessions can record freely;
/// Reset() zeroes them (runtime::Metrics::Reset calls it).
struct BatchMetrics {
  std::atomic<uint64_t> restrict_batches{0};
  std::atomic<uint64_t> restrict_rows{0};
  std::atomic<uint64_t> restrict_scalar_rows{0};
  // Rows grouped by the TupleKey row loop (the scalar policy, or keys the
  // columnar group-by declines).
  std::atomic<uint64_t> group_by_scalar_rows{0};
  std::atomic<uint64_t> sort_key_batches{0};
  std::atomic<uint64_t> sort_scalar_fallbacks{0};
  std::atomic<uint64_t> display_attr_batches{0};
  std::atomic<uint64_t> display_attr_rows{0};
  std::atomic<uint64_t> render_location_batches{0};
  std::atomic<uint64_t> render_scalar_fallbacks{0};
  std::atomic<uint64_t> join_hash_build_rows{0};
  std::atomic<uint64_t> join_hash_probe_rows{0};
  std::atomic<uint64_t> join_nested_batches{0};
  std::atomic<uint64_t> nodes_vectorized{0};
  std::atomic<uint64_t> nodes_fallback{0};
  // SIMD kernel dispatch (see expr/simd/): node-batches served by each tier,
  // rows they covered, and simd-eligible node-batches that fell back to the
  // typed loops (sparse selection, boxed operands, unsupported op).
  std::atomic<uint64_t> simd_batches_sse2{0};
  std::atomic<uint64_t> simd_batches_avx2{0};
  std::atomic<uint64_t> simd_rows{0};
  std::atomic<uint64_t> simd_scalar_fallbacks{0};
  // Dictionary-encoded string execution (db/columnar.h): string columns that
  // built a dictionary at materialization, node-batches served from
  // dictionary codes (string comparisons lowered to code comparisons,
  // text() distinct-code splats), and sparse selections gathered dense
  // before a SIMD kernel.
  std::atomic<uint64_t> dict_columns_built{0};
  std::atomic<uint64_t> dict_simd_batches{0};
  std::atomic<uint64_t> sparse_gathers{0};
  // Read by interaction_bench/workload.cc only; nothing bumps it.
  std::atomic<uint64_t> morsels_executed{0};

  static BatchMetrics& Global();
  void Reset();
};

/// Evaluates a checked expression tree over column batches.
///
/// Covered node kinds run as typed loops (comparisons and arithmetic over
/// int/float columns, three-valued and/or, string equality, if/coalesce with
/// need-based branch evaluation). Anything else — builtin calls, computed
/// attributes, date/string/display operators — degrades gracefully: operands
/// are still evaluated as vectors, and the node applies the *same* scalar
/// kernels (ApplyUnaryOp / ApplyBinaryOp / the builtin's eval) element-wise
/// on boxed Values. Results are therefore bit-identical to EvalExpr in all
/// cases; see tests/batch_eval_test.cc for the property test.
///
/// Error reporting caveat: when several rows of a batch would fail, the
/// scalar evaluator reports the error of the first failing *row*, while the
/// batch evaluator reports the first failing row of the first failing
/// *operand*. Success/failure always agrees; only the message can differ.
class BatchEvaluator {
 public:
  /// `source` must outlive the evaluator; dispatch follows the process-wide
  /// default ExecPolicy.
  explicit BatchEvaluator(const BatchSource& source);

  /// `source` must outlive the evaluator. `policy.simd` picks the SIMD tier
  /// for the typed kernels (resolved once against the build and CPU; see
  /// expr/simd/simd.h). Policies never change results, only how they are
  /// computed.
  BatchEvaluator(const BatchSource& source, const db::ExecPolicy& policy);

  /// Evaluates `node` for the rows in `sel`. The result is aligned with
  /// `sel` (element k ↔ row sel[k]).
  Result<Vec> Eval(const ExprNode& node, const Selection& sel);

  /// Appends to `*out` the rows of `sel` for which `pred` is non-null true,
  /// in order. kAnd narrows the selection between conjuncts (rows failing
  /// the left conjunct never evaluate the right one — the batch analogue of
  /// short-circuiting); kOr merges the true-sets of both branches,
  /// evaluating the right branch only on rows the left did not already
  /// accept. A comparison of a typed column (float, int or dictionary-string
  /// view, or owned int or float vector) with a non-null constant compares
  /// and keeps each row in one branch-free loop; any other typed bool result
  /// is compacted branch-free.
  Status FilterTrue(const ExprNode& pred, const Selection& sel, Selection* out);

  struct Stats {
    uint64_t vectorized_nodes = 0;  // nodes executed as typed loops
    uint64_t fallback_nodes = 0;    // nodes executed element-wise on Values
    uint64_t simd_nodes = 0;        // typed-loop nodes served by SIMD kernels
  };
  const Stats& stats() const { return stats_; }

 private:
  Result<Vec> EvalBinary(const ExprNode& node, const Selection& sel);
  /// `op` (not and/or) over operands already evaluated under an n-row
  /// selection.
  Result<Vec> ApplyBinary(BinaryOp op, Vec lhs, Vec rhs, size_t n);
  Result<Vec> EvalAndOr(const ExprNode& node, const Selection& sel);
  Result<Vec> EvalCall(const ExprNode& node, const Selection& sel);
  Result<Vec> EvalAttribute(const ExprNode& node, const Selection& sel);

  const BatchSource& source_;
  int simd_level_ = 0;  // resolved simd::Level, stored as int to keep
                        // expr/simd/simd.h out of this header
  // Computed attributes currently being expanded through NamedExpr — guards
  // against self-referential definitions (those fall back to NamedAt, which
  // reports the recursion error the scalar path reports).
  std::vector<std::string> named_in_flight_;
  Stats stats_;
};

/// Batch size used by the vectorized operators: large enough to amortize
/// per-batch setup, small enough that a batch's columns stay cache-resident.
inline constexpr size_t kBatchSize = 4096;

}  // namespace tioga2::expr

#endif  // TIOGA2_EXPR_BATCH_H_
