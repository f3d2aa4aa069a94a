#ifndef TIOGA2_DB_RELATION_H_
#define TIOGA2_DB_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/columnar.h"
#include "db/schema.h"
#include "types/value.h"

namespace tioga2::db {

/// One row: values positionally aligned with a Schema.
using Tuple = std::vector<types::Value>;

/// Shared immutable row. Tuples are never mutated after a relation is built,
/// so code that keeps a surviving row shares the pointer instead of copying
/// the values: the scalar paths of Restrict, Sort, Limit and Sample, the
/// delta splice helpers, and a selection view that materializes its row
/// store. Copying a demo-station row costs two string allocations, sharing
/// it costs one refcount bump (ROADMAP "Cheaper tuple materialization").
using TuplePtr = std::shared_ptr<const Tuple>;

class Relation;
using RelationPtr = std::shared_ptr<const Relation>;

/// An in-memory relation. Relations are built once via RelationBuilder (or
/// derived as a view, below) and immutable afterwards; all query operators
/// produce new relations. This gives the dataflow engine's memoization (the
/// basis of the paper's "immediate visual feedback") value semantics for
/// free.
///
/// A relation exists in one of two forms:
///
///   * **Materialized** — owns a row store of shared tuples. This is what
///     RelationBuilder produces and what every scalar (`policy.vectorized ==
///     false`) operator path emits; it is the byte-identity oracle the
///     vectorized paths are property-tested against.
///   * **View** — a selection over one parent (the vectorized paths of
///     Restrict, Sample and Limit: the kept row ids; Sort: a permutation)
///     or a gather over two parents (the columnar hash/nested-loop join:
///     aligned left/right row ids, output row k being
///     left[left_rows[k]] ++ right[right_rows[k]]). Views hold their parents
///     alive via shared_ptr and materialize a row store lazily, on first
///     row-wise access: a single-parent view shares the parent's TuplePtrs
///     (pointer copies), a join view concatenates once. `at()` and
///     `columnar()` never materialize rows — `columnar()` gathers typed
///     column vectors directly through the selection from the parents'
///     columnar views.
///
/// Both forms hold exactly the same values: fingerprints, stamps, ToString
/// and RelationEquals cannot tell them apart (see DESIGN.md "Join
/// execution" for the lifetime rules).
class Relation {
 public:
  /// An empty materialized relation over `schema`.
  explicit Relation(SchemaPtr schema) : schema_(std::move(schema)) {}

  /// A view selecting rows `rows` of `parent`, in order (duplicates allowed:
  /// Sort emits a permutation, Restrict a subsequence). Shares the parent's
  /// schema.
  static RelationPtr MakeSelectionView(RelationPtr parent,
                                       std::vector<uint32_t> rows);

  /// A join view over `schema` (= left columns then right columns): row k is
  /// the concatenation of left[left_rows[k]] and right[right_rows[k]]. The
  /// two row vectors must have equal length.
  static RelationPtr MakeJoinView(SchemaPtr schema, RelationPtr left,
                                  std::vector<uint32_t> left_rows,
                                  RelationPtr right,
                                  std::vector<uint32_t> right_rows);

  /// The schema. Never null.
  const SchemaPtr& schema() const { return schema_; }

  size_t num_rows() const {
    return is_view() ? left_rows_.size() : rows_.size();
  }
  size_t num_columns() const { return schema_->num_columns(); }

  /// True when this relation is a selection/join view over parent
  /// relations (its row store materializes lazily).
  bool is_view() const { return left_parent_ != nullptr; }

  /// Row `i`; i < num_rows(). Materializes the row store of a view on first
  /// use (thread-safe, exactly once).
  const Tuple& row(size_t i) const {
    EnsureRows();
    return *rows_[i];
  }

  /// Shared pointer to row `i` — the copy-free way to keep a surviving row.
  const TuplePtr& row_ptr(size_t i) const {
    EnsureRows();
    return rows_[i];
  }

  /// All rows as shared pointers (materializing a view's row store first).
  const std::vector<TuplePtr>& row_ptrs() const {
    EnsureRows();
    return rows_;
  }

  /// Value at row `r`, column `c`. Never materializes a view's row store:
  /// views forward to the parent cell through the selection.
  const types::Value& at(size_t r, size_t c) const {
    if (!is_view()) return (*rows_[r])[c];
    if (right_parent_ == nullptr) return left_parent_->at(left_rows_[r], c);
    return c < left_width_
               ? left_parent_->at(left_rows_[r], c)
               : right_parent_->at(right_rows_[r], c - left_width_);
  }

  /// The columnar view of this relation, materialized (per column) on first
  /// use. Thread-safe: concurrent box firings over a shared base relation
  /// build each column exactly once. For a view, columns gather from the
  /// parents' columnar views through the selection — a typed copy that never
  /// boxes a Value and never touches the row store.
  const ColumnarTable& columnar() const;

  /// Builds column `c` as columnar() would, without caching it here: for a
  /// reader that needs a column once and should not keep it alive for as
  /// long as this relation lives (a view still reads its parents' cached
  /// columns).
  ColumnVector BuildColumn(size_t c) const;

  /// Where this relation's rows live: row k is row `map[k]` of `base`.
  /// `rows == nullptr` is the identity map (`base` is this relation).
  struct RowMap {
    const Relation* base;
    const std::vector<uint32_t>* rows;

    size_t operator[](size_t k) const { return rows == nullptr ? k : (*rows)[k]; }
  };

  /// The composed selection of a chain of selection views (Sample over
  /// Restrict over Sort, ...): `base` is the deepest ancestor that is not
  /// itself a selection view, `rows` the row maps folded into one. Any other
  /// relation returns itself with the identity map. Computed once
  /// (thread-safe); `base` lives as long as this relation. Lets a consumer
  /// read the base's columns through one row map instead of gathering every
  /// column first.
  RowMap ComposedSelection() const;

  /// A table rendering ("name | name\n----\nv | v ..."), the shape produced
  /// by a "terminal monitor" (§5.2); used for debugging and golden tests.
  std::string ToString(size_t max_rows = 20) const;

  friend class RelationBuilder;
  friend class ColumnarTable;

 private:
  /// Fills a view's row store (no-op for materialized relations).
  void EnsureRows() const;

  SchemaPtr schema_;

  /// Row store. Canonical for materialized relations; lazily filled for
  /// views (guarded by rows_once_).
  mutable std::vector<TuplePtr> rows_;
  mutable std::once_flag rows_once_;

  /// View state; left_parent_ == nullptr means materialized.
  RelationPtr left_parent_;
  RelationPtr right_parent_;  // join views only
  std::vector<uint32_t> left_rows_;
  std::vector<uint32_t> right_rows_;
  size_t left_width_ = 0;  // join views: columns owned by the left parent

  mutable std::once_flag columnar_once_;
  mutable std::unique_ptr<const ColumnarTable> columnar_;

  /// Composed-selection cache of a selection view (see ComposedSelection).
  /// compose_base_ stays alive through the parent shared_ptr chain;
  /// compose_rows_ points at left_rows_ when no composition was needed
  /// (chain depth 1).
  mutable std::once_flag compose_once_;
  mutable const Relation* compose_base_ = nullptr;
  mutable const std::vector<uint32_t>* compose_rows_ = nullptr;
  mutable std::vector<uint32_t> composed_rows_storage_;
};

/// Accumulates tuples for a new materialized Relation, type-checking each
/// row against the schema (nulls are allowed in any column).
class RelationBuilder {
 public:
  explicit RelationBuilder(SchemaPtr schema);

  /// Appends a row after checking arity and column types.
  Status AddRow(Tuple row);

  /// Appends a row without checks. Only for operators that construct rows
  /// directly from already-checked relations (hot path).
  void AddRowUnchecked(Tuple row);

  /// Appends an already-shared row without checks or copies — the tuple is
  /// referenced, not duplicated. Callers must pass rows of a relation with
  /// a compatible schema.
  void AddRowShared(TuplePtr row);

  /// Reserves capacity for `n` rows.
  void Reserve(size_t n);

  size_t num_rows() const { return relation_->rows_.size(); }
  const SchemaPtr& schema() const { return relation_->schema_; }

  /// Finishes and returns the relation; the builder is left empty.
  RelationPtr Build();

 private:
  std::shared_ptr<Relation> relation_;
};

/// Convenience: builds a relation from columns and rows, failing on any
/// schema or type mismatch.
Result<RelationPtr> MakeRelation(std::vector<Column> columns, std::vector<Tuple> rows);

/// Row-splice helpers for the delta-maintenance path (dataflow/delta.h).
/// Each returns a new relation byte-identical to rebuilding the input with
/// the one-row edit applied; the input is untouched. The edited tuple is
/// type-checked against the schema; unchanged rows are *shared* with the
/// input (pointer copies), which is what keeps single-row §8 updates cheap
/// on large tables. For inserts, `row` may equal num_rows() (append).
Result<RelationPtr> WithRowReplaced(const RelationPtr& input, size_t row, Tuple tuple);
Result<RelationPtr> WithRowInserted(const RelationPtr& input, size_t row, Tuple tuple);
Result<RelationPtr> WithRowErased(const RelationPtr& input, size_t row);

/// Structural equality: same schema, same rows in the same order.
bool RelationEquals(const Relation& a, const Relation& b);

}  // namespace tioga2::db

#endif  // TIOGA2_DB_RELATION_H_
