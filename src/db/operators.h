#ifndef TIOGA2_DB_OPERATORS_H_
#define TIOGA2_DB_OPERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/exec_policy.h"
#include "db/relation.h"
#include "expr/expr.h"

namespace tioga2::expr {
class BatchSource;
struct ExprNode;
}  // namespace tioga2::expr

namespace tioga2::db {

/// Builds a TypeEnv exposing the stored columns of `schema` (for compiling
/// predicates and attribute definitions against a plain relation).
expr::TypeEnv SchemaEnv(const SchemaPtr& schema);

/// Compiles `predicate_source` against `schema` and requires a bool result.
Result<expr::CompiledExpr> CompilePredicate(const SchemaPtr& schema,
                                            const std::string& predicate_source);

/// Standard projection (§4.2, Figure 3): keeps `columns` in the given order.
/// Duplicate tuples are retained (this is SELECT-list projection, not set
/// projection), matching the paper's "projecting out unneeded fields".
Result<RelationPtr> Project(const RelationPtr& input,
                            const std::vector<std::string>& columns);

/// Filters to tuples for which `predicate` evaluates to true; a null
/// predicate result rejects the tuple (SQL WHERE semantics). Runs the
/// vectorized path (expr::BatchEvaluator over the relation's columnar view,
/// kBatchSize rows at a time) unless `policy.vectorized` is false, in which
/// case it evaluates tuple-at-a-time. Both paths produce bit-identical
/// relations; the policy exists for benchmarking and equivalence tests.
Result<RelationPtr> Restrict(const RelationPtr& input,
                             const expr::CompiledExpr& predicate,
                             const ExecPolicy& policy = DefaultExecPolicy());

/// Convenience overload that compiles the predicate from source.
Result<RelationPtr> Restrict(const RelationPtr& input,
                             const std::string& predicate_source,
                             const ExecPolicy& policy = DefaultExecPolicy());

/// Rows of `source` for which `predicate` is non-null true, ascending: the
/// vectorized Restrict scan behind db::Restrict and DisplayRelation's
/// Restrict. One scan in expr::kBatchSize batches; the list is exactly
/// sized, since a selection view holds it while cached.
Result<std::vector<uint32_t>> RestrictSurvivors(const expr::BatchSource& source,
                                                const expr::ExprNode& predicate,
                                                const ExecPolicy& policy);

/// Tuple-at-a-time Restrict — the scalar baseline the vectorized path is
/// benchmarked and property-tested against.
Result<RelationPtr> RestrictScalar(const RelationPtr& input,
                                   const expr::CompiledExpr& predicate);

/// Evaluates `predicate` for one row; true ⇔ the row is kept (predicate
/// result is non-null true). Shared by RestrictScalar and the nested-loop
/// join so WHERE semantics are defined in exactly one place.
Result<bool> PredicateKeeps(const expr::CompiledExpr& predicate,
                            const expr::RowAccessor& row);

/// Bernoulli sample: each tuple is retained independently with
/// `probability` (§4.2: "each input is retained with a user-specified
/// probability"). Deterministic for a given seed: both paths make one draw
/// per input row, in input order. The vectorized path emits a selection view
/// of the kept rows; the scalar path (`policy.vectorized == false`) copies
/// them into a row store. Both produce value-identical relations.
Result<RelationPtr> Sample(const RelationPtr& input, double probability, uint64_t seed,
                           const ExecPolicy& policy = DefaultExecPolicy());

/// The join algorithm actually used by Join (reported for benchmarks).
enum class JoinAlgorithm { kHash, kNestedLoop };

/// Result of a join together with the algorithm the planner picked.
struct JoinResult {
  RelationPtr relation;
  JoinAlgorithm algorithm;
};

/// Joins two relations on a predicate written over the *output* schema
/// (left columns then right columns; any right column whose name collides
/// with a left column is renamed with a "_2" suffix). If the predicate is a
/// single equality between one left and one right column, a hash join is
/// used; otherwise a nested-loop join.
///
/// Ordering contract: output rows are always in left-major order — sorted by
/// left row id, ties by right row id — regardless of which side the planner
/// builds the hash table on and regardless of the execution policy. The
/// order therefore cannot flip when an update grows one input past the
/// other, which downstream fingerprint/stamp byte-identity depends on.
///
/// The vectorized path hashes typed key cells straight from the build side's
/// ColumnVector and emits a join *view* (two row-id vectors over the
/// inputs); the scalar path hashes Values tuple-at-a-time and materializes
/// concatenated rows. Both produce value-identical relations (the scalar
/// path is the oracle). Keys unify int/float (2 joins 2.0, matching
/// Value::Equals); null keys never join; hash collisions are resolved by a
/// real equality check.
Result<JoinResult> Join(const RelationPtr& left, const RelationPtr& right,
                        const std::string& predicate_source,
                        const ExecPolicy& policy = DefaultExecPolicy());

/// Forces the nested-loop path regardless of predicate shape (for the
/// hash-vs-nested-loop ablation benchmark). Under a vectorized policy the
/// predicate runs through expr::BatchEvaluator over cross-product blocks
/// (one left row splatted against kBatchSize right rows at a time), the way
/// Restrict batches; output order is left-major either way.
Result<RelationPtr> NestedLoopJoin(const RelationPtr& left, const RelationPtr& right,
                                   const std::string& predicate_source,
                                   const ExecPolicy& policy = DefaultExecPolicy());

/// Sorts by `column` (ascending or descending); nulls sort first. The
/// policy picks columnar or row-store key comparison (bit-identical).
Result<RelationPtr> Sort(const RelationPtr& input, const std::string& column,
                         bool ascending = true,
                         const ExecPolicy& policy = DefaultExecPolicy());

/// Keeps the first `n` tuples: a selection view of the prefix under the
/// vectorized policy, a row store under the scalar one (value-identical).
Result<RelationPtr> Limit(const RelationPtr& input, size_t n,
                          const ExecPolicy& policy = DefaultExecPolicy());

/// The schema a Join over these inputs produces (left then right, right
/// collisions suffixed "_2"). Exposed so callers can compile predicates.
Result<SchemaPtr> JoinOutputSchema(const SchemaPtr& left, const SchemaPtr& right);

}  // namespace tioga2::db

#endif  // TIOGA2_DB_OPERATORS_H_
