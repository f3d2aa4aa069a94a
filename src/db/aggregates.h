#ifndef TIOGA2_DB_AGGREGATES_H_
#define TIOGA2_DB_AGGREGATES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "db/exec_policy.h"
#include "db/relation.h"

namespace tioga2::db {

/// Aggregate functions available to GroupBy. These are the kind of
/// "additional boxes constructed by big programmers" the paper's §1.2
/// principle 5 anticipates: visualizations of summarized data (e.g. average
/// temperature per station) need them.
enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

/// "count", "sum", ...
std::string AggFnToString(AggFn fn);
bool AggFnFromString(const std::string& text, AggFn* out);

/// One aggregate column specification: fn over `column` (ignored for
/// kCount), emitted as `output_name`.
struct AggSpec {
  AggFn fn = AggFn::kCount;
  std::string column;
  std::string output_name;
};

/// Hash group-by: groups `input` on the `keys` columns (nulls form their own
/// group) and computes `aggs` per group. The output schema is the key
/// columns followed by the aggregate columns. Null inputs are skipped by
/// every aggregate; empty groups cannot occur. Output group order follows
/// first appearance in the input (deterministic).
///
/// Types: count -> int; sum/avg -> float; min/max -> the column's type.
///
/// With `policy.vectorized` set, keys whose columns are int/bool/date or
/// string group on a columnar path (hashing typed cells and dictionary codes
/// instead of building a TupleKey string per row); float keys and strings
/// holding the '\x01' tag byte take the scalar row loop. Both paths
/// produce identical relations — group order is first appearance either way,
/// and the columnar path reproduces TupleKey's exact grouping semantics
/// (see aggregates.cc for the eligibility argument).
Result<RelationPtr> GroupBy(const RelationPtr& input,
                            const std::vector<std::string>& keys,
                            const std::vector<AggSpec>& aggs,
                            const ExecPolicy& policy = DefaultExecPolicy());

/// Removes duplicate tuples, keeping first occurrences. Display columns are
/// rejected (no cheap canonical form).
Result<RelationPtr> Distinct(const RelationPtr& input);

/// Bag union: appends `second` to `first`; schemas must match exactly.
Result<RelationPtr> UnionAll(const RelationPtr& first, const RelationPtr& second);

/// Canonical grouping key for a tuple restricted to `columns` (int and
/// float values unify, so 2 and 2.0 land in one group). Exposed for reuse
/// by tests and operators.
Result<std::string> TupleKey(const Tuple& tuple, const std::vector<size_t>& columns);

}  // namespace tioga2::db

#endif  // TIOGA2_DB_AGGREGATES_H_
