#ifndef TIOGA2_DB_MORSEL_H_
#define TIOGA2_DB_MORSEL_H_

#include <cstddef>
#include <functional>

#include "common/status.h"
#include "db/exec_policy.h"

namespace tioga2::db {

/// Rows per morsel under `policy` (never zero; a zero knob clamps to 1).
size_t MorselRows(const ExecPolicy& policy);

/// Number of morsels [0, num_rows) splits into under `policy`. Callers
/// preallocate one result slot per morsel and merge them in morsel order.
size_t NumMorsels(const ExecPolicy& policy, size_t num_rows);

/// One morsel of work: rows [begin, end) of the operator's input domain,
/// identified by `morsel` (its index in morsel order). A body writes its
/// results into its own, caller-preallocated slot.
using MorselBody = std::function<Status(size_t morsel, size_t begin, size_t end)>;

/// Runs `body` over every morsel of [0, num_rows), in morsel order on the
/// calling thread, and returns the first failure immediately. Morsel
/// boundaries depend only on (num_rows, policy.morsel_rows) and callers
/// merge per-morsel results in morsel order, so outputs are byte-identical
/// under every morsel size (property-tested in batch_eval_test and
/// runtime_determinism_test).
Status ForEachMorsel(const ExecPolicy& policy, size_t num_rows,
                     const MorselBody& body);

}  // namespace tioga2::db

#endif  // TIOGA2_DB_MORSEL_H_
