#include "db/morsel.h"

#include <algorithm>

#include "expr/batch.h"

namespace tioga2::db {

size_t MorselRows(const ExecPolicy& policy) {
  return policy.morsel_rows == 0 ? 1 : policy.morsel_rows;
}

size_t NumMorsels(const ExecPolicy& policy, size_t num_rows) {
  if (num_rows == 0) return 0;
  const size_t rows = MorselRows(policy);
  return (num_rows + rows - 1) / rows;
}

Status ForEachMorsel(const ExecPolicy& policy, size_t num_rows,
                     const MorselBody& body) {
  const size_t num_morsels = NumMorsels(policy, num_rows);
  if (num_morsels == 0) return Status::OK();
  const size_t morsel_rows = MorselRows(policy);
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  ++metrics.morsel_groups;
  metrics.morsels_executed += num_morsels;
  for (size_t m = 0; m < num_morsels; ++m) {
    const size_t begin = m * morsel_rows;
    const size_t end = std::min(begin + morsel_rows, num_rows);
    TIOGA2_RETURN_IF_ERROR(body(m, begin, end));
  }
  return Status::OK();
}

}  // namespace tioga2::db
