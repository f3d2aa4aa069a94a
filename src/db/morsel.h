#ifndef TIOGA2_DB_MORSEL_H_
#define TIOGA2_DB_MORSEL_H_

#include <cstddef>
#include <functional>

#include "common/status.h"
#include "db/exec_policy.h"

namespace tioga2::db {

/// Where morsel tasks may run. The db layer cannot depend on runtime/, so
/// operators see worker pools only through this seam; runtime::ThreadPool
/// implements it directly. Implementations must accept Submit from any
/// thread and never block the submitter on queue capacity.
///
/// A runner is *borrowed*, never relied on: ForEachMorsel always drives the
/// work to completion on the calling thread as well, so a runner whose
/// workers are all busy (or that drops tasks on shutdown after the group
/// completed) only costs parallelism, never correctness or progress.
class MorselRunner {
 public:
  virtual ~MorselRunner() = default;

  /// Enqueues a help ticket. May be called from any thread; must not block
  /// on capacity. The ticket may run at any later time, including after the
  /// morsel group it was submitted for has completed (it then finds no
  /// morsel left to claim and returns immediately).
  virtual void Submit(std::function<void()> task) = 0;

  /// Worker count, used to bound how many help tickets a group submits.
  virtual size_t num_threads() const = 0;
};

/// Rows per morsel under `policy` (never zero; a zero knob clamps to 1).
size_t MorselRows(const ExecPolicy& policy);

/// Number of morsels [0, num_rows) splits into under `policy`. Callers
/// preallocate one result slot per morsel and merge them in morsel order.
size_t NumMorsels(const ExecPolicy& policy, size_t num_rows);

/// One morsel of work: rows [begin, end) of the operator's input domain,
/// identified by `morsel` (its index in morsel order). Bodies run
/// concurrently when a runner is attached, so they must only touch shared
/// state that is thread-safe (columnar() materialization, atomic counters)
/// and must write results into their own, caller-preallocated slot.
using MorselBody = std::function<Status(size_t morsel, size_t begin, size_t end)>;

/// Runs `body` over every morsel of [0, num_rows).
///
/// Serial mode — the policy is scalar, lends no runner or a single-worker
/// one, or there are fewer than two morsels — calls the body in morsel
/// order on the calling thread and returns the first failure immediately,
/// exactly like the pre-morsel loops it replaces.
///
/// Parallel mode fans the morsels out: up to num_threads() help tickets are
/// submitted to the runner and the *calling thread drains the group too*.
/// Workers (caller included) claim morsels from a shared atomic cursor until
/// none remain, so the group completes even if no ticket ever runs. A
/// caller that is itself a task on the runner (every worker busy, its own
/// tickets queued behind it) therefore finishes the group alone: a busy
/// pool costs parallelism, never progress. Every morsel runs (no early
/// abort), and the error returned is the lowest-indexed morsel's —
/// deterministic regardless of interleaving.
///
/// Determinism: which thread runs a morsel is scheduling-dependent, but
/// morsel boundaries depend only on (num_rows, policy.morsel_rows) and
/// callers merge per-morsel results in morsel order, so outputs are
/// byte-identical to serial mode (property-tested in batch_eval_test and
/// runtime_determinism_test).
Status ForEachMorsel(const ExecPolicy& policy, size_t num_rows,
                     const MorselBody& body);

}  // namespace tioga2::db

#endif  // TIOGA2_DB_MORSEL_H_
