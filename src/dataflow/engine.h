#ifndef TIOGA2_DATAFLOW_ENGINE_H_
#define TIOGA2_DATAFLOW_ENGINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/delta.h"
#include "dataflow/graph.h"
#include "dataflow/memo_cache.h"
#include "dataflow/shared_memo_cache.h"
#include "db/exec_policy.h"

namespace tioga2::dataflow {

/// Counters for the lazy-vs-eager evaluation ablation and for asserting the
/// paper's incremental-feedback claim ("immediate feedback on the effect of
/// incremental program modifications").
struct EngineStats {
  uint64_t boxes_fired = 0;
  uint64_t cache_hits = 0;
  uint64_t shared_hits = 0;     // subset of cache_hits served by the shared tier
  uint64_t evaluations = 0;     // Evaluate() calls
  uint64_t boxes_skipped = 0;   // EvaluateAll: dangling-input boxes not fired
  uint64_t deltas_applied = 0;  // boxes maintained incrementally (kDelta)
  uint64_t delta_fallbacks = 0; // boxes that declined a delta and were evicted
};

/// A typed invalidation request — the one entry point for telling an engine
/// that base data changed. Callers no longer choose the eviction scope
/// themselves: they describe what happened (everything changed / one table
/// changed / one tuple of one table changed) and the engine picks the
/// cheapest sound strategy — full clear, downstream eviction, or
/// delta propagation with per-box fallback.
class Invalidation {
 public:
  enum class Scope { kAll, kDownstreamOf, kDelta };

  /// Everything may have changed: drop the whole memo cache.
  static Invalidation All() { return Invalidation(Scope::kAll); }

  /// The named table changed in an unspecified way: evict its downstream
  /// closure.
  static Invalidation DownstreamOf(std::string table) {
    Invalidation inv(Scope::kDownstreamOf);
    inv.table_ = std::move(table);
    return inv;
  }

  /// Exactly one tuple changed (a §8 update): propagate the delta through
  /// downstream boxes, falling back to eviction per box.
  static Invalidation Delta(db::TableDelta delta) {
    Invalidation inv(Scope::kDelta);
    inv.table_ = delta.table;
    inv.delta_ = std::move(delta);
    return inv;
  }

  Scope scope() const { return scope_; }
  /// kDownstreamOf / kDelta: the table concerned.
  const std::string& table() const { return table_; }
  /// kDelta only.
  const db::TableDelta& delta() const { return delta_; }

 private:
  explicit Invalidation(Scope scope) : scope_(scope) {}
  Scope scope_;
  std::string table_;
  db::TableDelta delta_;
};

/// What an Invalidate call did.
struct InvalidationResult {
  size_t entries_evicted = 0;
  size_t deltas_applied = 0;   // kDelta: boxes maintained incrementally
  size_t delta_fallbacks = 0;  // kDelta: boxes that declined and were evicted
  /// kDelta: per maintained box, the output edit scripts (one ValueDelta per
  /// output port). Consumers (e.g. the delta renderer) look up the box
  /// feeding their canvas here.
  std::map<std::string, std::vector<ValueDelta>> box_deltas;
  /// Warnings raised by boxes re-fired during delta maintenance.
  std::vector<std::string> warnings;
};

/// How an evaluation resolved one box.
enum class BoxOutcome {
  kHit,      // the engine's memo cache held the box's stamp
  kAdopted,  // the cross-session shared tier held it
  kFired,    // neither did, so the box fired
};

/// Per-box hook of an evaluation: a layer seam, so the runtime can record
/// box timings without dataflow depending on it (runtime::Metrics
/// implements it). The engine calls it on the evaluating thread as each box
/// resolves, once per box, in plan post-order.
class BoxObserver {
 public:
  virtual ~BoxObserver() = default;

  /// `fire_micros` is the wall time of Box::Fire for kFired, 0 otherwise.
  virtual void OnBoxResolved(const Box& box, BoxOutcome outcome,
                             double fire_micros) = 0;
};

/// Demand-driven, memoizing evaluator for boxes-and-arrows programs.
///
/// "Execution is lazy, evaluating only what is required to produce the
/// demanded visualization" (§2): Evaluate(box, port) pulls exactly the
/// transitive inputs of `box`. Each box's outputs are cached under a stamp
/// that hashes the box's parameters, its inputs' stamps, and any catalog
/// state it reads (table versions); an edit to one box therefore re-fires
/// only the boxes downstream of the edit.
///
/// An evaluation first plans the demanded closure — each box once, in DFS
/// post-order with inputs in port order — then the calling thread resolves
/// the nodes in that order, stopping at the first failure. Resolving a node
/// is one step: stamp fold, memo lookup, shared-tier adoption, coercion,
/// Fire, arity check, insert and publish. A fired box runs on the calling
/// thread too; each of its operators is one scan of its input.
///
/// The memo cache may be shared with other engines (MemoCache is
/// thread-safe). The Engine itself serves one caller at a time; concurrency
/// across clients is layered on top by runtime::SessionServer.
class Engine {
 public:
  /// `catalog` must outlive the engine; may be null for graphs without
  /// source boxes. `encap_inputs` binds InputStub boxes when evaluating the
  /// inner graph of an EncapsulatedBox. When `shared_cache` is non-null the
  /// engine memoizes into it instead of a private cache (the pointee must
  /// outlive the engine).
  explicit Engine(const db::Catalog* catalog,
                  const std::vector<BoxValue>* encap_inputs = nullptr,
                  MemoCache* shared_cache = nullptr)
      : catalog_(catalog),
        encap_inputs_(encap_inputs),
        cache_(shared_cache != nullptr ? shared_cache : &owned_cache_) {}

  /// Evaluates one output port (lazy).
  Result<BoxValue> Evaluate(const Graph& graph, const std::string& box_id,
                            size_t output_port);

  /// Evaluates every output of every box (the eager baseline for the
  /// ablation benchmark). Boxes with dangling inputs (and boxes downstream
  /// of them) cannot fire; they are counted in stats().boxes_skipped and
  /// reported through warnings(), ahead of any fire warnings.
  Status EvaluateAll(const Graph& graph);

  /// The unified invalidation entry point: dispatches on the request's
  /// scope. kAll clears the cache; kDownstreamOf evicts the table's
  /// downstream closure; kDelta runs delta propagation (PropagateDelta),
  /// maintaining cached outputs box-by-box and evicting only the boxes that
  /// decline. Errors are reserved for malformed requests or corrupted
  /// state; a delta that merely cannot be applied degrades to eviction and
  /// still returns ok.
  Result<InvalidationResult> Invalidate(const Graph& graph,
                                        const Invalidation& inv);

  /// Counters, updated as each box resolves. A box reached along several
  /// paths of one evaluation counts once.
  const EngineStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EngineStats{}; }

  /// Per-engine execution policy. When unset the engine resolves
  /// db::DefaultExecPolicy() at each evaluation (db::SetDefaultExecPolicy is
  /// the process-wide default for callers that never opt in).
  void set_exec_policy(db::ExecPolicy policy) { policy_ = policy; }
  const std::optional<db::ExecPolicy>& exec_policy() const { return policy_; }

  /// Attaches a cross-session shared memo tier (may be null to detach). On a
  /// local-cache miss the engine consults it by stamp before firing, and
  /// publishes every fired entry into it; hits count in both
  /// stats().cache_hits and stats().shared_hits. The pointee must outlive
  /// the engine. See dataflow/shared_memo_cache.h for why trading entries
  /// across sessions is byte-identical by construction.
  void set_shared_cache(SharedMemoCache* shared) { shared_cache_ = shared; }
  SharedMemoCache* shared_cache() const { return shared_cache_; }

  /// Attaches a per-box observer (null detaches). Non-owning.
  void set_observer(BoxObserver* observer) { observer_ = observer; }

  /// The memo cache (shared or owned). Exposed so callers can share it with
  /// another engine or inspect stamps.
  MemoCache& cache() { return *cache_; }
  const MemoCache& cache() const { return *cache_; }

  /// Warnings raised by boxes during the most recent evaluation (e.g. the
  /// Overlay dimension-mismatch warning of §6.1), in plan post-order.
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  struct Plan;

  /// Resolves plan node `node`, whose inputs are resolved, and records it in
  /// stats_, warnings_ and the observer.
  Status Resolve(Plan* plan, size_t node, const db::ExecPolicy& policy);

  /// Resolves every node of `plan` in post-order; stops at the first failure.
  Status Run(Plan* plan);

  const db::Catalog* catalog_;
  const std::vector<BoxValue>* encap_inputs_ = nullptr;
  MemoCache owned_cache_;
  MemoCache* cache_;  // owned_cache_ or an external shared cache
  SharedMemoCache* shared_cache_ = nullptr;  // optional cross-session tier
  BoxObserver* observer_ = nullptr;
  EngineStats stats_;
  std::vector<std::string> warnings_;
  std::optional<db::ExecPolicy> policy_;
};

/// Ids of the source boxes reading `table` plus their transitive downstream
/// closure — the set of boxes whose cached outputs a single-table edit can
/// invalidate.
std::vector<std::string> BoxesDownstreamOfTable(const Graph& graph,
                                                const std::string& table);

/// Walks the boxes downstream of `delta.table` in topological order,
/// offering each a Box::ApplyDelta fast path against its memoized entry and
/// falling back to eviction for boxes that decline (or whose cached entry
/// does not match the pre-update program). Maintained entries are re-keyed
/// under their post-update stamps, so a subsequent Evaluate sees a warm
/// cache and byte-identity with a full recompute is preserved. Runs on the
/// calling thread for Engine::Invalidate. `catalog` must already reflect the
/// post-update state (delta.new_version installed).
Result<InvalidationResult> PropagateDelta(
    const Graph& graph, const db::Catalog* catalog, const db::TableDelta& delta,
    MemoCache& cache, const db::ExecPolicy& policy,
    const std::vector<BoxValue>* encap_inputs = nullptr);

}  // namespace tioga2::dataflow

#endif  // TIOGA2_DATAFLOW_ENGINE_H_
