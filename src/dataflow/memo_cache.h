#ifndef TIOGA2_DATAFLOW_MEMO_CACHE_H_
#define TIOGA2_DATAFLOW_MEMO_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataflow/port_type.h"

namespace tioga2::dataflow {

/// Thread-safe memo store for box outputs, keyed by box id and guarded by a
/// stamp (see dataflow/stamp.h). Extracted from Engine so that one cache can
/// be shared between engines, including engines running on different
/// threads: entries are immutable and handed out as shared_ptr, so a reader
/// holding an entry is never invalidated by a concurrent insert or eviction.
///
/// The cache holds at most one entry per box id — a re-fire after an edit or
/// a table-version bump overwrites the stale entry — so its footprint is
/// bounded by the program size, not the evaluation history.
///
/// Contract with dataflow/stamp.h: an entry is valid iff its stamp equals
/// the stamp recomputed from the current program, so correctness rests on
/// two properties. (a) Stamps cover every input a box firing reads —
/// catalog state goes through Box::CacheSalt. (b) Box firing is a pure,
/// deterministic function of the stamped inputs: two evaluators producing
/// the same stamp may trade entries, and Insert can keep the first of two
/// concurrently computed entries precisely because both are guaranteed
/// byte-identical. Evaluation strategy (scalar or vectorized, row or
/// columnar, any SIMD tier) is invisible to this cache; nothing about
/// a Relation's lazily materialized columnar() view participates in
/// stamping or equality.
class MemoCache {
 public:
  struct Entry {
    uint64_t stamp = 0;
    std::vector<BoxValue> outputs;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  MemoCache() = default;
  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// The entry for `box_id` iff it carries exactly `stamp`; null otherwise.
  EntryPtr Lookup(const std::string& box_id, uint64_t stamp) const;

  /// Installs outputs for `box_id` under `stamp` and returns the stored
  /// entry. If a concurrent evaluation already installed the same stamp the
  /// existing entry is kept and returned (box firing is deterministic, so
  /// both copies are identical).
  EntryPtr Insert(const std::string& box_id, uint64_t stamp,
                  std::vector<BoxValue> outputs);

  /// Adopts an already-built entry for `box_id` — the path by which a
  /// cross-session SharedMemoCache hit lands in a session's own cache
  /// without copying the outputs (the sessions then share one immutable
  /// Entry allocation). Same race rule as Insert: an existing entry with the
  /// same stamp wins.
  EntryPtr InsertEntry(const std::string& box_id, EntryPtr entry);

  /// The stamp cached for `box_id`, if any (regardless of validity).
  std::optional<uint64_t> StampOf(const std::string& box_id) const;

  /// The entry for `box_id` regardless of its stamp, or null. Used by the
  /// delta-propagation path, which validates the stamp itself against the
  /// *pre-update* program before trusting the outputs.
  EntryPtr Get(const std::string& box_id) const;

  /// Drops one box's entry; true iff there was one. Idempotent.
  bool Erase(const std::string& box_id);

  /// Drops everything.
  void Clear();

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, EntryPtr> entries_;
};

}  // namespace tioga2::dataflow

#endif  // TIOGA2_DATAFLOW_MEMO_CACHE_H_
