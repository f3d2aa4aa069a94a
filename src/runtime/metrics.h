#ifndef TIOGA2_RUNTIME_METRICS_H_
#define TIOGA2_RUNTIME_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "dataflow/engine.h"

namespace tioga2::runtime {

/// Escapes `s` for embedding inside a JSON string literal: backslash, double
/// quote, and control characters (U+0000..U+001F, as \n/\t/... or \u00XX).
/// Every DYNAMIC key or value interpolated into hand-built JSON — request
/// tags, box-type names — must pass through here; a tag containing `"` would
/// otherwise split the key and corrupt the whole document.
std::string EscapeJsonString(const std::string& s);

/// A log2-bucketed latency histogram (microseconds). Bucket i counts
/// observations in [2^(i-1), 2^i) µs; the first bucket is [0, 1) µs and the
/// last absorbs everything beyond. Cheap enough to record per box firing.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 24;  // up to ~8.4 s

  void Record(double micros);

  uint64_t count() const { return count_; }
  double sum_micros() const { return sum_micros_; }
  double max_micros() const { return max_micros_; }
  double mean_micros() const {
    return count_ == 0 ? 0.0 : sum_micros_ / static_cast<double>(count_);
  }

  /// Upper bound of the bucket containing the q-quantile (q in [0, 1]) —
  /// a coarse but monotone percentile estimate, clamped to max_micros() so
  /// a reported quantile can never exceed the largest observation (the raw
  /// bucket bound 2^i can).
  double QuantileUpperBoundMicros(double q) const;

  /// {"count":N,"mean_us":...,"max_us":...,"p50_us":...,"p99_us":...,
  ///  "buckets":[...]}
  std::string ToJson() const;

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_micros_ = 0;
  double max_micros_ = 0;
};

/// Counters snapshot for quick assertions (see Metrics::snapshot()).
struct MetricsSnapshot {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t boxes_fired = 0;
  uint64_t requests_completed = 0;
  uint64_t requests_rejected = 0;
  uint64_t requests_timed_out = 0;
  // Cross-session shared memo tier (dataflow::SharedMemoCache), copied from
  // the cache attached via AttachSharedCache at snapshot time; all zero when
  // no shared tier is attached.
  uint64_t shared_cache_hits = 0;
  uint64_t shared_cache_misses = 0;
  uint64_t shared_cache_inserts = 0;
  uint64_t shared_cache_evictions = 0;
  size_t shared_cache_entries = 0;
  size_t max_queue_depth = 0;
  // Vectorized execution counters, copied from expr::BatchMetrics::Global()
  // at snapshot time (they are process-wide, not per-Metrics; see below).
  uint64_t batch_restrict_batches = 0;
  uint64_t batch_restrict_rows = 0;
  uint64_t batch_nodes_vectorized = 0;
  uint64_t batch_nodes_fallback = 0;
  // Persistence counters, copied from storage::StorageMetrics::Global() at
  // snapshot time (same pattern: storage cannot depend on runtime).
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t snapshots_written = 0;
  double snapshot_ms = 0.0;
  double recovery_ms = 0.0;
};

/// The observability surface of the runtime: per-box-type fire latency
/// histograms, memo-cache hit/miss counters, request outcomes, and queue
/// depth. All methods are thread-safe; benches export ToJson() into
/// bench_out/. Box counters arrive through the dataflow::BoxObserver seam:
/// attach a Metrics to an engine with Engine::set_observer.
class Metrics : public dataflow::BoxObserver {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// A hit or adoption counts as a cache hit; a fire goes to RecordBoxFire.
  void OnBoxResolved(const dataflow::Box& box, dataflow::BoxOutcome outcome,
                     double fire_micros) override;
  /// One fire (a cache miss) of a `box_type` box, taking `micros`.
  void RecordBoxFire(const std::string& box_type, double micros);
  void RecordQueueDepth(size_t depth);
  /// Records a completed request's latency. A nonempty `tag` (the request
  /// class from SessionServer::Request::tag) additionally lands in that
  /// class's own histogram, serialized under "requests"."classes" in the
  /// JSON — the per-request-class latency breakdown the load harness
  /// reports.
  void RecordRequestComplete(double micros, const std::string& tag = "");
  void RecordRequestRejected();
  void RecordRequestTimedOut();

  /// Attaches the cross-session shared memo tier whose counters snapshot()
  /// and ToJson() should surface (null detaches). Non-owning; the pointee
  /// must outlive this Metrics (or be detached first).
  void AttachSharedCache(const dataflow::SharedMemoCache* shared);

  /// Includes the process-wide expr::BatchMetrics counters (vectorized
  /// operator batches, fallback rows). Those counters are global — shared
  /// across Metrics instances — because the db layer, which records them,
  /// cannot depend on runtime.
  MetricsSnapshot snapshot() const;

  /// Copies of the aggregate and per-class request-latency histograms, for
  /// callers (the load harness) that need numeric quantiles rather than the
  /// JSON rendering.
  LatencyHistogram request_latency() const;
  std::map<std::string, LatencyHistogram> request_classes() const;

  /// The whole surface as a JSON object:
  /// {"cache":{...},"requests":{...},"queue":{...},
  ///  "box_fires":{"Restrict":{...}},"batch_eval":{...}}
  /// The "batch_eval" section reports the vectorized execution counters:
  /// batches run per operator (restrict/sort/display/render) and how many
  /// expression nodes executed as typed loops versus element-wise fallback.
  std::string ToJson() const;

  /// Zeroes all counters and histograms, including the process-wide
  /// expr::BatchMetrics (so two Metrics instances resetting concurrently
  /// would clobber each other's batch counters — benches and tests reset
  /// once, up front).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, LatencyHistogram> box_fires_;
  LatencyHistogram request_latency_;
  /// Per-request-class latency (keyed by Request::tag; untagged requests
  /// land only in the aggregate request_latency_).
  std::map<std::string, LatencyHistogram> request_classes_;
  const dataflow::SharedMemoCache* shared_cache_ = nullptr;
  MetricsSnapshot counters_;
};

}  // namespace tioga2::runtime

#endif  // TIOGA2_RUNTIME_METRICS_H_
