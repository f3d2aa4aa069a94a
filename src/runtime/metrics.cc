#include "runtime/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dataflow/shared_memo_cache.h"
#include "expr/batch.h"
#include "expr/simd/simd.h"
#include "storage/storage_metrics.h"

namespace tioga2::runtime {

std::string EscapeJsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

size_t BucketFor(double micros) {
  if (micros < 1.0) return 0;
  size_t bucket = 1 + static_cast<size_t>(std::log2(micros));
  return std::min(bucket, LatencyHistogram::kNumBuckets - 1);
}

std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

}  // namespace

void LatencyHistogram::Record(double micros) {
  if (micros < 0) micros = 0;
  ++buckets_[BucketFor(micros)];
  ++count_;
  sum_micros_ += micros;
  max_micros_ = std::max(max_micros_, micros);
}

double LatencyHistogram::QuantileUpperBoundMicros(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      double bound = i == 0 ? 1.0 : std::pow(2.0, static_cast<double>(i));
      // The bucket upper bound can exceed the largest observation (a 1100 µs
      // max lands in the [1024, 2048) bucket, whose bound is 2048); clamping
      // keeps every reported quantile <= max_us in the JSON.
      return std::min(bound, max_micros_);
    }
  }
  return max_micros_;
}

std::string LatencyHistogram::ToJson() const {
  std::string json = "{\"count\":" + std::to_string(count_);
  json += ",\"mean_us\":" + FormatDouble(mean_micros());
  json += ",\"max_us\":" + FormatDouble(max_micros_);
  json += ",\"p50_us\":" + FormatDouble(QuantileUpperBoundMicros(0.5));
  json += ",\"p99_us\":" + FormatDouble(QuantileUpperBoundMicros(0.99));
  json += ",\"buckets\":[";
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (i > 0) json += ',';
    json += std::to_string(buckets_[i]);
  }
  json += "]}";
  return json;
}

void Metrics::OnBoxResolved(const dataflow::Box& box, dataflow::BoxOutcome outcome,
                            double fire_micros) {
  if (outcome == dataflow::BoxOutcome::kFired) {
    RecordBoxFire(box.type_name(), fire_micros);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.cache_hits;
}

void Metrics::RecordBoxFire(const std::string& box_type, double micros) {
  std::lock_guard<std::mutex> lock(mu_);
  box_fires_[box_type].Record(micros);
  ++counters_.boxes_fired;
  ++counters_.cache_misses;
}

void Metrics::RecordQueueDepth(size_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.max_queue_depth = std::max(counters_.max_queue_depth, depth);
}

void Metrics::RecordRequestComplete(double micros, const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  request_latency_.Record(micros);
  if (!tag.empty()) request_classes_[tag].Record(micros);
  ++counters_.requests_completed;
}

void Metrics::AttachSharedCache(const dataflow::SharedMemoCache* shared) {
  std::lock_guard<std::mutex> lock(mu_);
  shared_cache_ = shared;
}

void Metrics::RecordRequestRejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.requests_rejected;
}

void Metrics::RecordRequestTimedOut() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.requests_timed_out;
}

LatencyHistogram Metrics::request_latency() const {
  std::lock_guard<std::mutex> lock(mu_);
  return request_latency_;
}

std::map<std::string, LatencyHistogram> Metrics::request_classes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return request_classes_;
}

MetricsSnapshot Metrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap = counters_;
  if (shared_cache_ != nullptr) {
    dataflow::SharedMemoCache::Stats shared = shared_cache_->stats();
    snap.shared_cache_hits = shared.hits;
    snap.shared_cache_misses = shared.misses;
    snap.shared_cache_inserts = shared.inserts;
    snap.shared_cache_evictions = shared.evictions;
    snap.shared_cache_entries = shared.entries;
  }
  const expr::BatchMetrics& batch = expr::BatchMetrics::Global();
  snap.batch_restrict_batches = batch.restrict_batches.load();
  snap.batch_restrict_rows = batch.restrict_rows.load();
  snap.batch_nodes_vectorized = batch.nodes_vectorized.load();
  snap.batch_nodes_fallback = batch.nodes_fallback.load();
  const storage::StorageMetrics& stor = storage::StorageMetrics::Global();
  snap.wal_records = stor.wal_records.load();
  snap.wal_bytes = stor.wal_bytes.load();
  snap.wal_fsyncs = stor.wal_fsyncs.load();
  snap.snapshots_written = stor.snapshots_written.load();
  snap.snapshot_ms = static_cast<double>(stor.snapshot_us_last.load()) / 1000.0;
  snap.recovery_ms = static_cast<double>(stor.recovery_us_last.load()) / 1000.0;
  return snap;
}

std::string Metrics::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string json = "{";
  json += "\"cache\":{\"hits\":" + std::to_string(counters_.cache_hits) +
          ",\"misses\":" + std::to_string(counters_.cache_misses) + "}";
  json += ",\"requests\":{\"completed\":" +
          std::to_string(counters_.requests_completed) +
          ",\"rejected\":" + std::to_string(counters_.requests_rejected) +
          ",\"timed_out\":" + std::to_string(counters_.requests_timed_out) +
          ",\"latency\":" + request_latency_.ToJson();
  json += ",\"classes\":{";
  {
    bool first_class = true;
    for (const auto& [tag, histogram] : request_classes_) {
      if (!first_class) json += ',';
      first_class = false;
      json += "\"" + EscapeJsonString(tag) + "\":" + histogram.ToJson();
    }
  }
  json += "}}";
  if (shared_cache_ != nullptr) {
    dataflow::SharedMemoCache::Stats shared = shared_cache_->stats();
    json += ",\"shared_cache\":{\"hits\":" + std::to_string(shared.hits) +
            ",\"misses\":" + std::to_string(shared.misses) +
            ",\"inserts\":" + std::to_string(shared.inserts) +
            ",\"evictions\":" + std::to_string(shared.evictions) +
            ",\"entries\":" + std::to_string(shared.entries) +
            ",\"capacity\":" + std::to_string(shared_cache_->capacity()) + "}";
  }
  json += ",\"queue\":{\"max_depth\":" +
          std::to_string(counters_.max_queue_depth) + "}";
  json += ",\"box_fires\":{";
  bool first = true;
  for (const auto& [type, histogram] : box_fires_) {
    if (!first) json += ',';
    first = false;
    json += "\"" + EscapeJsonString(type) + "\":" + histogram.ToJson();
  }
  json += "}";
  const expr::BatchMetrics& batch = expr::BatchMetrics::Global();
  json += ",\"batch_eval\":{";
  json += "\"restrict_batches\":" + std::to_string(batch.restrict_batches.load());
  json += ",\"restrict_rows\":" + std::to_string(batch.restrict_rows.load());
  json += ",\"restrict_scalar_rows\":" +
          std::to_string(batch.restrict_scalar_rows.load());
  json += ",\"group_by_scalar_rows\":" +
          std::to_string(batch.group_by_scalar_rows.load());
  json += ",\"sort_key_batches\":" + std::to_string(batch.sort_key_batches.load());
  json += ",\"sort_scalar_fallbacks\":" +
          std::to_string(batch.sort_scalar_fallbacks.load());
  json += ",\"display_attr_batches\":" +
          std::to_string(batch.display_attr_batches.load());
  json += ",\"display_attr_rows\":" + std::to_string(batch.display_attr_rows.load());
  json += ",\"render_location_batches\":" +
          std::to_string(batch.render_location_batches.load());
  json += ",\"render_scalar_fallbacks\":" +
          std::to_string(batch.render_scalar_fallbacks.load());
  json += ",\"join_hash_build_rows\":" +
          std::to_string(batch.join_hash_build_rows.load());
  json += ",\"join_hash_probe_rows\":" +
          std::to_string(batch.join_hash_probe_rows.load());
  json += ",\"join_nested_batches\":" +
          std::to_string(batch.join_nested_batches.load());
  json += ",\"nodes_vectorized\":" + std::to_string(batch.nodes_vectorized.load());
  json += ",\"nodes_fallback\":" + std::to_string(batch.nodes_fallback.load());
  json += ",\"simd_level\":\"" +
          std::string(expr::simd::LevelName(expr::simd::BestLevel())) + "\"";
  json += ",\"simd_batches_sse2\":" +
          std::to_string(batch.simd_batches_sse2.load());
  json += ",\"simd_batches_avx2\":" +
          std::to_string(batch.simd_batches_avx2.load());
  json += ",\"simd_rows\":" + std::to_string(batch.simd_rows.load());
  json += ",\"simd_scalar_fallbacks\":" +
          std::to_string(batch.simd_scalar_fallbacks.load());
  json += ",\"dict_columns_built\":" +
          std::to_string(batch.dict_columns_built.load());
  json += ",\"dict_simd_batches\":" +
          std::to_string(batch.dict_simd_batches.load());
  json += ",\"sparse_gathers\":" + std::to_string(batch.sparse_gathers.load());
  json += "}";
  const storage::StorageMetrics& stor = storage::StorageMetrics::Global();
  json += ",\"storage\":{";
  json += "\"wal_records\":" + std::to_string(stor.wal_records.load());
  json += ",\"wal_bytes\":" + std::to_string(stor.wal_bytes.load());
  json += ",\"wal_fsyncs\":" + std::to_string(stor.wal_fsyncs.load());
  json += ",\"wal_group_commits\":" +
          std::to_string(stor.wal_group_commits.load());
  json += ",\"wal_rotations\":" + std::to_string(stor.wal_rotations.load());
  json += ",\"wal_segments_truncated\":" +
          std::to_string(stor.wal_segments_truncated.load());
  json += ",\"snapshots_written\":" +
          std::to_string(stor.snapshots_written.load());
  json += ",\"snapshot_bytes\":" + std::to_string(stor.snapshot_bytes.load());
  json += ",\"snapshot_ms\":" +
          FormatDouble(static_cast<double>(stor.snapshot_us_last.load()) / 1000.0);
  json += ",\"recovery_ms\":" +
          FormatDouble(static_cast<double>(stor.recovery_us_last.load()) / 1000.0);
  json += ",\"recovery_records_replayed\":" +
          std::to_string(stor.recovery_records_replayed.load());
  json += "}}";
  return json;
}

void Metrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  box_fires_.clear();
  request_latency_ = LatencyHistogram{};
  request_classes_.clear();
  counters_ = MetricsSnapshot{};
  expr::BatchMetrics::Global().Reset();
}

}  // namespace tioga2::runtime
