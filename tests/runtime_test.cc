// Tests for the evaluation runtime: the ThreadPool, engine behaviour that
// engine_test does not cover (two engines sharing one cache, error messages,
// skip and post-order warnings), the shared memo tier, and the metrics
// surface.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "boxes/relational_boxes.h"
#include "dataflow/engine.h"
#include "dataflow/shared_memo_cache.h"
#include "db/relation.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace tioga2::runtime {
namespace {

using boxes::RestrictBox;
using boxes::TableBox;
using dataflow::BoxValue;
using dataflow::Engine;
using dataflow::Graph;
using dataflow::MemoCache;
using dataflow::SharedMemoCache;
using db::Column;
using types::DataType;
using types::Value;

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, TasksMaySubmitFurtherTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    pool.Submit([&] {
      count.fetch_add(1);
      pool.Submit([&] { count.fetch_add(1); });
    });
  }
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

MemoCache::EntryPtr StampedEntry(uint64_t stamp) {
  auto entry = std::make_shared<MemoCache::Entry>();
  entry->stamp = stamp;
  return entry;
}

TEST(SharedMemoCacheTest, HitRefreshesRecency) {
  SharedMemoCache cache(2);
  MemoCache::EntryPtr a = StampedEntry(1);
  MemoCache::EntryPtr b = StampedEntry(2);
  MemoCache::EntryPtr c = StampedEntry(3);
  cache.Insert(a);
  cache.Insert(b);
  EXPECT_EQ(cache.Lookup(1), a);  // a is now more recent than b
  cache.Insert(c);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_EQ(cache.Lookup(1), a);
  EXPECT_EQ(cache.Lookup(3), c);
}

TEST(SharedMemoCacheTest, DuplicateStampKeepsFirstPublicationAndRefreshes) {
  SharedMemoCache cache(2);
  MemoCache::EntryPtr first = StampedEntry(1);
  cache.Insert(first);
  cache.Insert(StampedEntry(2));
  cache.Insert(StampedEntry(1));  // keeps `first`, which becomes most recent
  EXPECT_EQ(cache.stats().inserts, 2u);
  cache.Insert(StampedEntry(3));
  EXPECT_EQ(cache.Lookup(1), first);
  EXPECT_EQ(cache.Lookup(2), nullptr);
}

TEST(SharedMemoCacheTest, CapacityZeroHoldsOneEntry) {
  SharedMemoCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  MemoCache::EntryPtr b = StampedEntry(2);
  cache.Insert(StampedEntry(1));
  cache.Insert(b);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), b);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SharedMemoCacheTest, StatsAddUp) {
  SharedMemoCache cache(3);
  for (uint64_t stamp = 1; stamp <= 5; ++stamp) cache.Insert(StampedEntry(stamp));
  cache.Insert(StampedEntry(5));
  cache.Insert(nullptr);
  for (uint64_t stamp = 0; stamp <= 5; ++stamp) cache.Lookup(stamp);
  SharedMemoCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 5u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.inserts - stats.evictions, stats.entries);
  EXPECT_EQ(stats.hits, 3u);    // stamps 3, 4, 5
  EXPECT_EQ(stats.misses, 3u);  // stamps 0, 1, 2
}

// An evicted entry may hold the last reference to a large relation; it is
// released after Insert unlocks, so its destructor may even re-enter the
// cache (under the lock this would self-deadlock).
TEST(SharedMemoCacheTest, EvictedEntryIsReleasedOutsideTheLock) {
  bool released = false;
  SharedMemoCache cache(1);
  cache.Insert(MemoCache::EntryPtr(new MemoCache::Entry{1, {}},
                                   [&](const MemoCache::Entry* entry) {
                                     EXPECT_EQ(cache.stats().evictions, 1u);
                                     released = true;
                                     delete entry;
                                   }));
  cache.Insert(StampedEntry(2));
  EXPECT_TRUE(released);
}

/// Engine behaviour beyond engine_test's: two engines sharing one cache,
/// error messages, skip warnings, and the metrics observer.
class RuntimeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = db::MakeRelation({Column{"v", DataType::kInt}},
                                  {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)},
                                   {Value::Int(4)}})
                     .value();
    ASSERT_TRUE(catalog_.RegisterTable("T", table).ok());
  }

  /// table -> restrict("v > 1"), returning the restrict's id.
  std::string BuildChain() {
    std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
    std::string restrict =
        graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
    EXPECT_TRUE(graph_.Connect(table, 0, restrict, 0).ok());
    return restrict;
  }

  static Result<size_t> RowsOf(Result<BoxValue> value) {
    TIOGA2_ASSIGN_OR_RETURN(BoxValue v, std::move(value));
    TIOGA2_ASSIGN_OR_RETURN(display::Displayable d, dataflow::AsDisplayable(v));
    TIOGA2_ASSIGN_OR_RETURN(display::DisplayRelation r, display::AsRelation(d));
    return r.num_rows();
  }

  db::Catalog catalog_;
  Graph graph_;
};

TEST_F(RuntimeEngineTest, SharesCacheBetweenEngines) {
  std::string tail = BuildChain();
  Engine first(&catalog_);
  // A second engine memoizing into the first engine's cache.
  Engine second(&catalog_, nullptr, &first.cache());
  ASSERT_TRUE(RowsOf(second.Evaluate(graph_, tail, 0)).ok());
  EXPECT_EQ(second.stats().boxes_fired, 2u);
  // The first engine finds everything memoized: zero fires, two hits.
  ASSERT_TRUE(RowsOf(first.Evaluate(graph_, tail, 0)).ok());
  EXPECT_EQ(first.stats().boxes_fired, 0u);
  EXPECT_GE(first.stats().cache_hits, 1u);
  // And the reverse direction: the first engine's work is visible to the
  // second.
  ASSERT_TRUE(first.Invalidate(graph_, dataflow::Invalidation::All()).ok());
  ASSERT_TRUE(RowsOf(first.Evaluate(graph_, tail, 0)).ok());
  second.ResetStats();
  ASSERT_TRUE(RowsOf(second.Evaluate(graph_, tail, 0)).ok());
  EXPECT_EQ(second.stats().boxes_fired, 0u);
}

TEST_F(RuntimeEngineTest, ErrorCodesAndMessages) {
  std::string lone =
      graph_.AddBox(std::make_unique<RestrictBox>("v > 0")).value();
  Engine engine(&catalog_);
  Status dangling = engine.Evaluate(graph_, lone, 0).status();
  EXPECT_TRUE(dangling.IsFailedPrecondition());
  EXPECT_EQ(dangling.message(),
            "box '" + lone + "' (Restrict) input 0 is not connected");

  // Missing table, bad output port, unknown box.
  std::string bad = graph_.AddBox(std::make_unique<TableBox>("Nope")).value();
  EXPECT_TRUE(engine.Evaluate(graph_, bad, 0).status().IsNotFound());
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  Status oor = engine.Evaluate(graph_, table, 3).status();
  EXPECT_TRUE(oor.IsOutOfRange());
  EXPECT_EQ(oor.message(), "box '" + table + "' has no output 3");
  EXPECT_TRUE(engine.Evaluate(graph_, "missing", 0).status().IsNotFound());
}

TEST_F(RuntimeEngineTest, EvaluateAllWarnsForEachSkippedBox) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string a = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  std::string dangling =
      graph_.AddBox(std::make_unique<RestrictBox>("v > 3")).value();
  std::string downstream =
      graph_.AddBox(std::make_unique<RestrictBox>("v > 4")).value();
  ASSERT_TRUE(graph_.Connect(table, 0, a, 0).ok());
  ASSERT_TRUE(graph_.Connect(dangling, 0, downstream, 0).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(engine.EvaluateAll(graph_).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 2u);
  EXPECT_EQ(engine.stats().boxes_skipped, 2u);
  // Each skipped box is reported, with why, in box order.
  EXPECT_EQ(engine.warnings(),
            (std::vector<std::string>{
                "EvaluateAll: skipped box '" + dangling +
                    "' (dangling input, cannot fire)",
                "EvaluateAll: skipped box '" + downstream +
                    "' (upstream of it has a dangling input)"}));
}

TEST_F(RuntimeEngineTest, RecordsMetrics) {
  std::string tail = BuildChain();
  Metrics metrics;
  Engine engine(&catalog_);
  engine.set_observer(&metrics);
  ASSERT_TRUE(RowsOf(engine.Evaluate(graph_, tail, 0)).ok());
  ASSERT_TRUE(RowsOf(engine.Evaluate(graph_, tail, 0)).ok());
  MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.boxes_fired, 2u);
  EXPECT_EQ(snap.cache_misses, 2u);
  EXPECT_GE(snap.cache_hits, 1u);
  // JSON export contains every section and the fired box types.
  std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"box_fires\""), std::string::npos);
  EXPECT_NE(json.find("\"Table\""), std::string::npos);
  EXPECT_NE(json.find("\"Restrict\""), std::string::npos);
  // The batch_eval section reports the SIMD dispatch tier and the
  // simd-vs-scalar kernel counts (present — if zero — even when the tiers
  // are compiled out or the CPU lacks them).
  EXPECT_NE(json.find("\"batch_eval\""), std::string::npos);
  EXPECT_NE(json.find("\"simd_level\""), std::string::npos);
  EXPECT_NE(json.find("\"simd_batches_sse2\""), std::string::npos);
  EXPECT_NE(json.find("\"simd_batches_avx2\""), std::string::npos);
  EXPECT_NE(json.find("\"simd_rows\""), std::string::npos);
  EXPECT_NE(json.find("\"simd_scalar_fallbacks\""), std::string::npos);
  // Dictionary-encoded string execution counters (likewise always present).
  EXPECT_NE(json.find("\"dict_columns_built\""), std::string::npos);
  EXPECT_NE(json.find("\"dict_simd_batches\""), std::string::npos);
  EXPECT_NE(json.find("\"sparse_gathers\""), std::string::npos);
}

/// Passes its first input through and raises one warning naming itself.
class WarnBox : public dataflow::Box {
 public:
  WarnBox(std::string label, size_t num_inputs)
      : label_(std::move(label)), num_inputs_(num_inputs) {}
  std::string type_name() const override { return "Warn"; }
  std::vector<dataflow::PortType> InputTypes() const override {
    return std::vector<dataflow::PortType>(num_inputs_,
                                           dataflow::PortType::Relation());
  }
  std::vector<dataflow::PortType> OutputTypes() const override {
    return {dataflow::PortType::Relation()};
  }
  Result<std::vector<BoxValue>> Fire(const std::vector<BoxValue>& inputs,
                                     const dataflow::ExecContext& ctx) const override {
    ctx.warnings.push_back("warning from " + label_);
    return std::vector<BoxValue>{inputs[0]};
  }
  std::map<std::string, std::string> Params() const override {
    return {{"label", label_}};
  }
  std::unique_ptr<dataflow::Box> Clone() const override {
    return std::make_unique<WarnBox>(label_, num_inputs_);
  }

 private:
  std::string label_;
  size_t num_inputs_;
};

TEST_F(RuntimeEngineTest, WarningsKeepPostOrder) {
  // T -> {z, a} -> m. Post-order fires z, a, m; box-id order is a, m, z.
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  ASSERT_TRUE(graph_.AddBox(std::make_unique<WarnBox>("z", 1), "z").ok());
  ASSERT_TRUE(graph_.AddBox(std::make_unique<WarnBox>("a", 1), "a").ok());
  ASSERT_TRUE(graph_.AddBox(std::make_unique<WarnBox>("m", 2), "m").ok());
  ASSERT_TRUE(graph_.Connect(table, 0, "z", 0).ok());
  ASSERT_TRUE(graph_.Connect(table, 0, "a", 0).ok());
  ASSERT_TRUE(graph_.Connect("z", 0, "m", 0).ok());
  ASSERT_TRUE(graph_.Connect("a", 0, "m", 1).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(engine.Evaluate(graph_, "m", 0).ok());
  EXPECT_EQ(engine.warnings(), (std::vector<std::string>{
                                   "warning from z", "warning from a",
                                   "warning from m"}));
}

TEST(LatencyHistogramTest, QuantilesAndCounts) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(10);  // 10 µs
  h.Record(100000);                            // one 100 ms outlier
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.max_micros(), 100000u);
  // p50 lands in the 10 µs bucket; its upper bound is well under the outlier.
  EXPECT_LE(h.QuantileUpperBoundMicros(0.5), 64u);
  EXPECT_GE(h.QuantileUpperBoundMicros(0.999), 65536u);
}

// Regression: the raw log2-bucket upper bound can exceed the largest
// observation (1100 µs sits in the [1024, 2048) bucket, bound 2048), which
// used to let metrics JSON report p99_us > max_us. Quantiles must clamp.
TEST(LatencyHistogramTest, QuantilesNeverExceedMax) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(1100);
  h.Record(1500);
  double p50 = h.QuantileUpperBoundMicros(0.5);
  double p99 = h.QuantileUpperBoundMicros(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, h.max_micros());
  EXPECT_EQ(p99, 1500.0);  // clamped from the 2048 bucket bound

  // Degenerate single-observation histogram: every quantile is the value's
  // bucket bound clamped to the value itself.
  LatencyHistogram one;
  one.Record(3.0);
  EXPECT_LE(one.QuantileUpperBoundMicros(0.5), one.max_micros());
  EXPECT_LE(one.QuantileUpperBoundMicros(0.99), one.max_micros());
}

TEST(MetricsJsonTest, EscapeJsonStringHandlesHostileInput) {
  EXPECT_EQ(EscapeJsonString("plain"), "plain");
  EXPECT_EQ(EscapeJsonString("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJsonString("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJsonString("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(EscapeJsonString(std::string("a\x01z", 3)), "a\\u0001z");
}

// Regression: request tags and box-type names are interpolated into JSON
// keys; a tag containing a quote or backslash used to split the key and
// corrupt the whole document.
TEST(MetricsJsonTest, HostileTagsAndBoxTypesAreEscaped) {
  Metrics metrics;
  metrics.RecordRequestComplete(10.0, "pan\"zoom\\deep");
  metrics.RecordBoxFire("Evil\"Box", 5.0);
  std::string json = metrics.ToJson();
  // The raw quote must never appear unescaped inside the keys.
  EXPECT_EQ(json.find("\"pan\"zoom"), std::string::npos);
  EXPECT_NE(json.find("\"pan\\\"zoom\\\\deep\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"Evil\\\"Box\":"), std::string::npos) << json;
  // Every quote in the document is either a delimiter or escaped: strip
  // escaped pairs, then the remaining quote count must be even.
  std::string without_escapes;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '\\' && i + 1 < json.size()) {
      ++i;  // drop the escape and the escaped character
      continue;
    }
    without_escapes += json[i];
  }
  size_t quotes = 0;
  for (char c : without_escapes) {
    if (c == '"') ++quotes;
  }
  EXPECT_EQ(quotes % 2, 0u) << json;
}

}  // namespace
}  // namespace tioga2::runtime
