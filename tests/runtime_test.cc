// Tests for the evaluation runtime: the ThreadPool, a dataflow::Engine whose
// boxes split their inputs into one-row morsels — equivalent to the default
// morsel size (same results, stamps, counters, warnings, and error messages)
// — the shared memo tier, and the metrics surface.

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

class EngineWithOneRowMorselsTest : public ::testing::Test {
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

  /// One-row morsels split even the 4-row table, so every Restrict the
  /// engine fires runs one morsel per row and merges them.
  static void SplitIntoOneRowMorsels(Engine* engine) {
    db::ExecPolicy policy = db::DefaultExecPolicy();
    policy.morsel_rows = 1;
    engine->set_exec_policy(policy);
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

TEST_F(EngineWithOneRowMorselsTest, MatchesInlineResultsAndStamps) {
  std::string tail = BuildChain();
  Engine serial(&catalog_);
  Engine split(&catalog_);
  SplitIntoOneRowMorsels(&split);
  EXPECT_EQ(RowsOf(serial.Evaluate(graph_, tail, 0)).value(), 3u);
  EXPECT_EQ(RowsOf(split.Evaluate(graph_, tail, 0)).value(), 3u);
  // Identical stamp algebra: both caches hold the same stamps per box.
  std::vector<std::string> order = graph_.TopologicalOrder().value();
  for (const std::string& id : order) {
    ASSERT_TRUE(serial.cache().StampOf(id).has_value()) << id;
    EXPECT_EQ(serial.cache().StampOf(id), split.cache().StampOf(id)) << id;
  }
}

TEST_F(EngineWithOneRowMorselsTest, WideProgramMatchesInline) {
  // One table feeding 16 restricts feeding nothing — EvaluateAll fires all
  // 16, each split into one-row morsels; results must match the default
  // engine box for box.
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::vector<std::string> tails;
  for (int i = 0; i < 16; ++i) {
    std::string r = graph_
                        .AddBox(std::make_unique<RestrictBox>(
                            "v > " + std::to_string(i % 4)))
                        .value();
    ASSERT_TRUE(graph_.Connect(table, 0, r, 0).ok());
    tails.push_back(r);
  }
  Engine serial(&catalog_);
  Engine split(&catalog_);
  SplitIntoOneRowMorsels(&split);
  ASSERT_TRUE(split.EvaluateAll(graph_).ok());
  EXPECT_EQ(split.stats().boxes_fired, 17u);
  for (const std::string& tail : tails) {
    EXPECT_EQ(RowsOf(serial.Evaluate(graph_, tail, 0)).value(),
              RowsOf(split.Evaluate(graph_, tail, 0)).value())
        << tail;
    EXPECT_EQ(serial.cache().StampOf(tail), split.cache().StampOf(tail));
  }
}

TEST_F(EngineWithOneRowMorselsTest, SharesCacheWithInlineEngine) {
  std::string tail = BuildChain();
  Engine serial(&catalog_);
  // An engine with one-row morsels memoizing into the default engine's cache.
  Engine split(&catalog_, nullptr, &serial.cache());
  SplitIntoOneRowMorsels(&split);
  ASSERT_TRUE(RowsOf(split.Evaluate(graph_, tail, 0)).ok());
  EXPECT_EQ(split.stats().boxes_fired, 2u);
  // The default engine finds everything memoized: zero fires, two hits.
  ASSERT_TRUE(RowsOf(serial.Evaluate(graph_, tail, 0)).ok());
  EXPECT_EQ(serial.stats().boxes_fired, 0u);
  EXPECT_GE(serial.stats().cache_hits, 1u);
  // And the reverse direction: the default engine's work is visible to the
  // split engine.
  ASSERT_TRUE(serial.Invalidate(graph_, dataflow::Invalidation::All()).ok());
  ASSERT_TRUE(RowsOf(serial.Evaluate(graph_, tail, 0)).ok());
  split.ResetStats();
  ASSERT_TRUE(RowsOf(split.Evaluate(graph_, tail, 0)).ok());
  EXPECT_EQ(split.stats().boxes_fired, 0u);
}

TEST_F(EngineWithOneRowMorselsTest, ErrorMessagesMatchInline) {
  std::string lone =
      graph_.AddBox(std::make_unique<RestrictBox>("v > 0")).value();
  Engine serial(&catalog_);
  Engine split(&catalog_);
  SplitIntoOneRowMorsels(&split);
  Status serial_status = serial.Evaluate(graph_, lone, 0).status();
  Status split_status = split.Evaluate(graph_, lone, 0).status();
  EXPECT_TRUE(serial_status.IsFailedPrecondition());
  EXPECT_TRUE(split_status.IsFailedPrecondition());
  EXPECT_EQ(serial_status.message(), split_status.message());

  // Missing table, bad output port, unknown box: same codes as the default.
  std::string bad = graph_.AddBox(std::make_unique<TableBox>("Nope")).value();
  EXPECT_TRUE(split.Evaluate(graph_, bad, 0).status().IsNotFound());
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  Status oor = split.Evaluate(graph_, table, 3).status();
  EXPECT_TRUE(oor.IsOutOfRange());
  EXPECT_EQ(oor.message(),
            serial.Evaluate(graph_, table, 3).status().message());
  EXPECT_TRUE(split.Evaluate(graph_, "missing", 0).status().IsNotFound());
}

TEST_F(EngineWithOneRowMorselsTest, EvaluateAllSkipsDanglingLikeInline) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string a = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  std::string dangling =
      graph_.AddBox(std::make_unique<RestrictBox>("v > 3")).value();
  std::string downstream =
      graph_.AddBox(std::make_unique<RestrictBox>("v > 4")).value();
  ASSERT_TRUE(graph_.Connect(table, 0, a, 0).ok());
  ASSERT_TRUE(graph_.Connect(dangling, 0, downstream, 0).ok());
  Engine serial(&catalog_);
  ASSERT_TRUE(serial.EvaluateAll(graph_).ok());
  Engine split(&catalog_);
  SplitIntoOneRowMorsels(&split);
  ASSERT_TRUE(split.EvaluateAll(graph_).ok());
  EXPECT_EQ(split.stats().boxes_fired, serial.stats().boxes_fired);
  EXPECT_EQ(split.stats().boxes_skipped, serial.stats().boxes_skipped);
  EXPECT_EQ(split.stats().boxes_skipped, 2u);
  EXPECT_EQ(split.warnings(), serial.warnings());
}

TEST_F(EngineWithOneRowMorselsTest, MemoizesAcrossEvaluations) {
  std::string tail = BuildChain();
  Engine engine(&catalog_);
  SplitIntoOneRowMorsels(&engine);
  ASSERT_TRUE(RowsOf(engine.Evaluate(graph_, tail, 0)).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 2u);
  ASSERT_TRUE(RowsOf(engine.Evaluate(graph_, tail, 0)).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 2u);
  EXPECT_GE(engine.stats().cache_hits, 1u);
}

TEST_F(EngineWithOneRowMorselsTest, InvalidateDownstreamOfEvictsOnlyAffectedBoxes) {
  auto other = db::MakeRelation({Column{"w", DataType::kInt}},
                                {{Value::Int(10)}, {Value::Int(20)}})
                   .value();
  ASSERT_TRUE(catalog_.RegisterTable("U", other).ok());
  std::string t_tail = BuildChain();
  std::string u = graph_.AddBox(std::make_unique<TableBox>("U")).value();
  std::string u_tail =
      graph_.AddBox(std::make_unique<RestrictBox>("w > 5")).value();
  ASSERT_TRUE(graph_.Connect(u, 0, u_tail, 0).ok());
  Engine engine(&catalog_);
  SplitIntoOneRowMorsels(&engine);
  ASSERT_TRUE(RowsOf(engine.Evaluate(graph_, t_tail, 0)).ok());
  ASSERT_TRUE(RowsOf(engine.Evaluate(graph_, u_tail, 0)).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 4u);
  EXPECT_EQ(engine.Invalidate(graph_, dataflow::Invalidation::DownstreamOf("U"))
                .value()
                .entries_evicted,
            2u);
  ASSERT_TRUE(RowsOf(engine.Evaluate(graph_, u_tail, 0)).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 6u);  // U's chain re-fired
  ASSERT_TRUE(RowsOf(engine.Evaluate(graph_, t_tail, 0)).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 6u);  // T's chain stayed memoized
}

TEST_F(EngineWithOneRowMorselsTest, RecordsMetrics) {
  std::string tail = BuildChain();
  Metrics metrics;
  Engine engine(&catalog_);
  SplitIntoOneRowMorsels(&engine);
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
  EXPECT_NE(json.find("\"dict_remap_fallbacks\""), std::string::npos);
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

TEST_F(EngineWithOneRowMorselsTest, WarningsKeepPostOrder) {
  // T -> {z, a} -> m. Post-order fires z, a, m; box-id order is a, m, z.
  // Warnings are reported in post-order under every morsel size.
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  ASSERT_TRUE(graph_.AddBox(std::make_unique<WarnBox>("z", 1), "z").ok());
  ASSERT_TRUE(graph_.AddBox(std::make_unique<WarnBox>("a", 1), "a").ok());
  ASSERT_TRUE(graph_.AddBox(std::make_unique<WarnBox>("m", 2), "m").ok());
  ASSERT_TRUE(graph_.Connect(table, 0, "z", 0).ok());
  ASSERT_TRUE(graph_.Connect(table, 0, "a", 0).ok());
  ASSERT_TRUE(graph_.Connect("z", 0, "m", 0).ok());
  ASSERT_TRUE(graph_.Connect("a", 0, "m", 1).ok());
  const std::vector<std::string> expected = {
      "warning from z", "warning from a", "warning from m"};

  Engine serial(&catalog_);
  ASSERT_TRUE(serial.Evaluate(graph_, "m", 0).ok());
  EXPECT_EQ(serial.warnings(), expected);
  Engine split(&catalog_);
  SplitIntoOneRowMorsels(&split);
  ASSERT_TRUE(split.Evaluate(graph_, "m", 0).ok());
  EXPECT_EQ(split.warnings(), serial.warnings());
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
