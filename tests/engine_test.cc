// Tests for the lazy, memoizing dataflow engine (§2: "execution is lazy,
// evaluating only what is required to produce the demanded visualization").

#include <gtest/gtest.h>

#include "boxes/composite_boxes.h"
#include "boxes/relational_boxes.h"
#include "dataflow/engine.h"
#include "dataflow/t_box.h"
#include "db/relation.h"

namespace tioga2::dataflow {
namespace {

using boxes::RestrictBox;
using boxes::SampleBox;
using boxes::SwitchBox;
using boxes::TableBox;
using db::Column;
using types::DataType;
using types::Value;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = db::MakeRelation({Column{"v", DataType::kInt}},
                                  {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)},
                                   {Value::Int(4)}})
                     .value();
    ASSERT_TRUE(catalog_.RegisterTable("T", table).ok());
  }

  Result<size_t> RowsOf(Engine* engine, const std::string& box, size_t port = 0) {
    TIOGA2_ASSIGN_OR_RETURN(BoxValue value, engine->Evaluate(graph_, box, port));
    TIOGA2_ASSIGN_OR_RETURN(display::Displayable displayable, AsDisplayable(value));
    TIOGA2_ASSIGN_OR_RETURN(display::DisplayRelation relation,
                            display::AsRelation(displayable));
    return relation.num_rows();
  }

  db::Catalog catalog_;
  Graph graph_;
};

TEST_F(EngineTest, EvaluatesChain) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string restrict = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  ASSERT_TRUE(graph_.Connect(table, 0, restrict, 0).ok());
  Engine engine(&catalog_);
  EXPECT_EQ(RowsOf(&engine, restrict).value(), 3u);
  EXPECT_EQ(engine.stats().boxes_fired, 2u);
}

TEST_F(EngineTest, LazyEvaluatesOnlyDemandedBranch) {
  // table -> restrictA, table -> restrictB; demanding A must not fire B.
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string a = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  std::string b = graph_.AddBox(std::make_unique<RestrictBox>("v > 2")).value();
  ASSERT_TRUE(graph_.Connect(table, 0, a, 0).ok());
  ASSERT_TRUE(graph_.Connect(table, 0, b, 0).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(RowsOf(&engine, a).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 2u);  // table + a, not b
}

TEST_F(EngineTest, MemoizationAcrossEvaluations) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string restrict = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  ASSERT_TRUE(graph_.Connect(table, 0, restrict, 0).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(RowsOf(&engine, restrict).ok());
  uint64_t fired = engine.stats().boxes_fired;
  ASSERT_TRUE(RowsOf(&engine, restrict).ok());
  EXPECT_EQ(engine.stats().boxes_fired, fired);
  EXPECT_GE(engine.stats().cache_hits, 1u);
}

TEST_F(EngineTest, EditRefiresOnlyDownstream) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string mid = graph_.AddBox(std::make_unique<RestrictBox>("v > 0")).value();
  std::string tail = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  ASSERT_TRUE(graph_.Connect(table, 0, mid, 0).ok());
  ASSERT_TRUE(graph_.Connect(mid, 0, tail, 0).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(RowsOf(&engine, tail).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 3u);
  // Edit the tail box: only the tail re-fires.
  ASSERT_TRUE(graph_.ReplaceBox(tail, std::make_unique<RestrictBox>("v > 2")).ok());
  EXPECT_EQ(RowsOf(&engine, tail).value(), 2u);  // {3, 4}
  EXPECT_EQ(engine.stats().boxes_fired, 4u);
  // Edit the mid box: mid and tail re-fire, the table does not.
  ASSERT_TRUE(graph_.ReplaceBox(mid, std::make_unique<RestrictBox>("v >= 0")).ok());
  ASSERT_TRUE(RowsOf(&engine, tail).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 6u);
}

TEST_F(EngineTest, TableVersionInvalidatesCache) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  Engine engine(&catalog_);
  EXPECT_EQ(RowsOf(&engine, table).value(), 4u);
  // A §8 update replaces the table contents and bumps the version.
  auto updated = db::MakeRelation({Column{"v", DataType::kInt}}, {{Value::Int(9)}})
                     .value();
  ASSERT_TRUE(catalog_.ReplaceTable("T", updated).ok());
  EXPECT_EQ(RowsOf(&engine, table).value(), 1u);
}

TEST_F(EngineTest, MultiOutputSwitchPartitions) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string sw = graph_.AddBox(std::make_unique<SwitchBox>("v % 2 = 0")).value();
  ASSERT_TRUE(graph_.Connect(table, 0, sw, 0).ok());
  Engine engine(&catalog_);
  EXPECT_EQ(RowsOf(&engine, sw, 0).value(), 2u);  // even
  EXPECT_EQ(RowsOf(&engine, sw, 1).value(), 2u);  // odd
  // Both outputs come from one firing.
  EXPECT_EQ(engine.stats().boxes_fired, 2u);
}

TEST_F(EngineTest, TBoxDuplicates) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string t = graph_.AddBox(std::make_unique<TBox>(PortType::Relation())).value();
  ASSERT_TRUE(graph_.Connect(table, 0, t, 0).ok());
  Engine engine(&catalog_);
  EXPECT_EQ(RowsOf(&engine, t, 0).value(), 4u);
  EXPECT_EQ(RowsOf(&engine, t, 1).value(), 4u);
}

TEST_F(EngineTest, DanglingInputFailsCleanly) {
  std::string restrict = graph_.AddBox(std::make_unique<RestrictBox>("v > 0")).value();
  Engine engine(&catalog_);
  EXPECT_TRUE(engine.Evaluate(graph_, restrict, 0).status().IsFailedPrecondition());
}

TEST_F(EngineTest, MissingTableSurfacesError) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("Nope")).value();
  Engine engine(&catalog_);
  EXPECT_TRUE(engine.Evaluate(graph_, table, 0).status().IsNotFound());
}

TEST_F(EngineTest, BadOutputPort) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  Engine engine(&catalog_);
  EXPECT_TRUE(engine.Evaluate(graph_, table, 3).status().IsOutOfRange());
  EXPECT_TRUE(engine.Evaluate(graph_, "missing", 0).status().IsNotFound());
}

TEST_F(EngineTest, EagerEvaluatesAllAndSkipsDangling) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string a = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  std::string b = graph_.AddBox(std::make_unique<RestrictBox>("v > 2")).value();
  std::string dangling = graph_.AddBox(std::make_unique<RestrictBox>("v > 3")).value();
  std::string downstream = graph_.AddBox(std::make_unique<RestrictBox>("v > 4")).value();
  ASSERT_TRUE(graph_.Connect(table, 0, a, 0).ok());
  ASSERT_TRUE(graph_.Connect(table, 0, b, 0).ok());
  ASSERT_TRUE(graph_.Connect(dangling, 0, downstream, 0).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(engine.EvaluateAll(graph_).ok());
  // table, a, b fired; dangling and its downstream skipped.
  EXPECT_EQ(engine.stats().boxes_fired, 3u);
  EXPECT_EQ(engine.stats().boxes_skipped, 2u);
  // Each skipped box is reported so the GUI can flag it (§3).
  EXPECT_EQ(engine.warnings().size(), 2u);
}

TEST_F(EngineTest, InvalidateDownstreamOfEvictsOnlyAffectedBoxes) {
  // Two independent chains over two tables; editing U must leave T's chain
  // memoized (§8: other canvases stay warm after a single-table update).
  auto other = db::MakeRelation({Column{"w", DataType::kInt}},
                                {{Value::Int(10)}, {Value::Int(20)}})
                   .value();
  ASSERT_TRUE(catalog_.RegisterTable("U", other).ok());
  std::string t = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string t_tail = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  std::string u = graph_.AddBox(std::make_unique<TableBox>("U")).value();
  std::string u_tail = graph_.AddBox(std::make_unique<RestrictBox>("w > 5")).value();
  ASSERT_TRUE(graph_.Connect(t, 0, t_tail, 0).ok());
  ASSERT_TRUE(graph_.Connect(u, 0, u_tail, 0).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(RowsOf(&engine, t_tail).ok());
  ASSERT_TRUE(RowsOf(&engine, u_tail).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 4u);
  // Evicts exactly U's chain: the table box and its downstream restrict.
  EXPECT_EQ(engine.Invalidate(graph_, Invalidation::DownstreamOf("U"))
                .value()
                .entries_evicted,
            2u);
  ASSERT_TRUE(RowsOf(&engine, u_tail).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 6u);  // u + u_tail re-fired
  ASSERT_TRUE(RowsOf(&engine, t_tail).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 6u);  // T's chain stayed memoized
}

TEST_F(EngineTest, InvalidateAllForcesRecompute) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  Engine engine(&catalog_);
  ASSERT_TRUE(RowsOf(&engine, table).ok());
  EXPECT_EQ(engine.Invalidate(graph_, Invalidation::All()).value().entries_evicted,
            1u);
  ASSERT_TRUE(RowsOf(&engine, table).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST_F(EngineTest, DiamondCountsEachBoxOncePerEvaluation) {
  // table -> {a, b} -> overlay: the table is reached along two paths, but
  // one evaluation resolves it once.
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string a = graph_.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  std::string b = graph_.AddBox(std::make_unique<RestrictBox>("v > 2")).value();
  std::string overlay =
      graph_.AddBox(std::make_unique<boxes::OverlayBox>(std::vector<double>{}))
          .value();
  ASSERT_TRUE(graph_.Connect(table, 0, a, 0).ok());
  ASSERT_TRUE(graph_.Connect(table, 0, b, 0).ok());
  ASSERT_TRUE(graph_.Connect(a, 0, overlay, 0).ok());
  ASSERT_TRUE(graph_.Connect(b, 0, overlay, 1).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(engine.Evaluate(graph_, overlay, 0).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 4u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  // Warm: every box of the closure hits exactly once.
  engine.ResetStats();
  ASSERT_TRUE(engine.Evaluate(graph_, overlay, 0).ok());
  EXPECT_EQ(engine.stats().boxes_fired, 0u);
  EXPECT_EQ(engine.stats().cache_hits, 4u);
}

TEST_F(EngineTest, SampleSeedChangesStamp) {
  std::string table = graph_.AddBox(std::make_unique<TableBox>("T")).value();
  std::string sample = graph_.AddBox(std::make_unique<SampleBox>(0.5, 1)).value();
  ASSERT_TRUE(graph_.Connect(table, 0, sample, 0).ok());
  Engine engine(&catalog_);
  ASSERT_TRUE(RowsOf(&engine, sample).ok());
  uint64_t fired = engine.stats().boxes_fired;
  ASSERT_TRUE(graph_.ReplaceBox(sample, std::make_unique<SampleBox>(0.5, 2)).ok());
  ASSERT_TRUE(RowsOf(&engine, sample).ok());
  EXPECT_EQ(engine.stats().boxes_fired, fired + 1);  // only the sample re-fired
}

}  // namespace
}  // namespace tioga2::dataflow
