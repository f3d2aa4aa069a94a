// Tests for Encapsulate (§4.1): user-defined boxes from program regions,
// holes as macro parameters, and nested evaluation.

#include <gtest/gtest.h>

#include "boxes/relational_boxes.h"
#include "dataflow/encapsulate.h"
#include "dataflow/engine.h"
#include "db/relation.h"
#include "expr/batch.h"

namespace tioga2::dataflow {
namespace {

using boxes::ProjectBox;
using boxes::RestrictBox;
using boxes::SampleBox;
using boxes::TableBox;
using db::Column;
using types::DataType;
using types::Value;

class EncapsulateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = db::MakeRelation({Column{"v", DataType::kInt}},
                                  {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)},
                                   {Value::Int(4)}, {Value::Int(5)}})
                     .value();
    ASSERT_TRUE(catalog_.RegisterTable("T", table).ok());
  }

  Result<size_t> RowsOf(Engine* engine, const Graph& graph, const std::string& box,
                        size_t port = 0) {
    TIOGA2_ASSIGN_OR_RETURN(BoxValue value, engine->Evaluate(graph, box, port));
    TIOGA2_ASSIGN_OR_RETURN(display::Displayable displayable, AsDisplayable(value));
    TIOGA2_ASSIGN_OR_RETURN(display::DisplayRelation relation,
                            display::AsRelation(displayable));
    return relation.num_rows();
  }

  db::Catalog catalog_;
};

TEST_F(EncapsulateTest, RegionBecomesBoxWithCutEdges) {
  // T -> r1 -> r2 -> r3; encapsulate {r1, r2}. The cut edges become one
  // input (from T) and one output (to r3).
  Graph graph;
  std::string table = graph.AddBox(std::make_unique<TableBox>("T")).value();
  std::string r1 = graph.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  std::string r2 = graph.AddBox(std::make_unique<RestrictBox>("v > 2")).value();
  std::string r3 = graph.AddBox(std::make_unique<RestrictBox>("v > 3")).value();
  ASSERT_TRUE(graph.Connect(table, 0, r1, 0).ok());
  ASSERT_TRUE(graph.Connect(r1, 0, r2, 0).ok());
  ASSERT_TRUE(graph.Connect(r2, 0, r3, 0).ok());

  auto encap = EncapsulateSubgraph(graph, {r1, r2}, {}, "double_filter");
  ASSERT_TRUE(encap.ok()) << encap.status().ToString();
  EXPECT_EQ((*encap)->InputTypes().size(), 1u);
  EXPECT_EQ((*encap)->OutputTypes().size(), 1u);
  EXPECT_EQ((*encap)->name(), "double_filter");
  EXPECT_TRUE((*encap)->HoleIds().empty());

  // Use the new box in a fresh program: T -> encap -> (rows).
  Graph program;
  std::string src = program.AddBox(std::make_unique<TableBox>("T")).value();
  std::string composite = program.AddBox((*encap)->Clone()).value();
  ASSERT_TRUE(program.Connect(src, 0, composite, 0).ok());
  Engine engine(&catalog_);
  EXPECT_EQ(RowsOf(&engine, program, composite).value(), 3u);  // v in {3,4,5}
}

TEST_F(EncapsulateTest, RegionWithSourceInsideNeedsNoInputs) {
  Graph graph;
  std::string table = graph.AddBox(std::make_unique<TableBox>("T")).value();
  std::string r1 = graph.AddBox(std::make_unique<RestrictBox>("v > 3")).value();
  ASSERT_TRUE(graph.Connect(table, 0, r1, 0).ok());
  auto encap = EncapsulateSubgraph(graph, {table, r1}, {}, "canned_query");
  ASSERT_TRUE(encap.ok()) << encap.status().ToString();
  EXPECT_TRUE((*encap)->InputTypes().empty());
  Graph program;
  std::string box = program.AddBox((*encap)->Clone()).value();
  Engine engine(&catalog_);
  EXPECT_EQ(RowsOf(&engine, program, box).value(), 2u);
}

TEST_F(EncapsulateTest, HolesActAsMacroParameters) {
  // T -> hole -> r2; the hole is filled at instantiation (§4.1 "higher-order
  // function").
  Graph graph;
  std::string table = graph.AddBox(std::make_unique<TableBox>("T")).value();
  std::string hole = graph.AddBox(std::make_unique<RestrictBox>("v > 0")).value();
  std::string r2 = graph.AddBox(std::make_unique<RestrictBox>("v < 5")).value();
  ASSERT_TRUE(graph.Connect(table, 0, hole, 0).ok());
  ASSERT_TRUE(graph.Connect(hole, 0, r2, 0).ok());

  auto encap = EncapsulateSubgraph(graph, {hole, r2}, {hole}, "filter_then_cap");
  ASSERT_TRUE(encap.ok()) << encap.status().ToString();
  EXPECT_EQ((*encap)->HoleIds().size(), 1u);

  // Firing with an unfilled hole fails.
  Graph bad;
  std::string src_bad = bad.AddBox(std::make_unique<TableBox>("T")).value();
  std::string unfilled = bad.AddBox((*encap)->Clone()).value();
  ASSERT_TRUE(bad.Connect(src_bad, 0, unfilled, 0).ok());
  Engine bad_engine(&catalog_);
  EXPECT_TRUE(
      bad_engine.Evaluate(bad, unfilled, 0).status().IsFailedPrecondition());

  // Fill the hole with "v > 2" -> {3, 4}.
  std::vector<BoxPtr> fillers;
  fillers.push_back(std::make_unique<RestrictBox>("v > 2"));
  auto filled = (*encap)->FillHoles(std::move(fillers));
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  Graph program;
  std::string src = program.AddBox(std::make_unique<TableBox>("T")).value();
  std::string box = program.AddBox(std::move(*filled)).value();
  ASSERT_TRUE(program.Connect(src, 0, box, 0).ok());
  Engine engine(&catalog_);
  EXPECT_EQ(RowsOf(&engine, program, box).value(), 2u);
}

TEST_F(EncapsulateTest, FillHolesValidation) {
  Graph graph;
  std::string hole = graph.AddBox(std::make_unique<RestrictBox>("v > 0")).value();
  auto encap = EncapsulateSubgraph(graph, {hole}, {hole}, "only_hole");
  ASSERT_TRUE(encap.ok());
  // Wrong filler count.
  EXPECT_TRUE((*encap)->FillHoles({}).status().IsInvalidArgument());
  // Wrong signature: Table (0 inputs) cannot fill an R -> R hole.
  std::vector<BoxPtr> wrong;
  wrong.push_back(std::make_unique<TableBox>("T"));
  EXPECT_TRUE((*encap)->FillHoles(std::move(wrong)).status().IsTypeError());
}

TEST_F(EncapsulateTest, RegionValidation) {
  Graph graph;
  std::string r1 = graph.AddBox(std::make_unique<RestrictBox>("v > 0")).value();
  EXPECT_TRUE(EncapsulateSubgraph(graph, {"missing"}, {}, "x").status().IsNotFound());
  EXPECT_TRUE(EncapsulateSubgraph(graph, {r1}, {"missing"}, "x")
                  .status()
                  .IsInvalidArgument());
  // A region exporting no outputs is rejected (a lone Viewer, say).
  Graph sink_graph;
  std::string viewer =
      sink_graph.AddBox(std::make_unique<boxes::ViewerBox>("c")).value();
  EXPECT_TRUE(EncapsulateSubgraph(sink_graph, {viewer}, {}, "x")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EncapsulateTest, NestedEncapsulation) {
  // Encapsulate a box that itself contains an encapsulated box. Only edges
  // cut by the region boundary become inputs, so each region needs a feeder.
  Graph graph;
  std::string feeder = graph.AddBox(std::make_unique<TableBox>("T")).value();
  std::string r1 = graph.AddBox(std::make_unique<RestrictBox>("v > 1")).value();
  ASSERT_TRUE(graph.Connect(feeder, 0, r1, 0).ok());
  auto inner = EncapsulateSubgraph(graph, {r1}, {}, "inner");
  ASSERT_TRUE(inner.ok());
  ASSERT_EQ((*inner)->InputTypes().size(), 1u);

  Graph outer_graph;
  std::string outer_feeder = outer_graph.AddBox(std::make_unique<TableBox>("T")).value();
  std::string inner_box = outer_graph.AddBox((*inner)->Clone()).value();
  std::string r2 = outer_graph.AddBox(std::make_unique<RestrictBox>("v > 2")).value();
  ASSERT_TRUE(outer_graph.Connect(outer_feeder, 0, inner_box, 0).ok());
  ASSERT_TRUE(outer_graph.Connect(inner_box, 0, r2, 0).ok());
  auto outer = EncapsulateSubgraph(outer_graph, {inner_box, r2}, {}, "outer");
  ASSERT_TRUE(outer.ok()) << outer.status().ToString();
  ASSERT_EQ((*outer)->InputTypes().size(), 1u);

  Graph program;
  std::string src = program.AddBox(std::make_unique<TableBox>("T")).value();
  std::string box = program.AddBox((*outer)->Clone()).value();
  ASSERT_TRUE(program.Connect(src, 0, box, 0).ok());
  Engine engine(&catalog_);
  EXPECT_EQ(RowsOf(&engine, program, box).value(), 3u);  // v in {3,4,5}
}

TEST_F(EncapsulateTest, InnerBoxesRunUnderTheCallersPolicy) {
  // A scalar-pinned engine must stay scalar inside §4.1 boxes too: the
  // nested engine inherits the caller's policy, so a wrapped Restrict runs
  // no vectorized batch, exactly like a plain one.
  Graph region;
  std::string inner_src = region.AddBox(std::make_unique<TableBox>("T")).value();
  std::string inner = region.AddBox(std::make_unique<RestrictBox>("v > 2")).value();
  ASSERT_TRUE(region.Connect(inner_src, 0, inner, 0).ok());
  auto encap = EncapsulateSubgraph(region, {inner}, {}, "filter");
  ASSERT_TRUE(encap.ok()) << encap.status().ToString();

  Graph plain;
  std::string plain_src = plain.AddBox(std::make_unique<TableBox>("T")).value();
  std::string plain_tail =
      plain.AddBox(std::make_unique<RestrictBox>("v > 2")).value();
  ASSERT_TRUE(plain.Connect(plain_src, 0, plain_tail, 0).ok());
  Graph wrapped;
  std::string wrapped_src = wrapped.AddBox(std::make_unique<TableBox>("T")).value();
  std::string wrapped_tail = wrapped.AddBox((*encap)->Clone()).value();
  ASSERT_TRUE(wrapped.Connect(wrapped_src, 0, wrapped_tail, 0).ok());

  db::ExecPolicy scalar;
  scalar.vectorized = false;
  scalar.simd = db::SimdLevel::kScalar;
  const std::atomic<uint64_t>& batches =
      expr::BatchMetrics::Global().restrict_batches;
  for (const auto& [graph, tail] :
       {std::pair<const Graph*, std::string>{&plain, plain_tail},
        std::pair<const Graph*, std::string>{&wrapped, wrapped_tail}}) {
    Engine engine(&catalog_);
    engine.set_exec_policy(scalar);
    uint64_t before = batches.load();
    EXPECT_EQ(RowsOf(&engine, *graph, tail).value(), 3u);  // v in {3,4,5}
    EXPECT_EQ(batches.load(), before) << tail;
  }
}

TEST_F(EncapsulateTest, InputStubOutsideEncapsulationFails) {
  Graph graph;
  std::string stub =
      graph.AddBox(std::make_unique<InputStub>(0, PortType::Relation())).value();
  Engine engine(&catalog_);
  EXPECT_TRUE(engine.Evaluate(graph, stub, 0).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace tioga2::dataflow
