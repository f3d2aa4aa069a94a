// Tests for Save/Load Program serialization (Figure 2) and the box registry.

#include <gtest/gtest.h>

#include "boxes/box_registry.h"
#include "boxes/composite_boxes.h"
#include "boxes/program_io.h"
#include "boxes/relational_boxes.h"
#include "dataflow/encapsulate.h"
#include "dataflow/engine.h"
#include "db/relation.h"

namespace tioga2::boxes {
namespace {

using dataflow::Graph;
using dataflow::PortType;
using types::DataType;
using types::Value;

TEST(BoxRegistryTest, MakesEveryListedType) {
  // Every advertised box type is constructible with suitable parameters.
  const std::map<std::string, std::map<std::string, std::string>> kExamples = {
      {"AddAttribute", {{"name", "a"}, {"definition", "1 + 1"}}},
      {"AddLocationDimension", {{"attr", "alt"}}},
      {"CombineDisplays",
       {{"name", "c"}, {"first", "a"}, {"second", "b"}, {"dx", "0"}, {"dy", "1"}}},
      {"Const", {{"type", "int"}, {"value", "3"}}},
      {"Distinct", {}},
      {"GroupBy", {{"keys", "state"}, {"aggs", "count::n;avg:altitude:mean_alt"}}},
      {"Join", {{"predicate", "a = b"}}},
      {"Limit", {{"n", "10"}}},
      {"Lift",
       {{"type", "C"},
        {"group_member", "0"},
        {"member", "Stations"},
        {"inner", "Restrict"},
        {"inner.predicate", "x > 1"}}},
      {"Overlay", {{"offset", "1,2"}}},
      {"Project", {{"columns", "a,b"}}},
      {"RemoveAttribute", {{"name", "a"}}},
      {"RemoveLocationDimension", {{"dim", "2"}}},
      {"Replicate", {{"rows", "a > 1;a <= 1"}, {"columns", ""}}},
      {"Restrict", {{"predicate", "true"}}},
      {"Sample", {{"probability", "0.5"}, {"seed", "7"}}},
      {"ScaleAttribute", {{"name", "a"}, {"factor", "2"}}},
      {"SetAttribute", {{"name", "a"}, {"definition", "2"}}},
      {"SetDisplay", {{"attr", "d"}}},
      {"SetLocation", {{"dim", "0"}, {"attr", "lon"}}},
      {"SetName", {{"name", "n"}}},
      {"SetRange", {{"min", "0"}, {"max", "10"}}},
      {"Shuffle", {{"member", "m"}}},
      {"Sort", {{"column", "salary"}, {"ascending", "false"}}},
      {"Stitch", {{"arity", "2"}, {"layout", "tabular"}, {"columns", "2"}}},
      {"SwapAttributes", {{"a", "x"}, {"b", "y"}}},
      {"Switch", {{"predicate", "true"}}},
      {"T", {{"type", "R"}}},
      {"Table", {{"table", "Stations"}}},
      {"TranslateAttribute", {{"name", "a"}, {"delta", "3"}}},
      {"UnionAll", {}},
      {"Viewer", {{"canvas", "main"}}},
  };
  for (const std::string& type : AllBoxTypes()) {
    auto it = kExamples.find(type);
    ASSERT_NE(it, kExamples.end()) << "no example parameters for " << type;
    auto box = MakeBox(type, it->second);
    ASSERT_TRUE(box.ok()) << type << ": " << box.status().ToString();
    EXPECT_EQ((*box)->type_name(), type);
  }
}

TEST(BoxRegistryTest, ParamsRoundTripThroughMakeBox) {
  // Params() of a constructed box rebuild an identical box.
  auto original = MakeBox("Sample", {{"probability", "0.25"}, {"seed", "42"}}).value();
  auto rebuilt = MakeBox(original->type_name(), original->Params()).value();
  EXPECT_EQ(original->Params(), rebuilt->Params());
}

TEST(BoxRegistryTest, ErrorsForBadInput) {
  EXPECT_TRUE(MakeBox("NoSuchBox", {}).status().IsNotFound());
  EXPECT_TRUE(MakeBox("Restrict", {}).status().IsInvalidArgument());  // missing param
  for (const char* probability : {"x", "0.5abc"}) {
    EXPECT_TRUE(MakeBox("Sample", {{"probability", probability}, {"seed", "1"}})
                    .status()
                    .IsParseError())
        << probability;
  }
  EXPECT_TRUE(MakeBox("T", {{"type", "Z"}}).status().IsParseError());
  EXPECT_TRUE(MakeBox("Const", {{"type", "blob"}, {"value", "1"}})
                  .status()
                  .IsParseError());
  EXPECT_TRUE(MakeBox("Stitch", {{"arity", "2"}, {"layout", "diagonal"},
                                 {"columns", "2"}})
                  .status()
                  .IsParseError());
  // Unsigned parameters are digits only: "-1" must not wrap to 2^64-1, and
  // a value past UINT64_MAX must not saturate to it.
  for (const char* arity : {"-1", "+2", " 2", "", "2x", "18446744073709551616"}) {
    EXPECT_TRUE(MakeBox("Stitch", {{"arity", arity}, {"columns", "1"}})
                    .status()
                    .IsParseError())
        << "'" << arity << "'";
  }
  // An arity past the maximum is refused before a port is built.
  EXPECT_TRUE(MakeBox("Stitch", {{"arity", "100000000000"}, {"columns", "1"}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MakeBox("Stitch", {{"arity", "4097"}, {"columns", "1"}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MakeBox("Stitch", {{"arity", "4096"}, {"columns", "1"}}).ok());
}

TEST(BoxRegistryTest, StitchBoxClampsItsArity) {
  StitchBox wide(100000000000ull, display::GroupLayout::kHorizontal, 1);
  EXPECT_EQ(wide.InputTypes().size(), StitchBox::kMaxArity);
  StitchBox empty(0, display::GroupLayout::kHorizontal, 1);
  EXPECT_EQ(empty.InputTypes().size(), 1u);
}

TEST(BoxRegistryTest, EveryBoxTypeHasDocumentation) {
  for (const std::string& type : AllBoxTypes()) {
    auto doc = BoxDocumentation(type);
    ASSERT_TRUE(doc.ok()) << type;
    EXPECT_FALSE(doc->empty()) << type;
  }
  EXPECT_TRUE(BoxDocumentation("NoSuchBox").status().IsNotFound());
}

TEST(ApplyBoxTest, SingleRelationEdge) {
  auto candidates = ApplyBoxCandidates({PortType::Relation()});
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), "Restrict"),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), "Replicate"),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), "T"), candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), "Viewer"),
            candidates.end());
  EXPECT_EQ(std::find(candidates.begin(), candidates.end(), "Join"), candidates.end());
}

TEST(ApplyBoxTest, TwoRelationEdges) {
  auto candidates = ApplyBoxCandidates({PortType::Relation(), PortType::Relation()});
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), "Join"), candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), "Overlay"),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), "Stitch"),
            candidates.end());
}

TEST(ApplyBoxTest, GroupEdgeExcludesCompositeOps) {
  auto candidates = ApplyBoxCandidates({PortType::GroupT()});
  EXPECT_EQ(std::find(candidates.begin(), candidates.end(), "Shuffle"),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), "Viewer"),
            candidates.end());
  EXPECT_EQ(std::find(candidates.begin(), candidates.end(), "Restrict"),
            candidates.end());
}

TEST(ApplyBoxTest, ScalarEdgeOnlyGetsT) {
  auto candidates = ApplyBoxCandidates({PortType::Scalar(DataType::kInt)});
  EXPECT_EQ(candidates, (std::vector<std::string>{"T"}));
}

class ProgramIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = db::MakeRelation({db::Column{"v", DataType::kInt}},
                                  {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}})
                     .value();
    ASSERT_TRUE(catalog_.RegisterTable("T", table).ok());
  }

  db::Catalog catalog_;
};

TEST_F(ProgramIoTest, RoundTripSimpleProgram) {
  Graph graph;
  std::string table = graph.AddBox(std::make_unique<TableBox>("T"), "src").value();
  std::string restrict = graph.AddBox(
      MakeBox("Restrict", {{"predicate", "v > 1"}}).value(), "flt").value();
  std::string viewer =
      graph.AddBox(std::make_unique<ViewerBox>("main"), "view").value();
  ASSERT_TRUE(graph.Connect(table, 0, restrict, 0).ok());
  ASSERT_TRUE(graph.Connect(restrict, 0, viewer, 0).ok());

  std::string serialized = SerializeProgram(graph).value();
  EXPECT_NE(serialized.find("tioga2-program v1"), std::string::npos);
  EXPECT_NE(serialized.find("box src Table"), std::string::npos);
  EXPECT_NE(serialized.find("edge src:0 flt:0"), std::string::npos);

  Graph loaded = DeserializeProgram(serialized).value();
  EXPECT_EQ(loaded.num_boxes(), 3u);
  EXPECT_EQ(loaded.edges().size(), 2u);
  // Loaded program evaluates identically.
  dataflow::Engine engine(&catalog_);
  auto value = engine.Evaluate(loaded, "flt", 0);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  auto relation =
      display::AsRelation(std::get<display::Displayable>(*value)).value();
  EXPECT_EQ(relation.num_rows(), 2u);
}

TEST_F(ProgramIoTest, PredicatesWithQuotesSurvive) {
  Graph graph;
  std::string box =
      graph.AddBox(MakeBox("Restrict", {{"predicate", "name = \"LA \\\"x\\\"\""}})
                       .value())
          .value();
  std::string serialized = SerializeProgram(graph).value();
  Graph loaded = DeserializeProgram(serialized).value();
  auto original = graph.GetBox(box).value()->Params();
  auto roundtrip = loaded.GetBox(box).value()->Params();
  EXPECT_EQ(original, roundtrip);
}

TEST_F(ProgramIoTest, EncapsulatedBoxRoundTrips) {
  // Build a program with an encapsulated region and round-trip it.
  Graph region;
  std::string feeder = region.AddBox(std::make_unique<TableBox>("T"), "f").value();
  std::string r1 = region.AddBox(std::make_unique<RestrictBox>("v > 1"), "r1").value();
  ASSERT_TRUE(region.Connect(feeder, 0, r1, 0).ok());
  auto encap = dataflow::EncapsulateSubgraph(region, {"r1"}, {}, "filter").value();

  Graph graph;
  std::string src = graph.AddBox(std::make_unique<TableBox>("T"), "src").value();
  std::string box = graph.AddBox(std::move(encap), "enc").value();
  ASSERT_TRUE(graph.Connect(src, 0, box, 0).ok());

  std::string serialized = SerializeProgram(graph).value();
  EXPECT_NE(serialized.find("encap enc"), std::string::npos);
  EXPECT_NE(serialized.find("InputStub"), std::string::npos);

  Graph loaded = DeserializeProgram(serialized).value();
  dataflow::Engine engine(&catalog_);
  auto value = engine.Evaluate(loaded, "enc", 0);
  ASSERT_TRUE(value.ok()) << value.status().ToString() << "\n" << serialized;
  auto relation =
      display::AsRelation(std::get<display::Displayable>(*value)).value();
  EXPECT_EQ(relation.num_rows(), 2u);
}

TEST_F(ProgramIoTest, HolesSerializeStructurally) {
  Graph region;
  std::string src = region.AddBox(std::make_unique<TableBox>("T"), "f").value();
  std::string hole =
      region.AddBox(std::make_unique<RestrictBox>("v > 0"), "h").value();
  ASSERT_TRUE(region.Connect(src, 0, hole, 0).ok());
  auto encap = dataflow::EncapsulateSubgraph(region, {"h"}, {"h"}, "holey").value();
  Graph graph;
  std::string box = graph.AddBox(std::move(encap), "enc").value();
  std::string serialized = SerializeProgram(graph).value();
  EXPECT_NE(serialized.find("Hole"), std::string::npos);
  Graph loaded = DeserializeProgram(serialized).value();
  auto* reloaded = dynamic_cast<const dataflow::EncapsulatedBox*>(
      *loaded.GetBox("enc"));
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->HoleIds().size(), 1u);
  (void)box;
}

TEST_F(ProgramIoTest, MalformedProgramsRejected) {
  EXPECT_TRUE(DeserializeProgram("").status().IsParseError());
  EXPECT_TRUE(DeserializeProgram("not a program").status().IsParseError());
  EXPECT_TRUE(
      DeserializeProgram("tioga2-program v1\nbox x\n").status().IsParseError());
  EXPECT_TRUE(DeserializeProgram("tioga2-program v1\nbogus directive\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(DeserializeProgram("tioga2-program v1\nedge a:0\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(DeserializeProgram("tioga2-program v1\n}\n").status().IsParseError());
  EXPECT_TRUE(
      DeserializeProgram("tioga2-program v1\nencap e name=\"x\" {\n")
          .status()
          .IsParseError());  // missing close
  // A hostile Stitch arity is a ParseError or an InvalidArgument, never an
  // allocation of the size the file asks for.
  EXPECT_TRUE(DeserializeProgram("tioga2-program v1\nbox t Table table=\"T\"\n"
                                 "box s Stitch arity=\"-1\" columns=\"1\"\n"
                                 "edge t:0 s:0\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(DeserializeProgram("tioga2-program v1\nbox t Table table=\"T\"\n"
                                 "box s Stitch arity=\"100000000000\" "
                                 "columns=\"1\"\nedge t:0 s:0\n")
                  .status()
                  .IsInvalidArgument());
  // Edge ports are digits: an empty port is not port 0, and "-1" is not
  // 2^64-1.
  for (const char* edge : {"edge t: s:0", "edge t:0 s:", "edge t:-1 s:0",
                           "edge t:0 s:+0", "edge t:0x1 s:0"}) {
    EXPECT_TRUE(DeserializeProgram(std::string("tioga2-program v1\n"
                                               "box t Table table=\"T\"\n"
                                               "box s Stitch arity=\"1\" "
                                               "columns=\"1\"\n") +
                                   edge + "\n")
                    .status()
                    .IsParseError())
        << edge;
  }
  // Edges referencing unknown boxes fail at Connect.
  EXPECT_TRUE(DeserializeProgram("tioga2-program v1\nedge a:0 b:0\n")
                  .status()
                  .IsNotFound());
}

TEST_F(ProgramIoTest, CommentsAndBlankLinesIgnored) {
  std::string text =
      "tioga2-program v1\n"
      "# a comment\n"
      "\n"
      "box src Table table=\"T\"\n";
  Graph loaded = DeserializeProgram(text).value();
  EXPECT_EQ(loaded.num_boxes(), 1u);
}

}  // namespace
}  // namespace tioga2::boxes
