#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <thread>

#include "data/generators.h"
#include "db/catalog.h"
#include "db/csv.h"
#include "storage/format.h"

namespace tioga2::db {
namespace {

using types::DataType;
using types::Value;

RelationPtr SmallTable() {
  return MakeRelation({Column{"id", DataType::kInt}, Column{"name", DataType::kString}},
                      {{Value::Int(1), Value::String("a")},
                       {Value::Int(2), Value::String("b")}})
      .value();
}

TEST(CatalogTest, RegisterAndGet) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("T", SmallTable()).ok());
  EXPECT_TRUE(catalog.HasTable("T"));
  EXPECT_FALSE(catalog.HasTable("U"));
  EXPECT_EQ(catalog.GetTable("T").value()->num_rows(), 2u);
  EXPECT_TRUE(catalog.GetTable("U").status().IsNotFound());
  EXPECT_TRUE(catalog.RegisterTable("T", SmallTable()).IsAlreadyExists());
  EXPECT_TRUE(catalog.RegisterTable("", SmallTable()).IsInvalidArgument());
}

TEST(CatalogTest, VersionBumpsOnReplace) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("T", SmallTable()).ok());
  EXPECT_EQ(catalog.TableVersion("T").value(), 1u);
  ASSERT_TRUE(catalog.ReplaceTable("T", SmallTable()).ok());
  EXPECT_EQ(catalog.TableVersion("T").value(), 2u);
  EXPECT_TRUE(catalog.TableVersion("missing").status().IsNotFound());
}

TEST(CatalogTest, ReplaceRejectsSchemaChange) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("T", SmallTable()).ok());
  auto different =
      MakeRelation({Column{"other", DataType::kFloat}}, {{Value::Float(1)}}).value();
  EXPECT_TRUE(catalog.ReplaceTable("T", different).IsTypeError());
  EXPECT_TRUE(catalog.ReplaceTable("missing", SmallTable()).IsNotFound());
}

TEST(CatalogTest, DropTable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("T", SmallTable()).ok());
  ASSERT_TRUE(catalog.DropTable("T").ok());
  EXPECT_FALSE(catalog.HasTable("T"));
  EXPECT_TRUE(catalog.DropTable("T").IsNotFound());
}

TEST(CatalogTest, ListTablesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("zeta", SmallTable()).ok());
  ASSERT_TRUE(catalog.RegisterTable("alpha", SmallTable()).ok());
  EXPECT_EQ(catalog.ListTables(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(CatalogTest, ProgramsStoreAndOverwrite) {
  Catalog catalog;
  catalog.SaveProgram("p", "v1");
  catalog.SaveProgram("p", "v2");
  EXPECT_EQ(catalog.GetProgram("p").value(), "v2");
  EXPECT_TRUE(catalog.GetProgram("q").status().IsNotFound());
  catalog.SaveProgram("a", "x");
  EXPECT_EQ(catalog.ListPrograms(), (std::vector<std::string>{"a", "p"}));
}

// Regression: versions must be monotonic per *name*, not per table object.
// Before the version-floor fix, a drop/recreate restarted the counter at 1
// and a memo entry stamped against the old table's version 1 was wrongly
// considered fresh.
TEST(CatalogTest, VersionsStayMonotonicAcrossDropAndRecreate) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("T", SmallTable()).ok());
  ASSERT_TRUE(catalog.ReplaceTable("T", SmallTable()).ok());
  ASSERT_TRUE(catalog.ReplaceTable("T", SmallTable()).ok());
  EXPECT_EQ(catalog.TableVersion("T").value(), 3u);
  ASSERT_TRUE(catalog.DropTable("T").ok());
  EXPECT_EQ(catalog.version_floors().at("T"), 3u);

  ASSERT_TRUE(catalog.RegisterTable("T", SmallTable()).ok());
  EXPECT_GT(catalog.TableVersion("T").value(), 3u);  // never reuses a version
  EXPECT_EQ(catalog.TableVersion("T").value(), 4u);

  // A second cycle keeps climbing; the floor tracks the highest death.
  ASSERT_TRUE(catalog.DropTable("T").ok());
  EXPECT_EQ(catalog.version_floors().at("T"), 4u);
  ASSERT_TRUE(catalog.RegisterTable("T", SmallTable()).ok());
  EXPECT_EQ(catalog.TableVersion("T").value(), 5u);

  // Unrelated names are unaffected.
  ASSERT_TRUE(catalog.RegisterTable("U", SmallTable()).ok());
  EXPECT_EQ(catalog.TableVersion("U").value(), 1u);
}

// A ReadPin keeps one snapshot for its thread while another thread
// publishes: stamping (TableVersion) and fetching (GetTable) agree. The
// writer's own unpinned reads see its write at once.
TEST(CatalogTest, ReadPinKeepsOneSnapshotAcrossAReplaceOnAnotherThread) {
  Catalog catalog;
  const RelationPtr before = SmallTable();
  ASSERT_TRUE(catalog.RegisterTable("T", before).ok());
  std::promise<void> pinned;
  std::promise<void> replaced;
  std::thread reader([&catalog, &before, &pinned, &replaced] {
    Catalog::ReadPin pin(catalog);
    pinned.set_value();
    replaced.get_future().wait();
    EXPECT_EQ(catalog.TableVersion("T").value(), 1u);
    EXPECT_EQ(catalog.GetTable("T").value(), before);
  });
  pinned.get_future().wait();
  const RelationPtr after = SmallTable();
  EXPECT_TRUE(catalog.ReplaceTable("T", after).ok());
  EXPECT_EQ(catalog.TableVersion("T").value(), 2u);
  EXPECT_EQ(catalog.GetTable("T").value(), after);
  replaced.set_value();
  reader.join();
}

// A replaced snapshot is freed by its last holder: the old relation lives
// exactly as long as the pin that holds it.
TEST(CatalogTest, ReplacedRelationLivesUntilThePinDrops) {
  Catalog catalog;
  std::weak_ptr<const Relation> old;
  {
    RelationPtr table = SmallTable();
    old = table;
    ASSERT_TRUE(catalog.RegisterTable("T", std::move(table)).ok());
  }
  {
    Catalog::ReadPin pin(catalog);
    ASSERT_TRUE(catalog.ReplaceTable("T", SmallTable()).ok());
    EXPECT_FALSE(old.expired());
    EXPECT_EQ(catalog.GetTable("T").value(), old.lock());
  }
  EXPECT_TRUE(old.expired());
  EXPECT_EQ(catalog.TableVersion("T").value(), 2u);
}

// Pins of different catalogs nest on one thread; each catalog's reads see
// its own pinned snapshot, never the other catalog's or the current one.
TEST(CatalogTest, NestedPinsOfTwoCatalogsSeeTheirOwnSnapshots) {
  Catalog a;
  Catalog b;
  ASSERT_TRUE(a.RegisterTable("T", SmallTable()).ok());
  ASSERT_TRUE(b.RegisterTable("T", SmallTable()).ok());
  ASSERT_TRUE(b.ReplaceTable("T", SmallTable()).ok());  // b at version 2
  {
    Catalog::ReadPin pin_a(a);
    ASSERT_TRUE(a.ReplaceTable("T", SmallTable()).ok());
    {
      Catalog::ReadPin pin_b(b);
      ASSERT_TRUE(b.ReplaceTable("T", SmallTable()).ok());
      ASSERT_TRUE(a.ReplaceTable("T", SmallTable()).ok());
      EXPECT_EQ(a.TableVersion("T").value(), 1u);
      EXPECT_EQ(b.TableVersion("T").value(), 2u);
    }
    EXPECT_EQ(a.TableVersion("T").value(), 1u);
    EXPECT_EQ(b.TableVersion("T").value(), 3u);
  }
  EXPECT_EQ(a.TableVersion("T").value(), 3u);
  EXPECT_EQ(b.TableVersion("T").value(), 3u);
}

TEST(CsvTest, RoundTripAllTypes) {
  auto relation =
      MakeRelation({Column{"flag", DataType::kBool}, Column{"n", DataType::kInt},
                    Column{"x", DataType::kFloat}, Column{"s", DataType::kString},
                    Column{"d", DataType::kDate}},
                   {{Value::Bool(true), Value::Int(-3), Value::Float(2.25),
                     Value::String("with, comma"),
                     Value::DateVal(types::Date::FromYmd(1995, 7, 14))},
                    {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
                     Value::Null()}})
          .value();
  std::string csv = RelationToCsv(*relation).value();
  auto parsed = RelationFromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << csv;
  EXPECT_TRUE(RelationEquals(*relation, **parsed));
}

TEST(CsvTest, QuotedStringsSurviveCommasAndQuotes) {
  auto relation = MakeRelation({Column{"s", DataType::kString}},
                               {{Value::String("a,b")}, {Value::String("say \"hi\"")}})
                      .value();
  auto parsed = RelationFromCsv(RelationToCsv(*relation).value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(RelationEquals(*relation, **parsed));
}

// Bit-level float round trip: NaN, ±inf, -0.0, and full-precision doubles
// must survive write→read. RelationEquals can't check this (NaN != NaN and
// -0.0 == 0.0 numerically), so compare the canonical binary encodings.
TEST(CsvTest, FloatEdgeCasesRoundTripBitExactly) {
  const double inf = std::numeric_limits<double>::infinity();
  auto relation =
      MakeRelation({Column{"x", DataType::kFloat}},
                   {{Value::Float(std::nan(""))},
                    {Value::Float(inf)},
                    {Value::Float(-inf)},
                    {Value::Float(-0.0)},
                    {Value::Float(0.1)},
                    {Value::Float(1.0 / 3.0)},
                    {Value::Float(1e-300)},
                    {Value::Float(-123456789.123456789)},
                    {Value::Null()}})
          .value();
  auto parsed = RelationFromCsv(RelationToCsv(*relation).value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  storage::Encoder a, b;
  ASSERT_TRUE(storage::EncodeRelation(*relation, &a).ok());
  ASSERT_TRUE(storage::EncodeRelation(**parsed, &b).ok());
  EXPECT_EQ(a.data(), b.data());
  // And specifically: -0.0 keeps its sign bit.
  EXPECT_TRUE(std::signbit((*parsed)->at(3, 0).float_value()));
}

// The satellite acceptance test: load the full demo dataset, export every
// table to CSV, load it back, and require value identity table by table.
TEST(CsvTest, DemoDataLoadWriteLoadIsValueIdentical) {
  Catalog catalog;
  ASSERT_TRUE(data::LoadDemoData(&catalog, 50, 10, /*seed=*/0x7109a2).ok());
  ASSERT_FALSE(catalog.ListTables().empty());
  for (const std::string& name : catalog.ListTables()) {
    SCOPED_TRACE(name);
    RelationPtr original = catalog.GetTable(name).value();
    std::string path = ::testing::TempDir() + "/tioga2_csv_" + name + ".csv";
    ASSERT_TRUE(WriteCsvFile(*original, path).ok());
    auto loaded = ReadCsvFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(RelationEquals(*original, **loaded));
    storage::Encoder a, b;
    ASSERT_TRUE(storage::EncodeRelation(*original, &a).ok());
    ASSERT_TRUE(storage::EncodeRelation(**loaded, &b).ok());
    EXPECT_EQ(a.data(), b.data()) << "CSV round trip is not bit-identical";
    std::remove(path.c_str());
  }
}

TEST(CsvTest, DisplayColumnsRejected) {
  auto relation =
      MakeRelation({Column{"d", DataType::kDisplay}},
                   {{Value::Display(draw::MakeDrawableList({}))}})
          .value();
  EXPECT_TRUE(RelationToCsv(*relation).status().IsInvalidArgument());
}

TEST(CsvTest, MalformedInputsRejected) {
  EXPECT_TRUE(RelationFromCsv("").status().IsParseError());
  EXPECT_TRUE(RelationFromCsv("id\n1\n").status().IsParseError());        // no type
  EXPECT_TRUE(RelationFromCsv("id:blob\n1\n").status().IsParseError());   // bad type
  EXPECT_TRUE(RelationFromCsv("id:int\n1,2\n").status().IsParseError());  // arity
  EXPECT_TRUE(RelationFromCsv("id:int\nabc\n").status().IsParseError());  // bad value
}

TEST(CsvTest, SkipsBlankLines) {
  auto parsed = RelationFromCsv("id:int\n1\n\n2\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->num_rows(), 2u);
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/tioga2_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*SmallTable(), path).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(RelationEquals(*SmallTable(), **loaded));
  std::remove(path.c_str());
  EXPECT_TRUE(ReadCsvFile(path).status().IsIOError());
}

}  // namespace
}  // namespace tioga2::db
