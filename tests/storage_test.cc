// The persistence subsystem, bottom-up: binary codecs (values, tuples,
// relations — bit-exact round trips including NaN payloads and -0.0), CRC
// frames (torn tail vs corruption), the segmented WAL (ordering, rotation,
// torn-tail tolerance, truncation, durability policies, group commit), the
// columnar snapshot format (atomic publish, fingerprint verification,
// corrupt-snapshot fallback), and the StorageEngine end to end: kill an
// environment, recover the directory, and every fig program evaluates to
// byte-identical fingerprints and memo stamps.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "boxes/relational_boxes.h"
#include "runtime/metrics.h"
#include "storage/fault_fs.h"
#include "storage/format.h"
#include "storage/fs.h"
#include "storage/records.h"
#include "storage/snapshot.h"
#include "storage/storage_engine.h"
#include "storage/storage_metrics.h"
#include "storage/wal.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"

namespace tioga2::storage {
namespace {

using types::Value;

/// A fresh, empty scratch directory under the test temp root.
std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "tioga2_storage_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

db::RelationPtr SampleRelation() {
  auto relation = db::MakeRelation(
      {db::Column{"id", types::DataType::kInt},
       db::Column{"name", types::DataType::kString},
       db::Column{"score", types::DataType::kFloat},
       db::Column{"active", types::DataType::kBool},
       db::Column{"day", types::DataType::kDate}},
      {{Value::Int(1), Value::String("alpha"), Value::Float(1.5),
        Value::Bool(true), Value::DateVal(types::Date(10))},
       {Value::Int(2), Value::Null(), Value::Float(-0.0),
        Value::Null(), Value::DateVal(types::Date(-3))},
       {Value::Int(-7), Value::String(""), Value::Float(std::nan("")),
        Value::Bool(false), Value::Null()}});
  EXPECT_TRUE(relation.ok());
  return relation.value();
}

// ---- Codec round trips ----

TEST(StorageFormatTest, ValueRoundTripsAllTypesBitExactly) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Value> values = {
      Value::Null(),          Value::Bool(true),       Value::Bool(false),
      Value::Int(0),          Value::Int(-1),          Value::Int(INT64_MAX),
      Value::Int(INT64_MIN),  Value::Float(0.0),       Value::Float(-0.0),
      Value::Float(nan),      Value::Float(inf),       Value::Float(-inf),
      Value::Float(0.1),      Value::String(""),       Value::String("héllo\n\0x"),
      Value::DateVal(types::Date(0)), Value::DateVal(types::Date(-40000))};
  for (const Value& value : values) {
    Encoder enc;
    ASSERT_TRUE(EncodeValue(value, &enc).ok());
    Decoder dec(enc.data());
    auto decoded = DecodeValue(&dec);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_TRUE(dec.done());
    // Bit-exact comparison for floats: -0.0 vs 0.0 and NaN payloads count.
    if (value.is_float()) {
      uint64_t a, b;
      double va = value.float_value(), vb = decoded->float_value();
      std::memcpy(&a, &va, 8);
      std::memcpy(&b, &vb, 8);
      EXPECT_EQ(a, b);
    } else {
      EXPECT_TRUE(value == *decoded) << value.ToString();
    }
  }
}

TEST(StorageFormatTest, DateDayCountsOutsideTheRangeAreRefused) {
  // A date cell's day count comes from raw bytes; one outside Date's range
  // would overflow the civil conversion of ToString.
  for (int64_t days : {types::Date::kMaxDays + 1, types::Date::kMinDays - 1,
                       std::numeric_limits<int64_t>::max() - 5,
                       std::numeric_limits<int64_t>::min()}) {
    SCOPED_TRACE(days);
    Encoder cell;
    cell.PutU8(5);  // the date cell tag
    cell.PutI64(days);
    Decoder dec(cell.data());
    EXPECT_TRUE(DecodeValue(&dec).status().IsOutOfRange());

    // The same count in a relation's date column.
    auto relation = db::MakeRelation({db::Column{"day", types::DataType::kDate}},
                                     {{Value::DateVal(types::Date(0))}});
    ASSERT_TRUE(relation.ok());
    Encoder enc;
    ASSERT_TRUE(EncodeRelation(**relation, &enc).ok());
    std::string bytes = enc.data();
    const size_t at = bytes.size() - sizeof(int64_t);  // the one cell, last
    std::memcpy(&bytes[at], &days, sizeof(days));      // as PutI64 writes it
    Decoder rel_dec(bytes);
    EXPECT_TRUE(DecodeRelation(&rel_dec).status().IsOutOfRange());
  }
  for (int64_t days : {types::Date::kMinDays, types::Date::kMaxDays}) {
    Encoder cell;
    ASSERT_TRUE(EncodeValue(Value::DateVal(types::Date(days)), &cell).ok());
    Decoder dec(cell.data());
    EXPECT_EQ(DecodeValue(&dec)->date_value().DaysValue(), days);
  }
}

TEST(StorageFormatTest, DisplayValuesAreRejected) {
  Encoder enc;
  EXPECT_TRUE(EncodeValue(Value::Display({}), &enc).IsInvalidArgument());
}

TEST(StorageFormatTest, RelationRoundTripsValueIdentically) {
  db::RelationPtr relation = SampleRelation();
  Encoder enc;
  ASSERT_TRUE(EncodeRelation(*relation, &enc).ok());
  Decoder dec(enc.data());
  auto decoded = DecodeRelation(&dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(dec.done());
  // RelationEquals is not NaN-aware; compare via the canonical encoding.
  Encoder enc2;
  ASSERT_TRUE(EncodeRelation(**decoded, &enc2).ok());
  EXPECT_EQ(enc.data(), enc2.data());
  auto fp1 = FingerprintRelation(*relation);
  auto fp2 = FingerprintRelation(**decoded);
  ASSERT_TRUE(fp1.ok());
  ASSERT_TRUE(fp2.ok());
  EXPECT_EQ(*fp1, *fp2);
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

// The snapshot bytes of string columns are a format: a string column stored
// only as a dictionary must encode each row's own text, and a null row's
// empty payload (not its dictionary code's value), exactly as the
// per-row-string encoder these bytes were recorded from did.
TEST(StorageFormatTest, StringColumnsEncodeToCommittedBytes) {
  const std::string nul("a\0b", 3);
  auto relation = db::MakeRelation(
      {db::Column{"id", types::DataType::kInt},
       db::Column{"label", types::DataType::kString},
       db::Column{"state", types::DataType::kString},
       db::Column{"none", types::DataType::kString},
       db::Column{"day", types::DataType::kDate}},
      {{Value::Int(1), Value::String("pear"), Value::Null(), Value::Null(),
        Value::DateVal(types::Date(0))},
       {Value::Int(2), Value::Null(), Value::String("LA"), Value::Null(), Value::Null()},
       {Value::Int(3), Value::String(""), Value::String("TX"), Value::Null(),
        Value::DateVal(types::Date(-3))},
       {Value::Int(4), Value::String(nul), Value::Null(), Value::Null(),
        Value::DateVal(types::Date(19000))},
       {Value::Int(5), Value::String("\x01tag"), Value::String("LA"), Value::Null(),
        Value::DateVal(types::Date(7))},
       {Value::Int(6), Value::String("h\xc3\xa9llo"), Value::String("AR"), Value::Null(),
        Value::Null()},
       {Value::Int(7), Value::String("pear"), Value::String("AR"), Value::Null(),
        Value::DateVal(types::Date(1))}});
  ASSERT_TRUE(relation.ok());
  const std::string base_hex =
      "0500000002000000696401050000006c6162656c030500000073746174650304"
      "0000006e6f6e6503030000006461790407000000000000000001000000000000"
      "0002000000000000000300000000000000040000000000000005000000000000"
      "0006000000000000000700000000000000010200000000000000040000007065"
      "617200000000000000000300000061006204000000017461670600000068c3a9"
      "6c6c6f040000007065617201090000000000000000000000020000004c410200"
      "0000545800000000020000004c41020000004152020000004152017f00000000"
      "0000000000000000000000000000000000000000000000000000000000000001"
      "220000000000000000000000000000000000000000000000fdffffffffffffff"
      "384a000000000000070000000000000000000000000000000100000000000000";
  // A selection view (rows 6, 3, 1, 1, 0) encodes from gathered columns.
  const std::string view_hex =
      "0500000002000000696401050000006c6162656c030500000073746174650304"
      "0000006e6f6e6503030000006461790405000000000000000007000000000000"
      "0004000000000000000200000000000000020000000000000001000000000000"
      "00010c0000000000000004000000706561720300000061006200000000000000"
      "0004000000706561720112000000000000000200000041520000000002000000"
      "4c41020000004c4100000000011f000000000000000000000000000000000000"
      "000000000000000000010c000000000000000100000000000000384a00000000"
      "0000000000000000000000000000000000000000000000000000";
  Encoder base;
  ASSERT_TRUE(EncodeRelation(**relation, &base).ok());
  EXPECT_EQ(base.data(), FromHex(base_hex));
  Encoder view;
  ASSERT_TRUE(EncodeRelation(*db::Relation::MakeSelectionView(*relation, {6, 3, 1, 1, 0}),
                             &view)
                  .ok());
  EXPECT_EQ(view.data(), FromHex(view_hex));
}

TEST(StorageFormatTest, FingerprintSeesValueAndOrderChanges) {
  auto a = db::MakeRelation({db::Column{"x", types::DataType::kInt}},
                            {{Value::Int(1)}, {Value::Int(2)}});
  auto b = db::MakeRelation({db::Column{"x", types::DataType::kInt}},
                            {{Value::Int(2)}, {Value::Int(1)}});
  auto c = db::MakeRelation({db::Column{"x", types::DataType::kInt}},
                            {{Value::Int(1)}, {Value::Int(3)}});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  uint64_t fa = FingerprintRelation(**a).value();
  EXPECT_NE(fa, FingerprintRelation(**b).value());
  EXPECT_NE(fa, FingerprintRelation(**c).value());
}

TEST(StorageFormatTest, FrameDetectsTornTailAndCorruption) {
  std::string buf;
  AppendFrame("hello", &buf);
  AppendFrame("world!", &buf);
  size_t offset = 0;
  EXPECT_EQ(ReadFrame(buf, &offset).value(), "hello");
  EXPECT_EQ(ReadFrame(buf, &offset).value(), "world!");
  EXPECT_EQ(offset, buf.size());

  // Torn tail: any strict prefix of a frame reads as OutOfRange.
  for (size_t cut = 0; cut < FrameSize(5); ++cut) {
    std::string torn;
    AppendFrame("hello", &torn);
    torn.resize(cut);
    size_t pos = 0;
    if (cut == 0) continue;  // empty remainder is simply the end
    EXPECT_TRUE(ReadFrame(torn, &pos).status().IsOutOfRange()) << cut;
  }

  // Corruption: flip one payload byte, CRC catches it.
  std::string corrupt;
  AppendFrame("hello", &corrupt);
  corrupt[corrupt.size() - 1] ^= 0x01;
  size_t pos = 0;
  EXPECT_TRUE(ReadFrame(corrupt, &pos).status().IsParseError());
}

TEST(StorageRecordsTest, AllRecordTypesRoundTrip) {
  db::RelationPtr relation = SampleRelation();
  WalRecord reg;
  reg.type = WalRecordType::kRegister;
  reg.name = "t";
  reg.version = 7;
  reg.relation = relation;
  auto encoded = EncodeWalRecord(reg);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeWalRecord(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, WalRecordType::kRegister);
  EXPECT_EQ(decoded->name, "t");
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(FingerprintRelation(*decoded->relation).value(),
            FingerprintRelation(*relation).value());

  WalRecord upd;
  upd.type = WalRecordType::kUpdateRow;
  upd.name = "t";
  upd.version = 8;
  upd.row = 2;
  upd.new_tuple = {Value::Int(9), Value::Null(), Value::Float(2.5),
                   Value::Bool(true), Value::DateVal(types::Date(1))};
  decoded = DecodeWalRecord(*EncodeWalRecord(upd));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->row, 2u);
  EXPECT_EQ(decoded->new_tuple.size(), 5u);
  EXPECT_TRUE(decoded->new_tuple[0] == Value::Int(9));

  WalRecord drop;
  drop.type = WalRecordType::kDrop;
  drop.name = "t";
  drop.version = 8;
  decoded = DecodeWalRecord(*EncodeWalRecord(drop));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, WalRecordType::kDrop);

  WalRecord prog;
  prog.type = WalRecordType::kSaveProgram;
  prog.name = "p";
  prog.program_text = "tioga2-program v1\n";
  decoded = DecodeWalRecord(*EncodeWalRecord(prog));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->program_text, "tioga2-program v1\n");
}

// Hostile length fields are checked against the bytes left before they size
// an allocation, so a crafted record decodes to a ParseError, never an
// allocation of the size it asks for.
TEST(StorageRecordsTest, HostileLengthFieldsAreParseErrors) {
  auto header = [](WalRecordType type) {
    Encoder enc;
    enc.PutU8(static_cast<uint8_t>(type));
    enc.PutString("t");
    enc.PutU64(1);  // version
    return enc;
  };
  // An update whose tuple claims 0xFFFFFFFF cells.
  Encoder update = header(WalRecordType::kUpdateRow);
  update.PutU64(0);  // row
  update.PutU32(0xFFFFFFFFu);
  update.PutU8(0);  // one null cell's tag
  EXPECT_TRUE(DecodeWalRecord(update.data()).status().IsParseError());

  // A registration of one int column claiming 2^40 rows.
  Encoder rows = header(WalRecordType::kRegister);
  rows.PutU32(1);
  rows.PutString("x");
  rows.PutU8(static_cast<uint8_t>(types::DataType::kInt));
  rows.PutU64(uint64_t{1} << 40);
  rows.PutU8(0);  // no null bitmap
  rows.PutI64(1);
  EXPECT_TRUE(DecodeWalRecord(rows.data()).status().IsParseError());

  // A registration claiming 0xFFFFFFFF columns.
  Encoder columns = header(WalRecordType::kRegister);
  columns.PutU32(0xFFFFFFFFu);
  columns.PutString("x");
  columns.PutU8(static_cast<uint8_t>(types::DataType::kInt));
  EXPECT_TRUE(DecodeWalRecord(columns.data()).status().IsParseError());

  // Exactly enough bytes still decodes: three bool cells, one byte each.
  Encoder exact;
  exact.PutU32(1);
  exact.PutString("b");
  exact.PutU8(static_cast<uint8_t>(types::DataType::kBool));
  exact.PutU64(3);
  exact.PutU8(0);
  for (int r = 0; r < 3; ++r) exact.PutU8(1);
  Decoder exact_dec(exact.data());
  auto decoded = DecodeRelation(&exact_dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ((*decoded)->num_rows(), 3u);
}

// A zero-column relation's rows carry no bytes, so no payload bounds their
// count. The rule: such a relation persists only empty. The encoder refuses
// one with rows, and the decoder rejects a nonzero row count.
TEST(StorageFormatTest, ZeroColumnRelationsPersistOnlyEmpty) {
  auto empty = db::MakeRelation({}, {});
  ASSERT_TRUE(empty.ok());
  Encoder enc;
  ASSERT_TRUE(EncodeRelation(**empty, &enc).ok());
  Decoder dec(enc.data());
  auto decoded = DecodeRelation(&dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ((*decoded)->num_rows(), 0u);
  EXPECT_TRUE(dec.done());

  auto with_rows = db::MakeRelation({}, {{}, {}});
  ASSERT_TRUE(with_rows.ok());
  Encoder refused;
  EXPECT_TRUE(EncodeRelation(**with_rows, &refused).IsInvalidArgument());

  Encoder crafted;
  crafted.PutU32(0);
  crafted.PutU64(uint64_t{1} << 40);
  Decoder crafted_dec(crafted.data());
  EXPECT_TRUE(DecodeRelation(&crafted_dec).status().IsParseError());
}

// ---- WAL ----

TEST(WalTest, AppendReadRoundTripAcrossRotation) {
  const std::string dir = TestDir("wal_rotate");
  WalOptions options;
  options.durability = Durability::kNone;
  options.rotate_bytes = 256;  // force many segments
  {
    Wal wal(Fs::Default(), dir, options);
    ASSERT_TRUE(wal.Open(1).ok());
    for (int i = 0; i < 100; ++i) {
      auto lsn = wal.Append("record-" + std::to_string(i) +
                            std::string(16, 'x'));
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  auto segments = Wal::ListSegments(Fs::Default(), dir);
  ASSERT_TRUE(segments.ok());
  EXPECT_GT(segments->size(), 1u) << "rotation never triggered";

  auto all = Wal::ReadAll(Fs::Default(), dir, 0);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->corrupt);
  EXPECT_EQ(all->torn_bytes, 0u);
  ASSERT_EQ(all->records.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(all->records[i].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(all->records[i].payload,
              "record-" + std::to_string(i) + std::string(16, 'x'));
  }
  // after_lsn filters.
  auto tail = Wal::ReadAll(Fs::Default(), dir, 95);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->records.size(), 5u);
  EXPECT_EQ(tail->records.front().lsn, 96u);
}

TEST(WalTest, ToleratesTornFinalRecordAndContinuesAfterReopen) {
  const std::string dir = TestDir("wal_torn");
  WalOptions options;
  options.durability = Durability::kNone;
  {
    Wal wal(Fs::Default(), dir, options);
    ASSERT_TRUE(wal.Open(1).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(wal.Append("payload-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  // Tear the last record: chop a few bytes off the only segment.
  auto segments = Wal::ListSegments(Fs::Default(), dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  const std::string path = dir + "/" + segments->front();
  auto data = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(data.ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data->data(), static_cast<std::streamsize>(data->size() - 3));
  }
  auto all = Wal::ReadAll(Fs::Default(), dir, 0);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->corrupt);
  EXPECT_GT(all->torn_bytes, 0u);
  ASSERT_EQ(all->records.size(), 9u);  // record 10 was torn

  // Reopen after the torn record (as recovery would) and keep appending:
  // the stale torn bytes in the old segment stay skippable forever.
  {
    Wal wal(Fs::Default(), dir, options);
    ASSERT_TRUE(wal.Open(10).ok());
    EXPECT_TRUE(wal.Append("payload-9-again").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  all = Wal::ReadAll(Fs::Default(), dir, 0);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->corrupt);
  ASSERT_EQ(all->records.size(), 10u);
  EXPECT_EQ(all->records.back().lsn, 10u);
  EXPECT_EQ(all->records.back().payload, "payload-9-again");
}

TEST(WalTest, CorruptionStopsAtReadablePrefix) {
  const std::string dir = TestDir("wal_corrupt");
  WalOptions options;
  options.durability = Durability::kNone;
  {
    Wal wal(Fs::Default(), dir, options);
    ASSERT_TRUE(wal.Open(1).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal.Append(std::string(32, static_cast<char>('a' + i))).ok());
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  auto segments = Wal::ListSegments(Fs::Default(), dir);
  const std::string path = dir + "/" + segments->front();
  auto data = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(data.ok());
  std::string bytes = *data;
  bytes[bytes.size() / 2] ^= 0x40;  // flip a bit mid-log
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto all = Wal::ReadAll(Fs::Default(), dir, 0);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->corrupt);
  EXPECT_LT(all->records.size(), 5u);
  // The scan reports where the corruption sits so recovery can quarantine
  // it: the offending segment and the byte length of its readable prefix.
  EXPECT_EQ(all->corrupt_segment, segments->front());
  // Every record here frames a 32-byte payload plus the u64 lsn.
  EXPECT_EQ(all->corrupt_prefix, all->records.size() * FrameSize(8 + 32));
}

TEST(WalTest, ReopenDoesNotAliasCrashLeftoverSegment) {
  // A crash right after rotation (or right after Open) leaves a segment
  // file whose first_lsn equals the LSN recovery reopens at. Open must not
  // track that leftover alongside the fresh active segment it creates under
  // the same name — the duplicate entry used to make TruncateThrough unlink
  // the live active file, losing durable post-checkpoint records.
  const std::string dir = TestDir("wal_alias");
  WalOptions options;
  options.durability = Durability::kNone;
  {
    Wal wal(Fs::Default(), dir, options);
    ASSERT_TRUE(wal.Open(1).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal.Append("r" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  // Crash residue: an empty segment already named for the next LSN.
  { std::ofstream out(dir + "/wal-00000000000000000006.t2w", std::ios::binary); }
  Wal wal(Fs::Default(), dir, options);
  ASSERT_TRUE(wal.Open(6).ok());
  ASSERT_TRUE(wal.Append("post-crash").ok());  // lsn 6
  ASSERT_TRUE(wal.Sync().ok());
  // Truncating below the active segment must leave it (and its records)
  // intact, and the log must keep working.
  ASSERT_TRUE(wal.TruncateThrough(5).ok());
  ASSERT_TRUE(wal.Append("post-truncate").ok());  // lsn 7
  ASSERT_TRUE(wal.Close().ok());
  auto all = Wal::ReadAll(Fs::Default(), dir, 5);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->corrupt);
  ASSERT_EQ(all->records.size(), 2u);
  EXPECT_EQ(all->records[0].lsn, 6u);
  EXPECT_EQ(all->records[0].payload, "post-crash");
  EXPECT_EQ(all->records[1].payload, "post-truncate");
}

TEST(WalTest, TruncateThroughDeletesCoveredSegments) {
  const std::string dir = TestDir("wal_truncate");
  WalOptions options;
  options.durability = Durability::kNone;
  options.rotate_bytes = 128;
  Wal wal(Fs::Default(), dir, options);
  ASSERT_TRUE(wal.Open(1).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(wal.Append(std::string(40, 'x')).ok());
  }
  ASSERT_TRUE(wal.Sync().ok());
  auto before = Wal::ListSegments(Fs::Default(), dir);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before->size(), 2u);

  ASSERT_TRUE(wal.TruncateThrough(40).ok());
  auto after = Wal::ListSegments(Fs::Default(), dir);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->size(), before->size());
  // Records above the truncation point survive.
  auto all = Wal::ReadAll(Fs::Default(), dir, 40);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->corrupt);
  EXPECT_EQ(all->records.size(), 10u);

  // Truncating everything rotates the active segment away too.
  ASSERT_TRUE(wal.TruncateThrough(50).ok());
  auto rest = Wal::ReadAll(Fs::Default(), dir, 0);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->records.size(), 0u);
  // The log still works after total truncation.
  EXPECT_EQ(wal.Append("after-truncate").value(), 51u);
  ASSERT_TRUE(wal.Close().ok());
  auto final_read = Wal::ReadAll(Fs::Default(), dir, 0);
  ASSERT_TRUE(final_read.ok());
  ASSERT_EQ(final_read->records.size(), 1u);
  EXPECT_EQ(final_read->records[0].lsn, 51u);
}

TEST(WalTest, DurabilityPoliciesAndGroupCommit) {
  for (Durability durability :
       {Durability::kNone, Durability::kFlushEveryN, Durability::kFsyncEachRecord}) {
    for (bool group_commit : {false, true}) {
      const std::string dir =
          TestDir("wal_dur_" + std::to_string(static_cast<int>(durability)) +
                  (group_commit ? "_g" : "_s"));
      WalOptions options;
      options.durability = durability;
      options.flush_every_n = 4;
      options.group_commit = group_commit;
      Wal wal(Fs::Default(), dir, options);
      ASSERT_TRUE(wal.Open(1).ok());
      // Concurrent appenders: LSNs must come out dense and the log readable.
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&wal, t] {
          for (int i = 0; i < 25; ++i) {
            auto lsn = wal.Append("t" + std::to_string(t) + "-" + std::to_string(i));
            ASSERT_TRUE(lsn.ok());
          }
        });
      }
      for (auto& thread : threads) thread.join();
      if (durability == Durability::kFsyncEachRecord) {
        EXPECT_EQ(wal.durable_lsn(), 100u);
      }
      ASSERT_TRUE(wal.Sync().ok());
      EXPECT_EQ(wal.durable_lsn(), 100u);
      ASSERT_TRUE(wal.Close().ok());
      auto all = Wal::ReadAll(Fs::Default(), dir, 0);
      ASSERT_TRUE(all.ok());
      EXPECT_FALSE(all->corrupt);
      ASSERT_EQ(all->records.size(), 100u);
      for (size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(all->records[i].lsn, i + 1);
      }
    }
  }
}

// ---- Snapshots ----

TEST(SnapshotTest, WriteReadRoundTrip) {
  const std::string dir = TestDir("snap_roundtrip");
  SnapshotContents contents;
  contents.seq = 3;
  contents.last_lsn = 42;
  contents.tables.push_back(SnapshotTable{"t", SampleRelation(), 5, 0});
  contents.programs.emplace_back("prog", "tioga2-program v1\n");
  contents.version_floors.emplace_back("dropped", 9);
  auto bytes = WriteSnapshot(Fs::Default(), dir, contents);
  ASSERT_TRUE(bytes.ok()) << bytes.status().message();
  EXPECT_GT(*bytes, 0u);

  auto listed = ListSnapshots(Fs::Default(), dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ(listed->front().first, 3u);

  auto read = ReadSnapshot(Fs::Default(), dir + "/" + listed->front().second);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read->seq, 3u);
  EXPECT_EQ(read->last_lsn, 42u);
  ASSERT_EQ(read->tables.size(), 1u);
  EXPECT_EQ(read->tables[0].name, "t");
  EXPECT_EQ(read->tables[0].version, 5u);
  EXPECT_EQ(FingerprintRelation(*read->tables[0].relation).value(),
            FingerprintRelation(*contents.tables[0].relation).value());
  ASSERT_EQ(read->programs.size(), 1u);
  EXPECT_EQ(read->programs[0].second, "tioga2-program v1\n");
  ASSERT_EQ(read->version_floors.size(), 1u);
  EXPECT_EQ(read->version_floors[0].second, 9u);
  // No .tmp residue after the atomic publish.
  auto names = Fs::Default()->ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
}

TEST(SnapshotTest, DetectsCorruptionAndTruncation) {
  const std::string dir = TestDir("snap_corrupt");
  SnapshotContents contents;
  contents.seq = 1;
  contents.last_lsn = 7;
  contents.tables.push_back(SnapshotTable{"t", SampleRelation(), 2, 0});
  ASSERT_TRUE(WriteSnapshot(Fs::Default(), dir, contents).ok());
  const std::string path = dir + "/" + SnapshotName(1);
  auto data = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(data.ok());

  // Any single flipped byte must be caught (frame CRC or fingerprint).
  for (size_t pos : {size_t{10}, data->size() / 2, data->size() - 2}) {
    std::string bytes = *data;
    bytes[pos] ^= 0x10;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_FALSE(ReadSnapshot(Fs::Default(), path).ok()) << "pos " << pos;
  }
  // A truncated snapshot (no END marker) is invalid, not "torn-tolerated".
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(data->data(), static_cast<std::streamsize>(data->size() - 6));
  EXPECT_FALSE(ReadSnapshot(Fs::Default(), path).ok());
}

// ---- Catalog listener contract ----

TEST(CatalogListenerTest, CallbacksCarryPostMutationState) {
  struct Recorder : db::CatalogListener {
    std::vector<std::string> events;
    void OnRegisterTable(const std::string& name, const db::RelationPtr&,
                         uint64_t version) override {
      events.push_back("reg:" + name + ":" + std::to_string(version));
    }
    void OnReplaceTable(const std::string& name, const db::RelationPtr&,
                        uint64_t version) override {
      events.push_back("rep:" + name + ":" + std::to_string(version));
    }
    void OnUpdateRow(const db::TableDelta& delta, const db::RelationPtr&) override {
      events.push_back("upd:" + delta.table + ":" +
                       std::to_string(delta.new_version));
    }
    void OnDropTable(const std::string& name, uint64_t version) override {
      events.push_back("drop:" + name + ":" + std::to_string(version));
    }
    void OnSaveProgram(const std::string& name, const std::string&) override {
      events.push_back("prog:" + name);
    }
  };
  db::Catalog catalog;
  Recorder recorder;
  catalog.SetListener(&recorder);
  db::RelationPtr rel = SampleRelation();
  ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());
  ASSERT_TRUE(catalog.ReplaceTable("t", rel).ok());
  db::Tuple tuple = rel->row(0);
  ASSERT_TRUE(catalog.UpdateRow("t", 0, tuple).ok());
  catalog.SaveProgram("p", "x");
  ASSERT_TRUE(catalog.DropTable("t").ok());
  // Recreation starts above the dropped version (the monotonicity fix).
  ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());
  catalog.SetListener(nullptr);
  EXPECT_EQ(recorder.events,
            (std::vector<std::string>{"reg:t:1", "rep:t:2", "upd:t:3", "prog:p",
                                      "drop:t:3", "reg:t:4"}));
}

// ---- StorageEngine end to end ----

/// A canvas evaluation target: the edge feeding a viewer box.
struct Target {
  std::string canvas;
  std::string from;
  size_t from_port = 0;
};

std::vector<Target> TargetsOf(const dataflow::Graph& graph) {
  std::vector<Target> targets;
  for (const std::string& id : graph.BoxIds()) {
    const auto* viewer =
        dynamic_cast<const boxes::ViewerBox*>(graph.GetBox(id).value());
    if (viewer == nullptr) continue;
    std::optional<dataflow::Edge> edge = graph.IncomingEdge(id, 0);
    if (!edge.has_value()) continue;
    targets.push_back(Target{viewer->canvas(), edge->from_box, edge->from_port});
  }
  return targets;
}

/// Fingerprints of every catalog table (the value-level identity oracle).
std::map<std::string, uint64_t> TableFingerprints(db::Catalog& catalog) {
  std::map<std::string, uint64_t> fps;
  for (const std::string& name : catalog.ListTables()) {
    auto rel = catalog.GetTable(name);
    EXPECT_TRUE(rel.ok());
    auto fp = FingerprintRelation(**rel);
    EXPECT_TRUE(fp.ok());
    fps[name] = *fp;
  }
  return fps;
}

std::map<std::string, uint64_t> TableVersions(db::Catalog& catalog) {
  std::map<std::string, uint64_t> versions;
  for (const std::string& name : catalog.ListTables()) {
    versions[name] = catalog.TableVersion(name).value();
  }
  return versions;
}

/// Nudges one numeric cell of row (i % rows); deterministic per (table, i).
Status NudgeRow(db::Catalog* catalog, const std::string& table, int i) {
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr rel, catalog->GetTable(table));
  if (rel->num_rows() == 0) return Status::OK();
  size_t row = static_cast<size_t>(i) % rel->num_rows();
  db::Tuple tuple = rel->row(row);
  for (size_t c = 0; c < tuple.size(); ++c) {
    if (tuple[c].is_float()) {
      tuple[c] = Value::Float(tuple[c].float_value() + 0.25);
      return catalog->UpdateRow(table, row, tuple).status();
    }
    if (tuple[c].is_int()) {
      tuple[c] = Value::Int(tuple[c].int_value() + 1);
      return catalog->UpdateRow(table, row, tuple).status();
    }
  }
  return Status::OK();
}

/// The full restart-identity check for one fig program:
///   env1: demo data + program; open persistent (bootstrap); save program;
///         apply edits (logged); evaluate; record stamps + fingerprints;
///         then either close cleanly (snapshot) or drop abruptly (WAL-only).
///   env2: fresh environment; open the same dir; load the program; evaluate;
///         everything must be byte-identical.
void CheckRestartIdentity(const testing::FigProgram& program, bool clean_close) {
  const std::string dir =
      TestDir("engine_" + program.name + (clean_close ? "_clean" : "_kill"));
  std::map<std::string, std::string> ref_fingerprints;
  std::map<std::string, std::optional<uint64_t>> ref_stamps;
  std::map<std::string, uint64_t> ref_tables;
  std::map<std::string, uint64_t> ref_versions;
  {
    Environment env;
    ASSERT_TRUE(env.LoadDemoData(program.extra_stations, program.num_days).ok());
    ASSERT_TRUE(program.build(&env).ok());
    StorageOptions options;
    options.dir = dir;
    ASSERT_TRUE(env.OpenPersistent(options).ok());
    ASSERT_TRUE(env.session().SaveProgram("fig").ok());
    for (const std::string& table : env.catalog().ListTables()) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(NudgeRow(&env.catalog(), table, i).ok()) << table;
      }
    }
    for (const Target& t : TargetsOf(env.session().graph())) {
      auto value =
          env.session().engine().Evaluate(env.session().graph(), t.from, t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
      ref_fingerprints[t.canvas] = testing::FingerprintBoxValue(value.value());
    }
    for (const std::string& id : env.session().graph().BoxIds()) {
      ref_stamps[id] = env.session().engine().cache().StampOf(id);
    }
    ref_tables = TableFingerprints(env.catalog());
    ref_versions = TableVersions(env.catalog());
    if (clean_close) {
      ASSERT_TRUE(env.ClosePersistent().ok());
    } else {
      // Make the log durable, then drop the environment without a snapshot:
      // recovery must rebuild everything from bootstrap records + deltas.
      ASSERT_TRUE(env.storage()->Sync().ok());
    }
  }
  {
    Environment env;  // NO demo data: everything must come from the dir
    StorageOptions options;
    options.dir = dir;
    RecoveryInfo info;
    ASSERT_TRUE(env.OpenPersistent(options, &info).ok());
    EXPECT_EQ(info.recovered_snapshot, clean_close);
    if (!clean_close) {
      EXPECT_GT(info.records_replayed, 0u);
    }
    EXPECT_EQ(TableFingerprints(env.catalog()), ref_tables);
    EXPECT_EQ(TableVersions(env.catalog()), ref_versions);
    ASSERT_TRUE(env.session().LoadProgram("fig").ok());
    for (const Target& t : TargetsOf(env.session().graph())) {
      auto value = env.session().engine().Evaluate(env.session().graph(), t.from,
                                                   t.from_port);
      ASSERT_TRUE(value.ok()) << t.canvas << ": " << value.status().message();
      EXPECT_EQ(testing::FingerprintBoxValue(value.value()),
                ref_fingerprints.at(t.canvas))
          << t.canvas;
    }
    for (const std::string& id : env.session().graph().BoxIds()) {
      EXPECT_EQ(env.session().engine().cache().StampOf(id), ref_stamps.at(id))
          << id;
    }
    ASSERT_TRUE(env.ClosePersistent().ok());
  }
}

TEST(StorageEngineTest, KillAndRecoverIsByteIdenticalOnEveryFigProgram) {
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    CheckRestartIdentity(program, /*clean_close=*/false);
  }
}

TEST(StorageEngineTest, CleanCloseRecoversFromSnapshotOnEveryFigProgram) {
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    CheckRestartIdentity(program, /*clean_close=*/true);
  }
}

TEST(StorageEngineTest, DropRecreateSurvivesRecoveryWithMonotonicVersions) {
  const std::string dir = TestDir("engine_drop");
  db::RelationPtr rel = SampleRelation();
  {
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    auto engine = StorageEngine::Open(&catalog, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());          // v1
    ASSERT_TRUE(catalog.ReplaceTable("t", rel).ok());           // v2
    ASSERT_TRUE(catalog.DropTable("t").ok());                   // floor 2
    ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());          // v3
    EXPECT_EQ(catalog.TableVersion("t").value(), 3u);
    ASSERT_TRUE((*engine)->Sync().ok());
    ASSERT_TRUE((*engine)->Close().ok());
  }
  {
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    RecoveryInfo info;
    auto engine = StorageEngine::Open(&catalog, options, &info);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    EXPECT_EQ(catalog.TableVersion("t").value(), 3u);
    // The floor survives recovery: another drop/recreate keeps climbing.
    ASSERT_TRUE(catalog.DropTable("t").ok());
    ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());
    EXPECT_EQ(catalog.TableVersion("t").value(), 4u);
    ASSERT_TRUE((*engine)->Close().ok());
  }
}

TEST(StorageEngineTest, FallsBackToOlderSnapshotWhenNewestIsCorrupt) {
  const std::string dir = TestDir("engine_fallback");
  db::RelationPtr rel = SampleRelation();
  {
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    options.retain_snapshots = 3;
    auto engine = StorageEngine::Open(&catalog, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());  // snapshot 1
    db::Tuple tuple = rel->row(0);
    tuple[0] = Value::Int(100);
    ASSERT_TRUE(catalog.UpdateRow("t", 0, tuple).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());  // snapshot 2
    ASSERT_TRUE((*engine)->Close().ok());
  }
  // Corrupt the newest snapshot.
  auto listed = ListSnapshots(Fs::Default(), dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  const std::string newest = dir + "/" + listed->back().second;
  auto data = Fs::Default()->ReadFile(newest);
  ASSERT_TRUE(data.ok());
  std::string bytes = *data;
  bytes[bytes.size() / 3] ^= 0x02;
  std::ofstream(newest, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  db::Catalog catalog;
  StorageOptions options;
  options.dir = dir;
  RecoveryInfo info;
  auto engine = StorageEngine::Open(&catalog, options, &info);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  EXPECT_EQ(info.snapshots_skipped, 1u);
  EXPECT_TRUE(info.recovered_snapshot);
  // The WAL was only truncated through the *oldest retained* snapshot, so
  // replaying from the older snapshot still reaches the final state.
  EXPECT_GT(info.records_replayed, 0u);
  EXPECT_TRUE(catalog.GetTable("t").value()->at(0, 0) == Value::Int(100));
  ASSERT_TRUE((*engine)->Close().ok());
}

TEST(StorageEngineTest, CorruptWalIsQuarantinedSoLaterAppendsStayRecoverable) {
  const std::string dir = TestDir("engine_wal_corrupt");
  db::RelationPtr rel = SampleRelation();
  {
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    auto engine = StorageEngine::Open(&catalog, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(NudgeRow(&catalog, "t", i).ok());
    }
    ASSERT_TRUE((*engine)->Close().ok());
  }
  // Corrupt the second frame's payload (a CRC mismatch, not a torn tail):
  // the register record stays readable, the edits after it do not.
  auto segments = Wal::ListSegments(Fs::Default(), dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  const std::string path = dir + "/" + segments->front();
  auto data = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(data.ok());
  std::string bytes = *data;
  uint32_t first_len;
  std::memcpy(&first_len, bytes.data(), sizeof(first_len));
  const size_t second_frame = FrameSize(first_len);
  ASSERT_LT(second_frame + 10, bytes.size());
  bytes[second_frame + 10] ^= 0x04;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  uint64_t fingerprint_after_second_run = 0;
  {
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    RecoveryInfo info;
    auto engine = StorageEngine::Open(&catalog, options, &info);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    EXPECT_TRUE(info.wal_corrupt);
    EXPECT_EQ(info.records_replayed, 1u);  // the readable prefix
    ASSERT_TRUE(catalog.GetTable("t").ok());
    // Mutate past the corruption point and make the new records durable.
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(NudgeRow(&catalog, "t", i).ok());
    }
    fingerprint_after_second_run =
        FingerprintRelation(**catalog.GetTable("t")).value();
    ASSERT_TRUE((*engine)->Sync().ok());
    ASSERT_TRUE((*engine)->Close().ok());
  }
  {
    // Before quarantine existed, this recovery re-hit the same corrupt
    // frame and silently dropped everything the second run logged.
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    RecoveryInfo info;
    auto engine = StorageEngine::Open(&catalog, options, &info);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    EXPECT_FALSE(info.wal_corrupt);
    EXPECT_EQ(info.records_replayed, 5u);  // register + the 4 new edits
    EXPECT_EQ(FingerprintRelation(**catalog.GetTable("t")).value(),
              fingerprint_after_second_run);
    ASSERT_TRUE((*engine)->Close().ok());
  }
}

TEST(StorageEngineTest, CorruptionBelowSnapshotLsnQuarantinesWholePrefix) {
  // Corruption in a log range already covered by the recovered snapshot:
  // quarantine must drop the whole surviving prefix, not just the suffix.
  // A kept prefix would end below the LSN the WAL reopens at, and the gap
  // would read as fresh corruption on the next recovery — quarantining away
  // the records appended after this one.
  const std::string dir = TestDir("engine_wal_covered_corrupt");
  db::RelationPtr rel = SampleRelation();
  {
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    auto engine = StorageEngine::Open(&catalog, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());       // lsn 1
    ASSERT_TRUE((*engine)->Checkpoint().ok());               // snap 1 @ 1
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(NudgeRow(&catalog, "t", i).ok());          // lsn 2..5
    }
    ASSERT_TRUE((*engine)->Checkpoint().ok());  // snap 2 @ 5; log keeps 2..5
    ASSERT_TRUE(NudgeRow(&catalog, "t", 0).ok());            // lsn 6
    ASSERT_TRUE(NudgeRow(&catalog, "t", 1).ok());            // lsn 7
    ASSERT_TRUE((*engine)->Close().ok());
  }
  // Corrupt the frame of lsn 3 — below snapshot 2's covered LSN.
  auto segments = Wal::ListSegments(Fs::Default(), dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments->empty());
  const std::string path = dir + "/" + segments->front();
  auto data = Fs::Default()->ReadFile(path);
  ASSERT_TRUE(data.ok());
  std::string bytes = *data;
  uint32_t first_len;
  std::memcpy(&first_len, bytes.data(), sizeof(first_len));
  const size_t second_frame = FrameSize(first_len);
  ASSERT_LT(second_frame + 10, bytes.size());
  bytes[second_frame + 10] ^= 0x08;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  uint64_t fingerprint_after_second_run = 0;
  {
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    RecoveryInfo info;
    auto engine = StorageEngine::Open(&catalog, options, &info);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    EXPECT_TRUE(info.wal_corrupt);
    EXPECT_EQ(info.records_replayed, 0u);  // snapshot 2 covers the prefix
    // Lsns 6 and 7 sat beyond the corruption — lost, as documented; the
    // catalog is at snapshot 2's state. Append fresh durable edits.
    ASSERT_TRUE(NudgeRow(&catalog, "t", 2).ok());
    ASSERT_TRUE(NudgeRow(&catalog, "t", 3).ok());
    fingerprint_after_second_run =
        FingerprintRelation(**catalog.GetTable("t")).value();
    ASSERT_TRUE((*engine)->Sync().ok());
    ASSERT_TRUE((*engine)->Close().ok());  // no checkpoint: WAL-only state
  }
  {
    db::Catalog catalog;
    StorageOptions options;
    options.dir = dir;
    RecoveryInfo info;
    auto engine = StorageEngine::Open(&catalog, options, &info);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    EXPECT_FALSE(info.wal_corrupt);
    EXPECT_EQ(info.records_replayed, 2u);
    EXPECT_EQ(FingerprintRelation(**catalog.GetTable("t")).value(),
              fingerprint_after_second_run);
    ASSERT_TRUE((*engine)->Close().ok());
  }
}

TEST(StorageEngineTest, RetentionKeepsKSnapshotsAndTruncatesWal) {
  const std::string dir = TestDir("engine_retention");
  db::RelationPtr rel = SampleRelation();
  db::Catalog catalog;
  StorageOptions options;
  options.dir = dir;
  options.retain_snapshots = 2;
  options.wal.rotate_bytes = 64;  // segment per record, so truncation can bite
  auto engine = StorageEngine::Open(&catalog, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());
  for (int round = 0; round < 5; ++round) {
    db::Tuple tuple = rel->row(0);
    tuple[0] = Value::Int(round);
    ASSERT_TRUE(catalog.UpdateRow("t", 0, tuple).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  auto listed = ListSnapshots(Fs::Default(), dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);
  // The WAL holds nothing below the oldest retained snapshot's LSN.
  auto all = Wal::ReadAll(Fs::Default(), dir, 0);
  ASSERT_TRUE(all.ok());
  for (const Wal::Record& record : all->records) {
    EXPECT_GT(record.lsn, 4u);
  }
  ASSERT_TRUE((*engine)->Close().ok());
}

TEST(StorageEngineTest, BackgroundSnapshotterTriggersByRecordCount) {
  const std::string dir = TestDir("engine_snapshotter");
  db::RelationPtr rel = SampleRelation();
  db::Catalog catalog;
  StorageOptions options;
  options.dir = dir;
  options.snapshot_every_records = 10;
  auto engine = StorageEngine::Open(&catalog, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(catalog.RegisterTable("t", rel).ok());
  for (int i = 0; i < 40; ++i) {
    db::Tuple tuple = rel->row(0);
    tuple[0] = Value::Int(i);
    ASSERT_TRUE(catalog.UpdateRow("t", 0, tuple).ok());
  }
  // The snapshotter runs asynchronously; wait briefly for at least one.
  bool snapshotted = false;
  for (int tries = 0; tries < 200 && !snapshotted; ++tries) {
    auto listed = ListSnapshots(Fs::Default(), dir);
    ASSERT_TRUE(listed.ok());
    snapshotted = !listed->empty();
    if (!snapshotted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(snapshotted);
  ASSERT_TRUE((*engine)->Close().ok());

  // Recovery from the snapshotter's output reproduces the final state.
  db::Catalog recovered;
  StorageOptions reopen;
  reopen.dir = dir;
  auto engine2 = StorageEngine::Open(&recovered, reopen);
  ASSERT_TRUE(engine2.ok()) << engine2.status().message();
  EXPECT_TRUE(recovered.GetTable("t").value()->at(0, 0) == Value::Int(39));
  EXPECT_EQ(recovered.TableVersion("t").value(), 41u);
  ASSERT_TRUE((*engine2)->Close().ok());
}

// The TSan target: snapshotting concurrent with edits and query evaluation.
// The client thread mutates the catalog and evaluates queries (the catalog
// itself is single-writer, like a Session); the engine's background
// snapshotter races against it the whole time, serializing from its shadow
// of immutable RelationPtrs — it never touches the live catalog.
TEST(StorageEngineTest, SnapshottingConcurrentWithEditsAndQueriesIsClean) {
  const std::string dir = TestDir("engine_concurrent");
  std::map<std::string, uint64_t> final_tables;
  {
    Environment env;
    ASSERT_TRUE(env.LoadDemoData(50, 5).ok());
    std::vector<testing::FigProgram> programs = testing::AllFigPrograms();
    ASSERT_TRUE(programs[0].build(&env).ok());
    StorageOptions options;
    options.dir = dir;
    options.snapshot_every_records = 5;  // snapshot constantly
    ASSERT_TRUE(env.OpenPersistent(options).ok());
    ASSERT_TRUE(env.session().SaveProgram("fig").ok());

    std::vector<Target> targets = TargetsOf(env.session().graph());
    ASSERT_FALSE(targets.empty());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(NudgeRow(&env.catalog(), "Stations", i).ok());
      if (i % 10 == 0) {
        for (const Target& t : targets) {
          auto value = env.session().engine().Evaluate(env.session().graph(),
                                                       t.from, t.from_port);
          ASSERT_TRUE(value.ok());
        }
      }
    }
    final_tables = TableFingerprints(env.catalog());
    ASSERT_TRUE(env.ClosePersistent().ok());
  }
  Environment env2;
  StorageOptions reopen;
  reopen.dir = dir;
  ASSERT_TRUE(env2.OpenPersistent(reopen).ok());
  EXPECT_EQ(TableFingerprints(env2.catalog()), final_tables);
  ASSERT_TRUE(env2.ClosePersistent().ok());
}

TEST(StorageEngineTest, MetricsSurfaceThroughRuntimeJson) {
  StorageMetrics::Global().Reset();
  const std::string dir = TestDir("engine_metrics");
  db::Catalog catalog;
  StorageOptions options;
  options.dir = dir;
  auto engine = StorageEngine::Open(&catalog, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(catalog.RegisterTable("t", SampleRelation()).ok());
  ASSERT_TRUE((*engine)->Checkpoint().ok());
  ASSERT_TRUE((*engine)->Close().ok());
  EXPECT_GT(StorageMetrics::Global().wal_records.load(), 0u);
  EXPECT_GT(StorageMetrics::Global().snapshots_written.load(), 0u);

  runtime::Metrics metrics;
  runtime::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_GT(snap.wal_records, 0u);
  EXPECT_GT(snap.snapshots_written, 0u);
  std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"storage\""), std::string::npos);
  EXPECT_NE(json.find("\"wal_records\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_ms\""), std::string::npos);
}

}  // namespace
}  // namespace tioga2::storage
