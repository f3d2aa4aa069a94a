#include "storage/format.h"

#include <array>
#include <cstring>

#include "db/columnar.h"
#include "db/schema.h"

namespace tioga2::storage {

using types::DataType;
using types::Value;

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

// Cell tags for the self-describing value codec. Stable on-disk constants:
// never renumber (old WALs must stay readable).
enum CellTag : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt = 2,
  kTagFloat = 3,
  kTagString = 4,
  kTagDate = 5,
};

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t Hash64(std::string_view data) {
  uint64_t hash = 1469598103934665603ULL;
  for (char ch : data) {
    hash ^= static_cast<uint8_t>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Status Decoder::GetFixed(void* out, size_t n) {
  if (remaining() < n) {
    return Status::ParseError("truncated payload: want " + std::to_string(n) +
                              " bytes, have " + std::to_string(remaining()));
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<uint8_t> Decoder::GetU8() {
  uint8_t v;
  TIOGA2_RETURN_IF_ERROR(GetFixed(&v, sizeof(v)));
  return v;
}

Result<uint32_t> Decoder::GetU32() {
  uint32_t v;
  TIOGA2_RETURN_IF_ERROR(GetFixed(&v, sizeof(v)));
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  uint64_t v;
  TIOGA2_RETURN_IF_ERROR(GetFixed(&v, sizeof(v)));
  return v;
}

Result<int64_t> Decoder::GetI64() {
  int64_t v;
  TIOGA2_RETURN_IF_ERROR(GetFixed(&v, sizeof(v)));
  return v;
}

Result<double> Decoder::GetDouble() {
  double v;
  TIOGA2_RETURN_IF_ERROR(GetFixed(&v, sizeof(v)));
  return v;
}

Result<std::string> Decoder::GetString() {
  TIOGA2_ASSIGN_OR_RETURN(uint32_t length, GetU32());
  if (remaining() < length) {
    return Status::ParseError("truncated string: want " + std::to_string(length) +
                              " bytes, have " + std::to_string(remaining()));
  }
  std::string out(data_.substr(pos_, length));
  pos_ += length;
  return out;
}

void AppendFrame(std::string_view payload, std::string* out) {
  uint32_t length = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32(payload);
  out->append(reinterpret_cast<const char*>(&length), sizeof(length));
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out->append(payload.data(), payload.size());
}

Result<std::string_view> ReadFrame(std::string_view data, size_t* offset) {
  if (data.size() - *offset < 8) {
    return Status::OutOfRange("torn frame header");
  }
  uint32_t length, crc;
  std::memcpy(&length, data.data() + *offset, sizeof(length));
  std::memcpy(&crc, data.data() + *offset + 4, sizeof(crc));
  if (data.size() - *offset - 8 < length) {
    return Status::OutOfRange("torn frame payload: header promises " +
                              std::to_string(length) + " bytes, " +
                              std::to_string(data.size() - *offset - 8) + " remain");
  }
  std::string_view payload = data.substr(*offset + 8, length);
  if (Crc32(payload) != crc) {
    return Status::ParseError("frame CRC mismatch at offset " +
                              std::to_string(*offset));
  }
  *offset += FrameSize(length);
  return payload;
}

Status EncodeValue(const Value& value, Encoder* enc) {
  if (value.is_null()) {
    enc->PutU8(kTagNull);
    return Status::OK();
  }
  switch (value.type()) {
    case DataType::kBool:
      enc->PutU8(kTagBool);
      enc->PutU8(value.bool_value() ? 1 : 0);
      return Status::OK();
    case DataType::kInt:
      enc->PutU8(kTagInt);
      enc->PutI64(value.int_value());
      return Status::OK();
    case DataType::kFloat:
      enc->PutU8(kTagFloat);
      enc->PutDouble(value.float_value());
      return Status::OK();
    case DataType::kString:
      enc->PutU8(kTagString);
      enc->PutString(value.string_value());
      return Status::OK();
    case DataType::kDate:
      enc->PutU8(kTagDate);
      enc->PutI64(value.date_value().DaysValue());
      return Status::OK();
    case DataType::kDisplay:
      return Status::InvalidArgument(
          "display values are computed, never persisted (§5.1)");
  }
  return Status::Internal("unhandled type in EncodeValue");
}

Result<Value> DecodeValue(Decoder* dec) {
  TIOGA2_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagBool: {
      TIOGA2_ASSIGN_OR_RETURN(uint8_t v, dec->GetU8());
      return Value::Bool(v != 0);
    }
    case kTagInt: {
      TIOGA2_ASSIGN_OR_RETURN(int64_t v, dec->GetI64());
      return Value::Int(v);
    }
    case kTagFloat: {
      TIOGA2_ASSIGN_OR_RETURN(double v, dec->GetDouble());
      return Value::Float(v);
    }
    case kTagString: {
      TIOGA2_ASSIGN_OR_RETURN(std::string v, dec->GetString());
      return Value::String(std::move(v));
    }
    case kTagDate: {
      TIOGA2_ASSIGN_OR_RETURN(int64_t days, dec->GetI64());
      TIOGA2_ASSIGN_OR_RETURN(types::Date date, types::Date::FromDays(days));
      return Value::DateVal(date);
    }
    default:
      return Status::ParseError("unknown cell tag " + std::to_string(tag));
  }
}

Status EncodeTuple(const db::Tuple& tuple, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(tuple.size()));
  for (const Value& cell : tuple) {
    TIOGA2_RETURN_IF_ERROR(EncodeValue(cell, enc));
  }
  return Status::OK();
}

Result<db::Tuple> DecodeTuple(Decoder* dec) {
  TIOGA2_ASSIGN_OR_RETURN(uint32_t arity, dec->GetU32());
  // Every cell takes at least its tag byte, so a larger arity is corrupt —
  // and must be refused before it sizes the allocation.
  if (arity > dec->remaining()) {
    return Status::ParseError("tuple arity " + std::to_string(arity) +
                              " exceeds the " + std::to_string(dec->remaining()) +
                              " bytes left");
  }
  db::Tuple tuple;
  tuple.reserve(arity);
  for (uint32_t c = 0; c < arity; ++c) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, DecodeValue(dec));
    tuple.push_back(std::move(v));
  }
  return tuple;
}

Status EncodeRelation(const db::Relation& relation, Encoder* enc) {
  const db::Schema& schema = *relation.schema();
  if (schema.num_columns() == 0 && relation.num_rows() > 0) {
    // Its rows would carry no bytes, so DecodeRelation could not check the
    // row count against the payload (see there).
    return Status::InvalidArgument(
        "a zero-column relation with rows cannot be persisted");
  }
  enc->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == DataType::kDisplay) {
      return Status::InvalidArgument("display column '" + schema.column(c).name +
                                     "' cannot be persisted");
    }
    enc->PutString(schema.column(c).name);
    enc->PutU8(static_cast<uint8_t>(schema.column(c).type));
  }
  const size_t num_rows = relation.num_rows();
  enc->PutU64(num_rows);
  const size_t null_words = (num_rows + 63) / 64;
  const db::ColumnarTable& columnar = relation.columnar();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const db::ColumnVector& col = columnar.column(c);
    enc->PutU8(col.has_nulls() ? 1 : 0);
    if (col.has_nulls()) {
      for (size_t w = 0; w < null_words; ++w) enc->PutU64(col.null_bits[w]);
    }
    switch (col.type) {
      case DataType::kBool:
        for (size_t r = 0; r < num_rows; ++r) enc->PutU8(col.bools[r]);
        break;
      case DataType::kInt:
        for (size_t r = 0; r < num_rows; ++r) enc->PutI64(col.ints[r]);
        break;
      case DataType::kFloat:
        for (size_t r = 0; r < num_rows; ++r) enc->PutDouble(col.floats[r]);
        break;
      case DataType::kString:
        // A null row's payload is empty, whatever its code indexes.
        for (size_t r = 0; r < num_rows; ++r) {
          enc->PutString(col.IsNull(r) ? std::string_view() : col.string_at(r));
        }
        break;
      case DataType::kDate:
        for (size_t r = 0; r < num_rows; ++r) enc->PutI64(col.dates[r]);
        break;
      case DataType::kDisplay:
        return Status::Internal("display column survived the schema check");
    }
  }
  return Status::OK();
}

Result<db::RelationPtr> DecodeRelation(Decoder* dec) {
  TIOGA2_ASSIGN_OR_RETURN(uint32_t num_columns, dec->GetU32());
  // Length fields are checked against the bytes left before they size an
  // allocation: a column header and a cell each take at least one byte.
  if (num_columns > dec->remaining()) {
    return Status::ParseError("column count " + std::to_string(num_columns) +
                              " exceeds the " + std::to_string(dec->remaining()) +
                              " bytes left");
  }
  std::vector<db::Column> columns;
  columns.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    TIOGA2_ASSIGN_OR_RETURN(std::string name, dec->GetString());
    TIOGA2_ASSIGN_OR_RETURN(uint8_t type_byte, dec->GetU8());
    if (type_byte > static_cast<uint8_t>(DataType::kDisplay)) {
      return Status::ParseError("unknown column type " + std::to_string(type_byte));
    }
    columns.push_back(db::Column{std::move(name), static_cast<DataType>(type_byte)});
  }
  TIOGA2_ASSIGN_OR_RETURN(db::Schema schema, db::Schema::Make(std::move(columns)));
  auto schema_ptr = std::make_shared<const db::Schema>(std::move(schema));
  TIOGA2_ASSIGN_OR_RETURN(uint64_t num_rows, dec->GetU64());
  // A zero-column relation's rows carry no bytes, so nothing bounds their
  // count: the rule is that such a relation persists only empty, and
  // EncodeRelation refuses one with rows.
  if (num_columns == 0 ? num_rows != 0
                       : num_rows > dec->remaining() / num_columns) {
    return Status::ParseError(std::to_string(num_rows) + " rows of " +
                              std::to_string(num_columns) + " columns exceed the " +
                              std::to_string(dec->remaining()) + " bytes left");
  }
  const size_t null_words = (num_rows + 63) / 64;

  // Decode into per-column tuples-in-waiting: a column-major pass that
  // builds the row-major tuple store the Relation wants.
  std::vector<db::Tuple> rows(num_rows);
  for (db::Tuple& row : rows) row.resize(schema_ptr->num_columns());
  std::vector<uint64_t> nulls;
  for (size_t c = 0; c < schema_ptr->num_columns(); ++c) {
    TIOGA2_ASSIGN_OR_RETURN(uint8_t has_nulls, dec->GetU8());
    nulls.clear();
    if (has_nulls != 0) {
      nulls.reserve(null_words);
      for (size_t w = 0; w < null_words; ++w) {
        TIOGA2_ASSIGN_OR_RETURN(uint64_t word, dec->GetU64());
        nulls.push_back(word);
      }
    }
    auto is_null = [&](size_t r) {
      return !nulls.empty() && ((nulls[r >> 6] >> (r & 63)) & 1) != 0;
    };
    const DataType type = schema_ptr->column(c).type;
    for (size_t r = 0; r < num_rows; ++r) {
      Value v;
      switch (type) {
        case DataType::kBool: {
          TIOGA2_ASSIGN_OR_RETURN(uint8_t b, dec->GetU8());
          v = Value::Bool(b != 0);
          break;
        }
        case DataType::kInt: {
          TIOGA2_ASSIGN_OR_RETURN(int64_t i, dec->GetI64());
          v = Value::Int(i);
          break;
        }
        case DataType::kFloat: {
          TIOGA2_ASSIGN_OR_RETURN(double f, dec->GetDouble());
          v = Value::Float(f);
          break;
        }
        case DataType::kString: {
          TIOGA2_ASSIGN_OR_RETURN(std::string s, dec->GetString());
          v = Value::String(std::move(s));
          break;
        }
        case DataType::kDate: {
          TIOGA2_ASSIGN_OR_RETURN(int64_t days, dec->GetI64());
          TIOGA2_ASSIGN_OR_RETURN(types::Date date, types::Date::FromDays(days));
          v = Value::DateVal(date);
          break;
        }
        case DataType::kDisplay:
          return Status::ParseError("display column in persisted relation");
      }
      rows[r][c] = is_null(r) ? Value::Null() : std::move(v);
    }
  }
  db::RelationBuilder builder(schema_ptr);
  builder.Reserve(num_rows);
  // Unchecked: types are correct by construction of the decode loop above.
  for (db::Tuple& row : rows) builder.AddRowUnchecked(std::move(row));
  return builder.Build();
}

Result<uint64_t> FingerprintRelation(const db::Relation& relation) {
  Encoder enc;
  TIOGA2_RETURN_IF_ERROR(EncodeRelation(relation, &enc));
  return Hash64(enc.data());
}

}  // namespace tioga2::storage
