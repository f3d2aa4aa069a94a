#include "db/relation.h"

#include <utility>

namespace tioga2::db {

RelationPtr Relation::MakeSelectionView(RelationPtr parent,
                                        std::vector<uint32_t> rows) {
  auto view = std::make_shared<Relation>(parent->schema());
  view->left_parent_ = std::move(parent);
  view->left_rows_ = std::move(rows);
  view->left_width_ = view->schema_->num_columns();
  return view;
}

RelationPtr Relation::MakeJoinView(SchemaPtr schema, RelationPtr left,
                                   std::vector<uint32_t> left_rows,
                                   RelationPtr right,
                                   std::vector<uint32_t> right_rows) {
  auto view = std::make_shared<Relation>(std::move(schema));
  view->left_width_ = left->schema()->num_columns();
  view->left_parent_ = std::move(left);
  view->right_parent_ = std::move(right);
  view->left_rows_ = std::move(left_rows);
  view->right_rows_ = std::move(right_rows);
  return view;
}

void Relation::EnsureRows() const {
  if (!is_view()) return;
  std::call_once(rows_once_, [this] {
    std::vector<TuplePtr> rows;
    rows.reserve(left_rows_.size());
    if (right_parent_ == nullptr) {
      // Selection view: surviving rows are the parent's tuples — share them.
      for (uint32_t r : left_rows_) rows.push_back(left_parent_->row_ptr(r));
    } else {
      // Join view: concatenate once, when (and only when) a consumer asks
      // for row-wise access.
      for (size_t k = 0; k < left_rows_.size(); ++k) {
        const Tuple& l = left_parent_->row(left_rows_[k]);
        const Tuple& r = right_parent_->row(right_rows_[k]);
        Tuple out;
        out.reserve(l.size() + r.size());
        out.insert(out.end(), l.begin(), l.end());
        out.insert(out.end(), r.begin(), r.end());
        rows.push_back(std::make_shared<Tuple>(std::move(out)));
      }
    }
    rows_ = std::move(rows);
  });
}

Relation::RowMap Relation::ComposedSelection() const {
  if (!is_view() || right_parent_ != nullptr) return RowMap{this, nullptr};
  std::call_once(compose_once_, [this] {
    const Relation* base = left_parent_.get();
    if (base->is_view() && base->right_parent_ == nullptr) {
      // Chain of selection views (Restrict over Restrict over Limit, ...):
      // fold the row maps so one gather reaches the base columns.
      std::vector<uint32_t> rows = left_rows_;
      do {
        for (uint32_t& r : rows) r = base->left_rows_[r];
        base = base->left_parent_.get();
      } while (base->is_view() && base->right_parent_ == nullptr);
      composed_rows_storage_ = std::move(rows);
      compose_rows_ = &composed_rows_storage_;
    } else {
      compose_rows_ = &left_rows_;
    }
    compose_base_ = base;
  });
  return RowMap{compose_base_, compose_rows_};
}

ColumnVector Relation::BuildColumn(size_t c) const {
  const types::DataType type = schema_->column(c).type;
  if (!is_view()) return MaterializeColumn(rows_, c, type);
  if (right_parent_ == nullptr) {
    // Selection view: gather once from the deepest non-selection ancestor's
    // columns, skipping every intermediate view's columnar image.
    const RowMap map = ComposedSelection();
    return GatherColumn(map.base->columnar().column(c), *map.rows);
  }
  if (c < left_width_) {
    return GatherColumn(left_parent_->columnar().column(c), left_rows_);
  }
  return GatherColumn(right_parent_->columnar().column(c - left_width_),
                      right_rows_);
}

std::string Relation::ToString(size_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < schema_->num_columns(); ++c) {
    if (c > 0) out += " | ";
    out += schema_->column(c).name;
  }
  out += "\n";
  size_t shown = std::min(max_rows, num_rows());
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < schema_->num_columns(); ++c) {
      if (c > 0) out += " | ";
      out += at(r, c).ToString();
    }
    out += "\n";
  }
  if (shown < num_rows()) {
    out += "... (" + std::to_string(num_rows() - shown) + " more rows)\n";
  }
  return out;
}

const ColumnarTable& Relation::columnar() const {
  std::call_once(columnar_once_,
                 [this] { columnar_ = std::make_unique<const ColumnarTable>(this); });
  return *columnar_;
}

RelationBuilder::RelationBuilder(SchemaPtr schema)
    : relation_(std::make_shared<Relation>(std::move(schema))) {}

Status RelationBuilder::AddRow(Tuple row) {
  const Schema& schema = *relation_->schema_;
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema.ToString());
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c].is_null()) continue;
    if (row[c].type() != schema.column(c).type) {
      // Allow implicit int → float widening at insert time.
      if (row[c].is_int() && schema.column(c).type == types::DataType::kFloat) {
        row[c] = types::Value::Float(static_cast<double>(row[c].int_value()));
        continue;
      }
      return Status::TypeError("column '" + schema.column(c).name + "' expects " +
                               types::DataTypeToString(schema.column(c).type) + ", got " +
                               types::DataTypeToString(row[c].type()));
    }
  }
  relation_->rows_.push_back(std::make_shared<Tuple>(std::move(row)));
  return Status::OK();
}

void RelationBuilder::AddRowUnchecked(Tuple row) {
  relation_->rows_.push_back(std::make_shared<Tuple>(std::move(row)));
}

void RelationBuilder::AddRowShared(TuplePtr row) {
  relation_->rows_.push_back(std::move(row));
}

void RelationBuilder::Reserve(size_t n) { relation_->rows_.reserve(n); }

RelationPtr RelationBuilder::Build() {
  RelationPtr result = std::move(relation_);
  relation_ = std::make_shared<Relation>(result->schema());
  return result;
}

Result<RelationPtr> MakeRelation(std::vector<Column> columns, std::vector<Tuple> rows) {
  TIOGA2_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(columns)));
  RelationBuilder builder(std::make_shared<const Schema>(std::move(schema)));
  builder.Reserve(rows.size());
  for (Tuple& row : rows) {
    TIOGA2_RETURN_IF_ERROR(builder.AddRow(std::move(row)));
  }
  return builder.Build();
}

Result<RelationPtr> WithRowReplaced(const RelationPtr& input, size_t row,
                                    Tuple tuple) {
  if (input == nullptr) return Status::InvalidArgument("input must be non-null");
  if (row >= input->num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  RelationBuilder builder(input->schema());
  builder.Reserve(input->num_rows());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    if (r == row) {
      TIOGA2_RETURN_IF_ERROR(builder.AddRow(std::move(tuple)));
    } else {
      builder.AddRowShared(input->row_ptr(r));
    }
  }
  return builder.Build();
}

Result<RelationPtr> WithRowInserted(const RelationPtr& input, size_t row,
                                    Tuple tuple) {
  if (input == nullptr) return Status::InvalidArgument("input must be non-null");
  if (row > input->num_rows()) {
    return Status::OutOfRange("insert position " + std::to_string(row) +
                              " out of range");
  }
  RelationBuilder builder(input->schema());
  builder.Reserve(input->num_rows() + 1);
  for (size_t r = 0; r < input->num_rows(); ++r) {
    if (r == row) TIOGA2_RETURN_IF_ERROR(builder.AddRow(tuple));
    builder.AddRowShared(input->row_ptr(r));
  }
  if (row == input->num_rows()) TIOGA2_RETURN_IF_ERROR(builder.AddRow(std::move(tuple)));
  return builder.Build();
}

Result<RelationPtr> WithRowErased(const RelationPtr& input, size_t row) {
  if (input == nullptr) return Status::InvalidArgument("input must be non-null");
  if (row >= input->num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  RelationBuilder builder(input->schema());
  builder.Reserve(input->num_rows() - 1);
  for (size_t r = 0; r < input->num_rows(); ++r) {
    if (r != row) builder.AddRowShared(input->row_ptr(r));
  }
  return builder.Build();
}

bool RelationEquals(const Relation& a, const Relation& b) {
  if (!(*a.schema() == *b.schema())) return false;
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!a.at(r, c).Equals(b.at(r, c))) return false;
    }
  }
  return true;
}

}  // namespace tioga2::db
