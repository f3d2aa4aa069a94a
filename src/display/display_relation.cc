#include "display/display_relation.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "db/operators.h"
#include "expr/batch.h"

namespace tioga2::display {

using types::DataType;
using types::Value;

namespace {

/// Width in world units of the default text rendering (§5.2).
constexpr double kDefaultTextHeight = 10.0;

/// Applies an attribute's accumulated Scale/Translate transform to one
/// value: identity transforms return the value untouched (preserving its
/// runtime type), anything else produces Float(v * scale + translate).
Result<Value> ApplyTransform(const Attribute& attr, Value v) {
  if (attr.scale == 1.0 && attr.translate == 0.0) return v;
  if (v.is_null()) return v;
  if (!v.is_int() && !v.is_float()) {
    return Status::TypeError("Scale/Translate applied to non-numeric attribute '" +
                             attr.name + "'");
  }
  return Value::Float(v.AsDouble() * attr.scale + attr.translate);
}

/// RowAccessor over one tuple of a DisplayRelation: stored attributes read
/// the base tuple (with Scale/Translate transforms applied), computed
/// attributes evaluate their definitions recursively with memoization and
/// cycle detection.
class DisplayRowAccessor : public expr::RowAccessor {
 public:
  DisplayRowAccessor(const DisplayRelation& relation, size_t row)
      : relation_(relation), row_(row) {}

  Result<Value> GetStored(size_t index) const override {
    if (row_ >= relation_.base()->num_rows() ||
        index >= relation_.base()->schema()->num_columns()) {
      return Status::Internal("stored attribute access out of range");
    }
    Value v = relation_.base()->at(row_, index);
    // Apply the stored column's Scale/Translate transform, if any.
    for (const Attribute& attr : relation_.attributes()) {
      if (attr.source == AttrSource::kStored && attr.stored_index == index) {
        return ApplyTransform(attr, std::move(v));
      }
    }
    return v;
  }

  Result<Value> GetNamed(const std::string& name) const override {
    auto cached = memo_.find(name);
    if (cached != memo_.end()) return cached->second;
    const Attribute* attr = relation_.FindAttribute(name);
    if (attr == nullptr) {
      return Status::NotFound("no attribute '" + name + "' on relation '" +
                              relation_.name() + "'");
    }
    if (!in_progress_.insert(name).second) {
      return Status::FailedPrecondition("attribute '" + name +
                                        "' has a cyclic definition");
    }
    Result<Value> result = EvalAttribute(*attr);
    in_progress_.erase(name);
    if (result.ok()) memo_.emplace(name, result.value());
    return result;
  }

 private:
  Result<Value> EvalAttribute(const Attribute& attr) const {
    switch (attr.source) {
      case AttrSource::kStored:
        // GetStored applies the transform itself.
        return GetStored(attr.stored_index);
      case AttrSource::kExpr: {
        TIOGA2_ASSIGN_OR_RETURN(Value v, attr.definition->Eval(*this));
        return ApplyTransform(attr, std::move(v));
      }
      case AttrSource::kCombine: {
        TIOGA2_ASSIGN_OR_RETURN(Value first, GetNamed(attr.combine_first));
        TIOGA2_ASSIGN_OR_RETURN(Value second, GetNamed(attr.combine_second));
        if (first.is_null() || second.is_null()) return Value::Null();
        if (!first.is_display() || !second.is_display()) {
          return Status::TypeError("Combine Displays needs display attributes");
        }
        return Value::Display(draw::CombineDrawableLists(
            first.display_value(), second.display_value(), attr.combine_dx,
            attr.combine_dy));
      }
      case AttrSource::kRowNumber:
        return ApplyTransform(attr, Value::Float(static_cast<double>(row_)));
      case AttrSource::kDefaultDisplay: {
        // Render each stored field side by side using its textual form —
        // the "terminal monitor" default of §5.2.
        std::vector<draw::Drawable> drawables;
        double x = 0;
        const db::Schema& schema = *relation_.base()->schema();
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          std::string cell = relation_.base()->at(row_, c).ToString();
          draw::Drawable t = draw::MakeText(cell, kDefaultTextHeight);
          t.offset_x = x;
          x += 0.6 * kDefaultTextHeight * static_cast<double>(cell.size()) +
               kDefaultTextHeight;
          drawables.push_back(std::move(t));
        }
        return Value::Display(draw::MakeDrawableList(std::move(drawables)));
      }
    }
    return Status::Internal("unhandled attribute source");
  }

  const DisplayRelation& relation_;
  size_t row_;
  mutable std::unordered_map<std::string, Value> memo_;
  mutable std::unordered_set<std::string> in_progress_;
};

/// BatchSource over a DisplayRelation: stored attributes come from the base
/// relation's columnar view, with Scale/Translate transforms materialized
/// into owned float columns on first use; computed attributes fall back to
/// the per-row DisplayRowAccessor. The per-row fallback builds a fresh
/// accessor per row, so its memo does not span attributes the way the
/// scalar Restrict accessor's does — values are identical, only repeated
/// references re-evaluate.
class DisplayBatchSource : public expr::BatchSource {
 public:
  /// `relation` must outlive the source. With `own_columns`, stored columns
  /// are built into the source (Relation::BuildColumn) instead of the base's
  /// columnar() cache, and die with it: a render image reads each column
  /// once, and a cached copy would live as long as any memo tier holds the
  /// value.
  explicit DisplayBatchSource(const DisplayRelation& relation, bool own_columns = false)
      : relation_(relation), own_columns_(own_columns) {}

  size_t num_rows() const override { return relation_.num_rows(); }

  const db::ColumnVector* StoredColumn(size_t index) const override {
    const Attribute* transform = nullptr;
    for (const Attribute& attr : relation_.attributes()) {
      if (attr.source == AttrSource::kStored && attr.stored_index == index &&
          !(attr.scale == 1.0 && attr.translate == 0.0)) {
        transform = &attr;
        break;
      }
    }
    if (transform == nullptr && !own_columns_) {
      return &relation_.base()->columnar().column(index);
    }
    // An owned or transformed column materializes once under the lock: the
    // first caller builds it, later callers reuse it. The returned pointer
    // stays stable (unique_ptr in the map).
    std::lock_guard<std::mutex> lock(columns_mu_);
    auto it = columns_.find(index);
    if (it != columns_.end()) return it->second.get();
    db::ColumnVector built;
    if (own_columns_) built = relation_.base()->BuildColumn(index);
    const db::ColumnVector& base =
        own_columns_ ? built : relation_.base()->columnar().column(index);
    if (transform == nullptr) {
      return columns_.emplace(index, std::make_unique<db::ColumnVector>(std::move(built)))
          .first->second.get();
    }
    if (base.type != DataType::kInt && base.type != DataType::kFloat) {
      return nullptr;  // the per-row path reports the TypeError
    }
    auto col = std::make_unique<db::ColumnVector>();
    col->type = DataType::kFloat;
    col->num_rows = base.num_rows;
    col->null_bits = base.null_bits;
    col->floats.resize(base.num_rows);
    for (size_t r = 0; r < base.num_rows; ++r) {
      if (base.IsNull(r)) continue;
      double v = base.type == DataType::kInt ? static_cast<double>(base.ints[r])
                                             : base.floats[r];
      col->floats[r] = v * transform->scale + transform->translate;
    }
    return columns_.emplace(index, std::move(col)).first->second.get();
  }

  Result<Value> StoredAt(size_t index, size_t row) const override {
    DisplayRowAccessor accessor(relation_, row);
    return accessor.GetStored(index);
  }

  Result<Value> NamedAt(const std::string& name, size_t row) const override {
    DisplayRowAccessor accessor(relation_, row);
    return accessor.GetNamed(name);
  }

  const expr::ExprNode* NamedExpr(const std::string& name) const override {
    // Only plain-expression attributes with an identity transform expand as
    // vectors: ApplyTransform is the identity for them, so recursing into
    // the definition yields exactly the per-row accessor's value. Combine /
    // row-number / default-display attributes keep the per-row path.
    const Attribute* attr = relation_.FindAttribute(name);
    if (attr == nullptr || attr->source != AttrSource::kExpr ||
        !attr->definition.has_value() ||
        !(attr->scale == 1.0 && attr->translate == 0.0)) {
      return nullptr;
    }
    return &attr->definition->root();
  }

 private:
  const DisplayRelation& relation_;
  const bool own_columns_;
  mutable std::mutex columns_mu_;
  mutable std::unordered_map<size_t, std::unique_ptr<db::ColumnVector>> columns_;
};

}  // namespace

Result<DisplayRelation> DisplayRelation::WithDefaults(std::string name,
                                                      db::RelationPtr base) {
  if (base == nullptr) return Status::InvalidArgument("base relation must be non-null");
  DisplayRelation rel;
  rel.name_ = std::move(name);
  rel.base_ = std::move(base);
  const db::Schema& schema = *rel.base_->schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    Attribute attr;
    attr.name = schema.column(c).name;
    attr.type = schema.column(c).type;
    attr.source = AttrSource::kStored;
    attr.stored_index = c;
    rel.attributes_.push_back(std::move(attr));
  }
  // Default location: x = 0, y = tuple sequence number (§5.2).
  if (schema.HasColumn("_x") || schema.HasColumn("_y") || schema.HasColumn("_display")) {
    return Status::InvalidArgument(
        "column names _x, _y, _display are reserved for defaults");
  }
  {
    Attribute x;
    x.name = "_x";
    x.type = DataType::kFloat;
    x.source = AttrSource::kExpr;
    TIOGA2_ASSIGN_OR_RETURN(x.definition, expr::CompiledExpr::Compile(
                                              "0.0", [](const std::string&) {
                                                return std::optional<expr::AttrInfo>();
                                              }));
    rel.attributes_.push_back(std::move(x));
  }
  {
    Attribute y;
    y.name = "_y";
    y.type = DataType::kFloat;
    y.source = AttrSource::kRowNumber;
    rel.attributes_.push_back(std::move(y));
  }
  {
    Attribute d;
    d.name = "_display";
    d.type = DataType::kDisplay;
    d.source = AttrSource::kDefaultDisplay;
    rel.attributes_.push_back(std::move(d));
  }
  rel.location_names_ = {"_x", "_y"};
  rel.display_name_ = "_display";
  return rel;
}

const Attribute* DisplayRelation::FindAttribute(const std::string& name) const {
  for (const Attribute& attr : attributes_) {
    if (attr.name == name) return &attr;
  }
  return nullptr;
}

DisplayRelation DisplayRelation::Edited() const {
  DisplayRelation out = *this;
  out.image_slot_ = std::make_shared<ImageSlot>();
  return out;
}

Result<size_t> DisplayRelation::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("no attribute '" + name + "' on relation '" + name_ + "'");
}

std::vector<std::string> DisplayRelation::AlternativeDisplays() const {
  std::vector<std::string> names;
  for (const Attribute& attr : attributes_) {
    if (attr.type == DataType::kDisplay) names.push_back(attr.name);
  }
  return names;
}

Result<Value> DisplayRelation::AttributeValue(size_t row, const std::string& name) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  DisplayRowAccessor accessor(*this, row);
  return accessor.GetNamed(name);
}

namespace {

/// DisplayRelation::AttributeValues, reading stored columns through `source`.
Result<std::vector<Value>> AttributeValuesFrom(const DisplayRelation& relation,
                                              const std::string& name,
                                              const DisplayBatchSource& source,
                                              const db::ExecPolicy& policy) {
  const Attribute* attr = relation.FindAttribute(name);
  if (attr == nullptr) {
    return Status::NotFound("no attribute '" + name + "' on relation '" +
                            relation.name() + "'");
  }
  const size_t n = relation.num_rows();
  std::vector<Value> out;
  out.reserve(n);
  if (policy.vectorized) {
    expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
    if (attr->source == AttrSource::kRowNumber) {
      ++metrics.display_attr_batches;
      metrics.display_attr_rows += n;
      for (size_t r = 0; r < n; ++r) {
        TIOGA2_ASSIGN_OR_RETURN(
            Value v, ApplyTransform(*attr, Value::Float(static_cast<double>(r))));
        out.push_back(std::move(v));
      }
      return out;
    }
    if (attr->source == AttrSource::kStored) {
      // StoredColumn applies the Scale/Translate transform; nullptr means a
      // transformed non-numeric column, whose TypeError the per-row path
      // below reports.
      const db::ColumnVector* col = source.StoredColumn(attr->stored_index);
      if (col != nullptr) {
        ++metrics.display_attr_batches;
        metrics.display_attr_rows += n;
        for (size_t r = 0; r < n; ++r) out.push_back(col->ValueAt(r));
        return out;
      }
    }
    if (attr->source == AttrSource::kExpr) {
      ++metrics.display_attr_batches;
      metrics.display_attr_rows += n;
      // One evaluator over [0, n) in kBatchSize batches; identity
      // selections keep each batch's values in row order.
      expr::BatchEvaluator evaluator(source, policy);
      expr::Selection sel;
      for (size_t b = 0; b < n; b += expr::kBatchSize) {
        expr::IdentitySelection(b, std::min(b + expr::kBatchSize, n), &sel);
        TIOGA2_ASSIGN_OR_RETURN(expr::Vec vec,
                                evaluator.Eval(attr->definition->root(), sel));
        for (size_t k = 0; k < sel.size(); ++k) {
          TIOGA2_ASSIGN_OR_RETURN(Value v, ApplyTransform(*attr, vec.ValueAt(k)));
          out.push_back(std::move(v));
        }
      }
      metrics.nodes_vectorized += evaluator.stats().vectorized_nodes;
      metrics.nodes_fallback += evaluator.stats().fallback_nodes;
      return out;
    }
  }
  // Per-row fallback (kCombine, kDefaultDisplay, transformed non-numeric
  // stored columns).
  for (size_t r = 0; r < n; ++r) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, relation.AttributeValue(r, name));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace

Result<std::vector<Value>> DisplayRelation::AttributeValues(
    const std::string& name, const db::ExecPolicy& policy) const {
  DisplayBatchSource source(*this);
  return AttributeValuesFrom(*this, name, source, policy);
}

Result<std::vector<double>> DisplayRelation::LocationOf(size_t row) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  DisplayRowAccessor accessor(*this, row);
  std::vector<double> location;
  location.reserve(location_names_.size());
  for (const std::string& name : location_names_) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, accessor.GetNamed(name));
    if (v.is_null()) {
      return Status::InvalidArgument("location attribute '" + name + "' is null at row " +
                                     std::to_string(row));
    }
    if (!v.is_int() && !v.is_float()) {
      return Status::TypeError("location attribute '" + name + "' is not numeric");
    }
    location.push_back(v.AsDouble());
  }
  return location;
}

Result<draw::DrawableList> DisplayRelation::DisplayOf(size_t row) const {
  TIOGA2_ASSIGN_OR_RETURN(Value v, AttributeValue(row, display_name_));
  if (v.is_null()) return draw::MakeDrawableList({});
  if (!v.is_display()) {
    return Status::TypeError("display attribute '" + display_name_ +
                             "' did not produce a display value");
  }
  return v.display_value();
}

std::shared_ptr<const RenderImage> DisplayRelation::Image(
    const db::ExecPolicy& policy) const {
  auto fresh = [this] {
    // Not make_shared: the slot's weak_ptr would keep the whole object's
    // storage alive for as long as the value lives in a memo tier.
    std::shared_ptr<RenderImage> image(new RenderImage);
    const size_t n = num_rows();
    image->dimension = Dimension();
    image->locations.resize(n * image->dimension);
    image->displays.resize(n);
    image->bounds.resize(n);
    image->errors.assign(n, 0);
    return image;
  };
  std::lock_guard<std::mutex> lock(image_slot_->mu);
  std::weak_ptr<const RenderImage>& slot = image_slot_->images[policy.vectorized ? 1 : 0];
  if (std::shared_ptr<const RenderImage> image = slot.lock()) return image;
  std::shared_ptr<RenderImage> image = fresh();
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  if (policy.vectorized && FillImageFromBatches(policy, image.get())) {
    ++metrics.render_location_batches;
  } else {
    if (policy.vectorized) {
      ++metrics.render_scalar_fallbacks;
      image = fresh();
    }
    FillImageByRow(image.get());
  }
  slot = image;
  return image;
}

bool DisplayRelation::FillImageFromBatches(const db::ExecPolicy& policy,
                                           RenderImage* image) const {
  const size_t n = num_rows();
  const size_t dim = image->dimension;
  DisplayBatchSource source(*this, /*own_columns=*/true);
  for (size_t d = 0; d < dim; ++d) {
    Result<std::vector<Value>> column =
        AttributeValuesFrom(*this, location_names_[d], source, policy);
    if (!column.ok()) return false;
    for (size_t r = 0; r < n; ++r) {
      const Value& v = (*column)[r];
      // The per-tuple conditions LocationOf rejects.
      if (v.is_null() || (!v.is_int() && !v.is_float())) {
        image->errors[r] |= RenderImage::kLocationError;
      } else {
        image->locations[r * dim + d] = v.AsDouble();
      }
    }
  }
  Result<std::vector<Value>> shown =
      AttributeValuesFrom(*this, display_name_, source, policy);
  if (!shown.ok()) return false;
  const draw::DrawableList empty = draw::MakeDrawableList({});
  for (size_t r = 0; r < n; ++r) {
    const Value& v = (*shown)[r];
    // DisplayOf's cases: null draws nothing, a non-display value fails.
    if (v.is_null()) {
      image->displays[r] = empty;
    } else if (!v.is_display()) {
      image->errors[r] |= RenderImage::kDisplayError;
      continue;
    } else {
      image->displays[r] = v.display_value();
    }
    image->bounds[r] = draw::DrawableListBounds(image->displays[r]);
  }
  return true;
}

void DisplayRelation::FillImageByRow(RenderImage* image) const {
  const size_t dim = image->dimension;
  for (size_t r = 0; r < num_rows(); ++r) {
    Result<std::vector<double>> location = LocationOf(r);
    if (!location.ok()) {
      image->errors[r] |= RenderImage::kLocationError;
      continue;
    }
    std::copy(location->begin(), location->end(), image->locations.begin() + r * dim);
    Result<draw::DrawableList> shown = DisplayOf(r);
    if (!shown.ok()) {
      image->errors[r] |= RenderImage::kDisplayError;
      continue;
    }
    image->displays[r] = std::move(shown).value();
    image->bounds[r] = draw::DrawableListBounds(image->displays[r]);
  }
}

expr::TypeEnv DisplayRelation::Env() const {
  // Snapshot the attribute table; the env outlives `this` inside boxes.
  std::vector<Attribute> attrs = attributes_;
  return [attrs](const std::string& name) -> std::optional<expr::AttrInfo> {
    for (const Attribute& attr : attrs) {
      if (attr.name != name) continue;
      // Attributes with a transform must be fetched by name so the
      // transform applies even through an analyzer-resolved reference.
      if (attr.source == AttrSource::kStored) {
        return expr::AttrInfo{attr.type, attr.stored_index};
      }
      return expr::AttrInfo{attr.type, std::nullopt};
    }
    return std::nullopt;
  };
}

Result<DisplayRelation> DisplayRelation::AddAttribute(const std::string& name,
                                                      const std::string& definition) const {
  if (FindAttribute(name) != nullptr) {
    return Status::AlreadyExists("attribute '" + name + "' already exists");
  }
  if (name.empty()) return Status::InvalidArgument("attribute name must be non-empty");
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(definition, Env()));
  DisplayRelation out = Edited();
  Attribute attr;
  attr.name = name;
  attr.type = compiled.result_type();
  attr.source = AttrSource::kExpr;
  attr.definition = std::move(compiled);
  out.attributes_.push_back(std::move(attr));
  return out;
}

Result<DisplayRelation> DisplayRelation::SetAttribute(const std::string& name,
                                                      const std::string& definition) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, AttributeIndex(name));
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(definition, Env()));
  DisplayRelation out = Edited();
  Attribute& attr = out.attributes_[index];
  // A location dimension or the active display must keep a compatible type.
  bool is_location =
      std::find(location_names_.begin(), location_names_.end(), name) !=
      location_names_.end();
  if (is_location && !types::IsNumericType(compiled.result_type())) {
    return Status::TypeError("location attribute '" + name + "' must stay numeric");
  }
  if (name == display_name_ && compiled.result_type() != DataType::kDisplay) {
    return Status::TypeError("active display attribute '" + name +
                             "' must stay display-typed");
  }
  attr.type = compiled.result_type();
  attr.source = AttrSource::kExpr;
  attr.definition = std::move(compiled);
  attr.scale = 1.0;
  attr.translate = 0.0;
  return out;
}

Result<DisplayRelation> DisplayRelation::RemoveAttribute(const std::string& name) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, AttributeIndex(name));
  if (std::find(location_names_.begin(), location_names_.end(), name) !=
      location_names_.end()) {
    return Status::FailedPrecondition("cannot remove location attribute '" + name +
                                      "' (x, y, and slider dimensions are protected)");
  }
  if (name == display_name_) {
    return Status::FailedPrecondition("cannot remove the active display attribute '" +
                                      name + "'");
  }
  // Refuse if another attribute's definition references it.
  for (const Attribute& attr : attributes_) {
    if (attr.name == name) continue;
    if (attr.source == AttrSource::kExpr) {
      std::vector<std::string> refs = expr::CollectAttributeRefs(attr.definition->root());
      if (std::find(refs.begin(), refs.end(), name) != refs.end()) {
        return Status::FailedPrecondition("attribute '" + attr.name + "' references '" +
                                          name + "'");
      }
    }
    if (attr.source == AttrSource::kCombine &&
        (attr.combine_first == name || attr.combine_second == name)) {
      return Status::FailedPrecondition("attribute '" + attr.name + "' combines '" +
                                        name + "'");
    }
  }
  DisplayRelation out = Edited();
  out.attributes_.erase(out.attributes_.begin() + static_cast<ptrdiff_t>(index));
  return out;
}

Result<DisplayRelation> DisplayRelation::SwapAttributes(const std::string& a,
                                                        const std::string& b) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t ia, AttributeIndex(a));
  TIOGA2_ASSIGN_OR_RETURN(size_t ib, AttributeIndex(b));
  if (attributes_[ia].type != attributes_[ib].type) {
    return Status::TypeError("Swap Attributes needs two attributes of the same type (" +
                             types::DataTypeToString(attributes_[ia].type) + " vs " +
                             types::DataTypeToString(attributes_[ib].type) + ")");
  }
  DisplayRelation out = Edited();
  std::swap(out.attributes_[ia].name, out.attributes_[ib].name);
  return out;
}

Result<DisplayRelation> DisplayRelation::ScaleAttribute(const std::string& name,
                                                        double factor) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, AttributeIndex(name));
  if (!types::IsNumericType(attributes_[index].type)) {
    return Status::TypeError("Scale Attribute needs a numeric attribute, '" + name +
                             "' is " + types::DataTypeToString(attributes_[index].type));
  }
  DisplayRelation out = Edited();
  out.attributes_[index].scale *= factor;
  out.attributes_[index].translate *= factor;
  out.attributes_[index].type = DataType::kFloat;
  return out;
}

Result<DisplayRelation> DisplayRelation::TranslateAttribute(const std::string& name,
                                                            double delta) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, AttributeIndex(name));
  if (!types::IsNumericType(attributes_[index].type)) {
    return Status::TypeError("Translate Attribute needs a numeric attribute, '" + name +
                             "' is " + types::DataTypeToString(attributes_[index].type));
  }
  DisplayRelation out = Edited();
  out.attributes_[index].translate += delta;
  out.attributes_[index].type = DataType::kFloat;
  return out;
}

Result<DisplayRelation> DisplayRelation::CombineDisplays(const std::string& new_name,
                                                         const std::string& first,
                                                         const std::string& second,
                                                         double dx, double dy) const {
  if (FindAttribute(new_name) != nullptr) {
    return Status::AlreadyExists("attribute '" + new_name + "' already exists");
  }
  const Attribute* a = FindAttribute(first);
  const Attribute* b = FindAttribute(second);
  if (a == nullptr) return Status::NotFound("no attribute '" + first + "'");
  if (b == nullptr) return Status::NotFound("no attribute '" + second + "'");
  if (a->type != DataType::kDisplay || b->type != DataType::kDisplay) {
    return Status::TypeError("Combine Displays needs two display attributes");
  }
  DisplayRelation out = Edited();
  Attribute attr;
  attr.name = new_name;
  attr.type = DataType::kDisplay;
  attr.source = AttrSource::kCombine;
  attr.combine_first = first;
  attr.combine_second = second;
  attr.combine_dx = dx;
  attr.combine_dy = dy;
  out.attributes_.push_back(std::move(attr));
  return out;
}

Result<DisplayRelation> DisplayRelation::SetLocationAttribute(
    size_t dim, const std::string& attr) const {
  if (dim >= location_names_.size()) {
    return Status::OutOfRange("location dimension " + std::to_string(dim) +
                              " out of range (dimension is " +
                              std::to_string(location_names_.size()) + ")");
  }
  const Attribute* a = FindAttribute(attr);
  if (a == nullptr) return Status::NotFound("no attribute '" + attr + "'");
  if (!types::IsNumericType(a->type)) {
    return Status::TypeError("location attribute '" + attr + "' must be numeric");
  }
  DisplayRelation out = Edited();
  out.location_names_[dim] = attr;
  return out;
}

Result<DisplayRelation> DisplayRelation::AddLocationDimension(
    const std::string& attr) const {
  const Attribute* a = FindAttribute(attr);
  if (a == nullptr) return Status::NotFound("no attribute '" + attr + "'");
  if (!types::IsNumericType(a->type)) {
    return Status::TypeError("location attribute '" + attr + "' must be numeric");
  }
  DisplayRelation out = Edited();
  out.location_names_.push_back(attr);
  return out;
}

Result<DisplayRelation> DisplayRelation::RemoveLocationDimension(size_t dim) const {
  if (dim < 2) {
    return Status::FailedPrecondition(
        "the x and y dimensions are mandatory (every visualization has at least two "
        "dimensions, §2)");
  }
  if (dim >= location_names_.size()) {
    return Status::OutOfRange("location dimension " + std::to_string(dim) +
                              " out of range");
  }
  DisplayRelation out = Edited();
  out.location_names_.erase(out.location_names_.begin() + static_cast<ptrdiff_t>(dim));
  return out;
}

Result<DisplayRelation> DisplayRelation::SetDisplayAttribute(
    const std::string& attr) const {
  const Attribute* a = FindAttribute(attr);
  if (a == nullptr) return Status::NotFound("no attribute '" + attr + "'");
  if (a->type != DataType::kDisplay) {
    return Status::TypeError("attribute '" + attr + "' is not display-typed");
  }
  DisplayRelation out = Edited();
  out.display_name_ = attr;
  return out;
}

DisplayRelation DisplayRelation::SetElevationRange(double min, double max) const {
  DisplayRelation out = Edited();
  if (min > max) std::swap(min, max);
  out.elevation_range_ = ElevationRange{min, max};
  return out;
}

Result<DisplayRelation> DisplayRelation::Restrict(
    const std::string& predicate, const db::ExecPolicy& policy) const {
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(predicate, Env()));
  if (compiled.result_type() != DataType::kBool) {
    return Status::TypeError("Restrict predicate '" + predicate + "' must be bool");
  }
  DisplayRelation out = Edited();
  if (policy.vectorized) {
    DisplayBatchSource source(*this);
    TIOGA2_ASSIGN_OR_RETURN(expr::Selection kept,
                            db::RestrictSurvivors(source, compiled.root(), policy));
    // Survivors reference the base relation through a selection view — no
    // tuple copies (the tuple-copy tax dominated restrict_half_selectivity
    // in bench_out/fig03_columnar.json before this).
    out.base_ = db::Relation::MakeSelectionView(base_, std::move(kept));
  } else {
    db::RelationBuilder builder(base_->schema());
    for (size_t r = 0; r < num_rows(); ++r) {
      DisplayRowAccessor accessor(*this, r);
      TIOGA2_ASSIGN_OR_RETURN(Value keep, compiled.Eval(accessor));
      if (!keep.is_null() && keep.bool_value()) builder.AddRowShared(base_->row_ptr(r));
    }
    out.base_ = builder.Build();
  }
  return out;
}

Result<size_t> DisplayRelation::CountKept(const std::string& predicate,
                                          size_t end,
                                          const db::ExecPolicy& policy) const {
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(predicate, Env()));
  if (compiled.result_type() != DataType::kBool) {
    return Status::TypeError("predicate '" + predicate + "' must be bool");
  }
  end = std::min(end, num_rows());
  size_t count = 0;
  if (policy.vectorized) {
    DisplayBatchSource source(*this);
    expr::BatchEvaluator evaluator(source, policy);
    expr::Selection sel;
    expr::Selection kept;
    for (size_t b = 0; b < end; b += expr::kBatchSize) {
      expr::IdentitySelection(b, std::min(b + expr::kBatchSize, end), &sel);
      kept.clear();
      TIOGA2_RETURN_IF_ERROR(evaluator.FilterTrue(compiled.root(), sel, &kept));
      count += kept.size();
    }
  } else {
    for (size_t r = 0; r < end; ++r) {
      DisplayRowAccessor accessor(*this, r);
      TIOGA2_ASSIGN_OR_RETURN(Value keep, compiled.Eval(accessor));
      if (!keep.is_null() && keep.bool_value()) ++count;
    }
  }
  return count;
}

Result<bool> DisplayRelation::KeepsRow(const std::string& predicate,
                                       size_t row) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(predicate, Env()));
  if (compiled.result_type() != DataType::kBool) {
    return Status::TypeError("predicate '" + predicate + "' must be bool");
  }
  DisplayRowAccessor accessor(*this, row);
  TIOGA2_ASSIGN_OR_RETURN(Value keep, compiled.Eval(accessor));
  return !keep.is_null() && keep.bool_value();
}

Result<DisplayRelation> DisplayRelation::Project(
    const std::vector<std::string>& columns) const {
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr projected, db::Project(base_, columns));
  // Old stored index -> new stored index.
  std::vector<std::optional<size_t>> remap(base_->schema()->num_columns());
  for (size_t new_index = 0; new_index < columns.size(); ++new_index) {
    TIOGA2_ASSIGN_OR_RETURN(size_t old_index, base_->schema()->ColumnIndex(columns[new_index]));
    remap[old_index] = new_index;
  }
  DisplayRelation out = Edited();
  out.base_ = projected;
  std::vector<Attribute> kept;
  for (Attribute attr : attributes_) {
    if (attr.source == AttrSource::kStored) {
      if (!remap[attr.stored_index].has_value()) {
        // Dropping a designated attribute is an error; other stored
        // attributes silently disappear with the projection.
        bool designated =
            std::find(location_names_.begin(), location_names_.end(), attr.name) !=
                location_names_.end() ||
            attr.name == display_name_;
        if (designated) {
          return Status::FailedPrecondition("cannot project out '" + attr.name +
                                            "', it is a designated location/display "
                                            "attribute");
        }
        continue;
      }
      attr.stored_index = *remap[attr.stored_index];
    } else if (attr.source == AttrSource::kExpr) {
      Status remapped = expr::RemapStoredAttributeIndices(
          attr.definition->mutable_root(),
          [&remap, &attr](size_t old_index) -> Result<size_t> {
            if (old_index >= remap.size() || !remap[old_index].has_value()) {
              return Status::FailedPrecondition(
                  "computed attribute '" + attr.name +
                  "' references a column dropped by Project");
            }
            return *remap[old_index];
          });
      TIOGA2_RETURN_IF_ERROR(remapped);
    }
    kept.push_back(std::move(attr));
  }
  out.attributes_ = std::move(kept);
  return out;
}

Result<DisplayRelation> DisplayRelation::Sample(double probability, uint64_t seed,
                                                const db::ExecPolicy& policy) const {
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr sampled,
                          db::Sample(base_, probability, seed, policy));
  DisplayRelation out = Edited();
  out.base_ = std::move(sampled);
  return out;
}

Result<DisplayRelation> DisplayRelation::WithBase(db::RelationPtr base) const {
  if (base == nullptr) return Status::InvalidArgument("base relation must be non-null");
  if (!(*base->schema() == *base_->schema())) {
    return Status::TypeError("WithBase may not change the schema");
  }
  DisplayRelation out = Edited();
  out.base_ = std::move(base);
  return out;
}

std::string DisplayRelation::ToString(size_t max_rows) const {
  std::string out = "DisplayRelation '" + name_ + "' dim=" +
                    std::to_string(Dimension()) + " display=" + display_name_ + "\n";
  for (size_t c = 0; c < attributes_.size(); ++c) {
    if (c > 0) out += " | ";
    out += attributes_[c].name;
  }
  out += "\n";
  size_t shown = std::min(max_rows, num_rows());
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < attributes_.size(); ++c) {
      if (c > 0) out += " | ";
      Result<Value> v = AttributeValue(r, attributes_[c].name);
      out += v.ok() ? v.value().ToString() : ("<" + v.status().ToString() + ">");
    }
    out += "\n";
  }
  if (shown < num_rows()) {
    out += "... (" + std::to_string(num_rows() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace tioga2::display
