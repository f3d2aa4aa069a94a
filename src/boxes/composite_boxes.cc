#include "boxes/composite_boxes.h"

#include <algorithm>

#include "common/str_util.h"

namespace tioga2::boxes {

using display::Composite;
using display::Displayable;
using display::DisplayRelation;
using display::Group;
using display::GroupLayout;

namespace {

Result<Composite> InputComposite(const BoxValue& value) {
  TIOGA2_ASSIGN_OR_RETURN(Displayable displayable, dataflow::AsDisplayable(value));
  return display::AsComposite(displayable);
}

std::string LayoutToString(GroupLayout layout) {
  switch (layout) {
    case GroupLayout::kHorizontal: return "horizontal";
    case GroupLayout::kVertical: return "vertical";
    case GroupLayout::kTabular: return "tabular";
  }
  return "horizontal";
}

}  // namespace

Result<std::vector<BoxValue>> OverlayBox::Fire(const std::vector<BoxValue>& inputs,
                                               const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(Composite below, InputComposite(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(Composite above, InputComposite(inputs[1]));
  bool mismatch = false;
  Composite combined = below.Overlay(above, offset_, &mismatch);
  if (mismatch) {
    ctx.warnings.push_back(
        "Overlay: composite members have different dimensions; lower-dimensional "
        "relations are treated as invariant in the extra dimensions (§6.1)");
  }
  return std::vector<BoxValue>{BoxValue(Displayable(std::move(combined)))};
}

std::map<std::string, std::string> OverlayBox::Params() const {
  std::vector<std::string> parts;
  parts.reserve(offset_.size());
  for (double v : offset_) parts.push_back(FormatDouble(v));
  return {{"offset", StrJoin(parts, ",")}};
}

Result<std::optional<dataflow::DeltaFire>> OverlayBox::ApplyDelta(
    const std::vector<dataflow::DeltaInput>& inputs,
    const std::vector<BoxValue>& old_outputs, const ExecContext& ctx) const {
  (void)old_outputs;
  // Overlay concatenates the member lists without touching any base rows:
  // re-firing is O(members) and the input edit scripts pass through with
  // the second input's member indices shifted past the first input's.
  std::vector<BoxValue> new_inputs{*inputs[0].new_value, *inputs[1].new_value};
  TIOGA2_ASSIGN_OR_RETURN(std::vector<BoxValue> outputs, Fire(new_inputs, ctx));
  TIOGA2_ASSIGN_OR_RETURN(Composite first, InputComposite(*inputs[0].new_value));
  dataflow::ValueDelta merged;
  for (const dataflow::MemberDelta& m : inputs[0].delta->members) {
    merged.members.push_back(m);
  }
  for (dataflow::MemberDelta m : inputs[1].delta->members) {
    m.member += first.size();
    merged.members.push_back(std::move(m));
  }
  return std::optional<dataflow::DeltaFire>(
      dataflow::DeltaFire{std::move(outputs), {std::move(merged)}});
}

Result<std::vector<BoxValue>> ShuffleBox::Fire(const std::vector<BoxValue>& inputs,
                                               const ExecContext& ctx) const {
  (void)ctx;
  TIOGA2_ASSIGN_OR_RETURN(Composite composite, InputComposite(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(size_t index, composite.FindMember(member_));
  TIOGA2_ASSIGN_OR_RETURN(Composite shuffled, composite.Shuffle(index));
  return std::vector<BoxValue>{BoxValue(Displayable(std::move(shuffled)))};
}

Result<std::optional<dataflow::DeltaFire>> ShuffleBox::ApplyDelta(
    const std::vector<dataflow::DeltaInput>& inputs,
    const std::vector<BoxValue>& old_outputs, const ExecContext& ctx) const {
  (void)old_outputs;
  std::vector<BoxValue> new_inputs{*inputs[0].new_value};
  TIOGA2_ASSIGN_OR_RETURN(std::vector<BoxValue> outputs, Fire(new_inputs, ctx));
  TIOGA2_ASSIGN_OR_RETURN(Composite composite, InputComposite(*inputs[0].new_value));
  TIOGA2_ASSIGN_OR_RETURN(size_t index, composite.FindMember(member_));
  // Member `index` moved to the end; members after it shifted down one.
  dataflow::ValueDelta remapped;
  for (dataflow::MemberDelta m : inputs[0].delta->members) {
    if (m.member == index) {
      m.member = composite.size() - 1;
    } else if (m.member > index) {
      --m.member;
    }
    remapped.members.push_back(std::move(m));
  }
  return std::optional<dataflow::DeltaFire>(
      dataflow::DeltaFire{std::move(outputs), {std::move(remapped)}});
}

StitchBox::StitchBox(size_t arity, GroupLayout layout, size_t tabular_columns)
    : arity_(std::clamp<size_t>(arity, 1, kMaxArity)),
      layout_(layout),
      tabular_columns_(tabular_columns == 0 ? 1 : tabular_columns) {}

Result<std::vector<BoxValue>> StitchBox::Fire(const std::vector<BoxValue>& inputs,
                                              const ExecContext& ctx) const {
  (void)ctx;
  std::vector<Composite> members;
  members.reserve(inputs.size());
  for (const BoxValue& input : inputs) {
    TIOGA2_ASSIGN_OR_RETURN(Composite composite, InputComposite(input));
    members.push_back(std::move(composite));
  }
  Group group(std::move(members), layout_, tabular_columns_);
  return std::vector<BoxValue>{BoxValue(Displayable(std::move(group)))};
}

std::map<std::string, std::string> StitchBox::Params() const {
  return {{"arity", std::to_string(arity_)},
          {"layout", LayoutToString(layout_)},
          {"columns", std::to_string(tabular_columns_)}};
}

Result<std::optional<dataflow::DeltaFire>> StitchBox::ApplyDelta(
    const std::vector<dataflow::DeltaInput>& inputs,
    const std::vector<BoxValue>& old_outputs, const ExecContext& ctx) const {
  (void)old_outputs;
  std::vector<BoxValue> new_inputs;
  new_inputs.reserve(inputs.size());
  for (const dataflow::DeltaInput& input : inputs) {
    new_inputs.push_back(*input.new_value);
  }
  TIOGA2_ASSIGN_OR_RETURN(std::vector<BoxValue> outputs, Fire(new_inputs, ctx));
  // Input p becomes group member p; its composite-local member indices are
  // preserved.
  dataflow::ValueDelta merged;
  for (size_t p = 0; p < inputs.size(); ++p) {
    for (dataflow::MemberDelta m : inputs[p].delta->members) {
      m.group_member = p;
      merged.members.push_back(std::move(m));
    }
  }
  return std::optional<dataflow::DeltaFire>(
      dataflow::DeltaFire{std::move(outputs), {std::move(merged)}});
}

ReplicateBox::ReplicateBox(std::vector<std::string> row_predicates,
                           std::vector<std::string> column_predicates)
    : row_predicates_(std::move(row_predicates)),
      column_predicates_(std::move(column_predicates)) {}

Result<std::vector<BoxValue>> ReplicateBox::Fire(const std::vector<BoxValue>& inputs,
                                                 const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(Displayable displayable, dataflow::AsDisplayable(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation relation, display::AsRelation(displayable));
  if (row_predicates_.empty()) {
    return Status::InvalidArgument("Replicate needs at least one partition predicate");
  }
  std::vector<Composite> members;
  for (const std::string& row_predicate : row_predicates_) {
    if (column_predicates_.empty()) {
      TIOGA2_ASSIGN_OR_RETURN(DisplayRelation part,
                              relation.Restrict(row_predicate, ctx.policy));
      part.set_name(relation.name() + "[" + row_predicate + "]");
      members.emplace_back(std::move(part));
      continue;
    }
    for (const std::string& column_predicate : column_predicates_) {
      std::string predicate = "(" + row_predicate + ") and (" + column_predicate + ")";
      TIOGA2_ASSIGN_OR_RETURN(DisplayRelation part,
                              relation.Restrict(predicate, ctx.policy));
      part.set_name(relation.name() + "[" + predicate + "]");
      members.emplace_back(std::move(part));
    }
  }
  size_t columns = column_predicates_.empty() ? 1 : column_predicates_.size();
  GroupLayout layout =
      column_predicates_.empty() ? GroupLayout::kVertical : GroupLayout::kTabular;
  Group group(std::move(members), layout, columns);
  return std::vector<BoxValue>{BoxValue(Displayable(std::move(group)))};
}

std::map<std::string, std::string> ReplicateBox::Params() const {
  return {{"rows", StrJoin(row_predicates_, ";")},
          {"columns", StrJoin(column_predicates_, ";")}};
}

LiftBox::LiftBox(BoxPtr inner, PortType lifted_type, size_t group_member,
                 std::string member)
    : inner_(std::move(inner)),
      lifted_type_(lifted_type),
      group_member_(group_member),
      member_(std::move(member)) {}

Result<std::vector<BoxValue>> LiftBox::Fire(const std::vector<BoxValue>& inputs,
                                            const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(Displayable displayable, dataflow::AsDisplayable(inputs[0]));

  // Pull out the group, the composite, and the target relation, run the
  // inner box on the relation, and reassemble (§2).
  Group group = display::AsGroup(displayable);
  if (group_member_ >= group.size()) {
    return Status::OutOfRange("Lift: group member " + std::to_string(group_member_) +
                              " out of range (group has " + std::to_string(group.size()) +
                              ")");
  }
  Composite& composite = group.mutable_members()[group_member_];
  TIOGA2_ASSIGN_OR_RETURN(size_t member_index, composite.FindMember(member_));
  DisplayRelation& target = composite.mutable_entries()[member_index].relation;

  std::vector<BoxValue> inner_inputs{BoxValue(Displayable(target))};
  TIOGA2_ASSIGN_OR_RETURN(std::vector<BoxValue> inner_outputs,
                          inner_->Fire(inner_inputs, ctx));
  if (inner_outputs.size() != 1) {
    return Status::Internal("Lift: inner box must have exactly one output");
  }
  TIOGA2_ASSIGN_OR_RETURN(Displayable inner_result,
                          dataflow::AsDisplayable(inner_outputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation replaced, display::AsRelation(inner_result));
  target = std::move(replaced);

  // Narrow the result back to the lifted type.
  if (lifted_type_.kind() == PortType::Kind::kComposite) {
    return std::vector<BoxValue>{BoxValue(Displayable(group.members()[0]))};
  }
  return std::vector<BoxValue>{BoxValue(Displayable(std::move(group)))};
}

std::map<std::string, std::string> LiftBox::Params() const {
  std::map<std::string, std::string> params = {
      {"type", lifted_type_.ToString()},
      {"group_member", std::to_string(group_member_)},
      {"member", member_},
      {"inner", inner_->type_name()},
  };
  for (const auto& [key, value] : inner_->Params()) {
    params["inner." + key] = value;
  }
  return params;
}

std::unique_ptr<Box> LiftBox::Clone() const {
  return std::make_unique<LiftBox>(inner_->Clone(), lifted_type_, group_member_,
                                   member_);
}

}  // namespace tioga2::boxes
