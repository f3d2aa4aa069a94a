#include "boxes/relational_boxes.h"

#include "common/str_util.h"
#include "db/operators.h"
#include "display/display_relation.h"

namespace tioga2::boxes {

using dataflow::AsDisplayable;
using dataflow::MemberDelta;
using dataflow::RowOp;
using dataflow::SinglePrimaryOp;
using dataflow::ValueDelta;
using display::DisplayRelation;
using display::Displayable;

namespace {

/// Unwraps a BoxValue known (by port typing) to be an R.
Result<DisplayRelation> InputRelation(const BoxValue& value) {
  TIOGA2_ASSIGN_OR_RETURN(Displayable displayable, AsDisplayable(value));
  return display::AsRelation(displayable);
}

BoxValue WrapRelation(DisplayRelation relation) {
  return BoxValue(Displayable(std::move(relation)));
}

/// The delta declined: caller falls back to a full recompute.
std::optional<DeltaFire> Decline() { return std::optional<DeltaFire>(); }

/// One predicate filter's worth of delta maintenance, shared by Restrict
/// and Switch. Pushes a single-row input edit through `predicate`: re-tests
/// only the edited row, locates where it lands in the filtered output by
/// counting kept rows in the prefix, and splices the old output base. The
/// result is byte-identical to re-filtering the whole new input. `ops` is
/// left empty when the output is unchanged (the edited row is dropped on
/// both sides of the edit).
struct FilteredDelta {
  DisplayRelation output;
  std::vector<RowOp> ops;
};

Result<FilteredDelta> FilterRowEdit(const DisplayRelation& old_in,
                                    const DisplayRelation& new_in,
                                    const DisplayRelation& old_out,
                                    const RowOp& op, const std::string& predicate,
                                    const db::ExecPolicy& policy) {
  // The prefix [0, op.row) is identical in the old and new inputs for every
  // op kind, so the edited row's output position is the kept count there.
  TIOGA2_ASSIGN_OR_RETURN(size_t k, new_in.CountKept(predicate, op.row, policy));
  bool keep_old = false;
  bool keep_new = false;
  if (op.kind != RowOp::Kind::kInsert) {
    TIOGA2_ASSIGN_OR_RETURN(keep_old, old_in.KeepsRow(predicate, op.row));
  }
  if (op.kind != RowOp::Kind::kDelete) {
    TIOGA2_ASSIGN_OR_RETURN(keep_new, new_in.KeepsRow(predicate, op.row));
  }

  FilteredDelta out;
  if (keep_old && keep_new) {
    TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr spliced,
                            db::WithRowReplaced(old_out.base(), k, op.new_tuple));
    RowOp o;
    o.kind = RowOp::Kind::kUpdate;
    o.row = k;
    o.old_tuple = op.old_tuple;
    o.new_tuple = op.new_tuple;
    out.ops.push_back(std::move(o));
    TIOGA2_ASSIGN_OR_RETURN(out.output, new_in.WithBase(std::move(spliced)));
    return out;
  }
  if (keep_old) {
    TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr spliced,
                            db::WithRowErased(old_out.base(), k));
    RowOp o;
    o.kind = RowOp::Kind::kDelete;
    o.row = k;
    o.old_tuple = op.old_tuple;
    out.ops.push_back(std::move(o));
    TIOGA2_ASSIGN_OR_RETURN(out.output, new_in.WithBase(std::move(spliced)));
    return out;
  }
  if (keep_new) {
    TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr spliced,
                            db::WithRowInserted(old_out.base(), k, op.new_tuple));
    RowOp o;
    o.kind = RowOp::Kind::kInsert;
    o.row = k;
    o.new_tuple = op.new_tuple;
    out.ops.push_back(std::move(o));
    TIOGA2_ASSIGN_OR_RETURN(out.output, new_in.WithBase(std::move(spliced)));
    return out;
  }
  // Dropped before and after: the output is unchanged. Reuse the old
  // output's base so the result is byte-identical without any splice.
  TIOGA2_ASSIGN_OR_RETURN(out.output, new_in.WithBase(old_out.base()));
  return out;
}

/// Wraps filter ops into the single-member ValueDelta shape.
ValueDelta PrimaryDelta(std::vector<RowOp> ops) {
  ValueDelta delta;
  if (!ops.empty()) {
    MemberDelta member;
    member.ops = std::move(ops);
    delta.members.push_back(std::move(member));
  }
  return delta;
}

}  // namespace

Result<std::vector<BoxValue>> TableBox::Fire(const std::vector<BoxValue>& inputs,
                                             const ExecContext& ctx) const {
  (void)inputs;
  if (ctx.catalog == nullptr) {
    return Status::FailedPrecondition("Table box needs a catalog");
  }
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr relation, ctx.catalog->GetTable(table_));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation display,
                          DisplayRelation::WithDefaults(table_, std::move(relation)));
  return std::vector<BoxValue>{WrapRelation(std::move(display))};
}

std::string TableBox::CacheSalt(const ExecContext& ctx) const {
  if (ctx.catalog == nullptr) return "no-catalog";
  Result<uint64_t> version = ctx.catalog->TableVersion(table_);
  return version.ok() ? std::to_string(version.value()) : "missing";
}

Result<std::optional<DeltaFire>> TableBox::ApplyDelta(
    const std::vector<DeltaInput>& inputs, const std::vector<BoxValue>& old_outputs,
    const ExecContext& ctx) const {
  (void)inputs;
  (void)old_outputs;
  if (ctx.pending_delta == nullptr || ctx.pending_delta->table != table_) {
    return Decline();
  }
  // Re-firing a source box is O(attributes): the relation itself is shared
  // with the catalog. The interesting part is the edit script it seeds.
  TIOGA2_ASSIGN_OR_RETURN(std::vector<BoxValue> outputs, Fire({}, ctx));
  RowOp op;
  op.kind = RowOp::Kind::kUpdate;
  op.row = ctx.pending_delta->row;
  op.old_tuple = ctx.pending_delta->old_tuple;
  op.new_tuple = ctx.pending_delta->new_tuple;
  return std::optional<DeltaFire>(
      DeltaFire{std::move(outputs), {PrimaryDelta({std::move(op)})}});
}

Result<std::vector<BoxValue>> RestrictBox::Fire(const std::vector<BoxValue>& inputs,
                                                const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation input, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation output,
                          input.Restrict(predicate_, ctx.policy));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

Result<std::optional<DeltaFire>> RestrictBox::ApplyDelta(
    const std::vector<DeltaInput>& inputs, const std::vector<BoxValue>& old_outputs,
    const ExecContext& ctx) const {
  const RowOp* op = SinglePrimaryOp(*inputs[0].delta);
  if (op == nullptr) return Decline();
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_in, InputRelation(*inputs[0].old_value));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation new_in, InputRelation(*inputs[0].new_value));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_out, InputRelation(old_outputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(
      FilteredDelta filtered,
      FilterRowEdit(old_in, new_in, old_out, *op, predicate_, ctx.policy));
  return std::optional<DeltaFire>(
      DeltaFire{{WrapRelation(std::move(filtered.output))},
                {PrimaryDelta(std::move(filtered.ops))}});
}

Result<std::vector<BoxValue>> ProjectBox::Fire(const std::vector<BoxValue>& inputs,
                                               const ExecContext& ctx) const {
  (void)ctx;
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation input, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation output, input.Project(columns_));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

std::map<std::string, std::string> ProjectBox::Params() const {
  return {{"columns", StrJoin(columns_, ",")}};
}

Result<std::optional<DeltaFire>> ProjectBox::ApplyDelta(
    const std::vector<DeltaInput>& inputs, const std::vector<BoxValue>& old_outputs,
    const ExecContext& ctx) const {
  (void)ctx;
  const std::vector<RowOp>* ops = dataflow::PrimaryMemberOps(*inputs[0].delta);
  if (ops == nullptr) return Decline();
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_in, InputRelation(*inputs[0].old_value));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_out, InputRelation(old_outputs[0]));

  // Column indices of the projection in the input base schema.
  std::vector<size_t> indices;
  indices.reserve(columns_.size());
  for (const std::string& column : columns_) {
    TIOGA2_ASSIGN_OR_RETURN(size_t index,
                            old_in.base()->schema()->ColumnIndex(column));
    indices.push_back(index);
  }
  auto project_tuple = [&indices](const db::Tuple& tuple) {
    db::Tuple out;
    out.reserve(indices.size());
    for (size_t index : indices) out.push_back(tuple[index]);
    return out;
  };

  // Project preserves row order and count, so each input op maps to the
  // same position in the output with projected tuples.
  db::RelationPtr spliced = old_out.base();
  std::vector<RowOp> out_ops;
  out_ops.reserve(ops->size());
  for (const RowOp& op : *ops) {
    RowOp out_op;
    out_op.kind = op.kind;
    out_op.row = op.row;
    switch (op.kind) {
      case RowOp::Kind::kUpdate: {
        out_op.old_tuple = project_tuple(op.old_tuple);
        out_op.new_tuple = project_tuple(op.new_tuple);
        TIOGA2_ASSIGN_OR_RETURN(
            spliced, db::WithRowReplaced(spliced, op.row, out_op.new_tuple));
        break;
      }
      case RowOp::Kind::kInsert: {
        out_op.new_tuple = project_tuple(op.new_tuple);
        TIOGA2_ASSIGN_OR_RETURN(
            spliced, db::WithRowInserted(spliced, op.row, out_op.new_tuple));
        break;
      }
      case RowOp::Kind::kDelete: {
        out_op.old_tuple = project_tuple(op.old_tuple);
        TIOGA2_ASSIGN_OR_RETURN(spliced, db::WithRowErased(spliced, op.row));
        break;
      }
    }
    out_ops.push_back(std::move(out_op));
  }

  // The output metadata (attribute remapping) is a pure function of the
  // program and the input schema, both unchanged since the old firing — so
  // the old output's metadata already matches a fresh Project over the new
  // input, and only the base needs splicing.
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation out, old_out.WithBase(std::move(spliced)));
  return std::optional<DeltaFire>(DeltaFire{
      {WrapRelation(std::move(out))}, {PrimaryDelta(std::move(out_ops))}});
}

Result<std::vector<BoxValue>> SampleBox::Fire(const std::vector<BoxValue>& inputs,
                                              const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation input, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation output,
                          input.Sample(probability_, seed_, ctx.policy));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

std::map<std::string, std::string> SampleBox::Params() const {
  return {{"probability", FormatDouble(probability_)}, {"seed", std::to_string(seed_)}};
}

Result<std::vector<BoxValue>> JoinBox::Fire(const std::vector<BoxValue>& inputs,
                                            const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation left, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation right, InputRelation(inputs[1]));
  TIOGA2_ASSIGN_OR_RETURN(db::JoinResult joined,
                          db::Join(left.base(), right.base(), predicate_, ctx.policy));
  TIOGA2_ASSIGN_OR_RETURN(
      DisplayRelation output,
      DisplayRelation::WithDefaults(left.name() + "_" + right.name(),
                                    std::move(joined.relation)));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

Result<std::vector<BoxValue>> SwitchBox::Fire(const std::vector<BoxValue>& inputs,
                                              const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation input, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation matching,
                          input.Restrict(predicate_, ctx.policy));
  TIOGA2_ASSIGN_OR_RETURN(
      DisplayRelation rest,
      input.Restrict("not (" + predicate_ + ")", ctx.policy));
  return std::vector<BoxValue>{WrapRelation(std::move(matching)),
                               WrapRelation(std::move(rest))};
}

Result<std::optional<DeltaFire>> SwitchBox::ApplyDelta(
    const std::vector<DeltaInput>& inputs, const std::vector<BoxValue>& old_outputs,
    const ExecContext& ctx) const {
  const RowOp* op = SinglePrimaryOp(*inputs[0].delta);
  if (op == nullptr) return Decline();
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_in, InputRelation(*inputs[0].old_value));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation new_in, InputRelation(*inputs[0].new_value));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_match, InputRelation(old_outputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_rest, InputRelation(old_outputs[1]));
  TIOGA2_ASSIGN_OR_RETURN(
      FilteredDelta matching,
      FilterRowEdit(old_in, new_in, old_match, *op, predicate_, ctx.policy));
  TIOGA2_ASSIGN_OR_RETURN(
      FilteredDelta rest,
      FilterRowEdit(old_in, new_in, old_rest, *op,
                    "not (" + predicate_ + ")", ctx.policy));
  return std::optional<DeltaFire>(
      DeltaFire{{WrapRelation(std::move(matching.output)),
                 WrapRelation(std::move(rest.output))},
                {PrimaryDelta(std::move(matching.ops)),
                 PrimaryDelta(std::move(rest.ops))}});
}

Result<std::vector<BoxValue>> ConstBox::Fire(const std::vector<BoxValue>& inputs,
                                             const ExecContext& ctx) const {
  (void)inputs;
  (void)ctx;
  TIOGA2_ASSIGN_OR_RETURN(types::Value value, types::Value::Parse(type_, text_));
  return std::vector<BoxValue>{BoxValue(std::move(value))};
}

std::map<std::string, std::string> ConstBox::Params() const {
  return {{"type", types::DataTypeToString(type_)}, {"value", text_}};
}

}  // namespace tioga2::boxes
