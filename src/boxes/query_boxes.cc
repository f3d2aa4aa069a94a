#include "boxes/query_boxes.h"

#include "common/str_util.h"
#include "db/aggregates.h"
#include "db/operators.h"
#include "display/displayable.h"

namespace tioga2::boxes {

using dataflow::RowOp;
using dataflow::SinglePrimaryOp;
using dataflow::ValueDelta;
using display::Displayable;
using display::DisplayRelation;

namespace {

Result<DisplayRelation> InputRelation(const BoxValue& value) {
  TIOGA2_ASSIGN_OR_RETURN(Displayable displayable, dataflow::AsDisplayable(value));
  return display::AsRelation(displayable);
}

BoxValue WrapRelation(DisplayRelation relation) {
  return BoxValue(Displayable(std::move(relation)));
}

}  // namespace

Result<std::vector<BoxValue>> GroupByBox::Fire(const std::vector<BoxValue>& inputs,
                                               const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation input, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr grouped,
                          db::GroupBy(input.base(), keys_, aggs_, ctx.policy));
  TIOGA2_ASSIGN_OR_RETURN(
      DisplayRelation output,
      DisplayRelation::WithDefaults(input.name() + "_by", std::move(grouped)));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

std::map<std::string, std::string> GroupByBox::Params() const {
  return {{"keys", StrJoin(keys_, ",")}, {"aggs", AggSpecsToString(aggs_)}};
}

Result<std::vector<BoxValue>> DistinctBox::Fire(const std::vector<BoxValue>& inputs,
                                                const ExecContext& ctx) const {
  (void)ctx;
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation input, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr distinct, db::Distinct(input.base()));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation output, input.WithBase(std::move(distinct)));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

Result<std::vector<BoxValue>> UnionAllBox::Fire(const std::vector<BoxValue>& inputs,
                                                const ExecContext& ctx) const {
  (void)ctx;
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation first, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation second, InputRelation(inputs[1]));
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr merged,
                          db::UnionAll(first.base(), second.base()));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation output, first.WithBase(std::move(merged)));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

Result<std::vector<BoxValue>> SortBox::Fire(const std::vector<BoxValue>& inputs,
                                            const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation input, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr sorted,
                          db::Sort(input.base(), column_, ascending_, ctx.policy));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation output, input.WithBase(std::move(sorted)));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

Result<std::optional<DeltaFire>> SortBox::ApplyDelta(
    const std::vector<DeltaInput>& inputs, const std::vector<BoxValue>& old_outputs,
    const ExecContext& ctx) const {
  (void)ctx;
  const RowOp* op = SinglePrimaryOp(*inputs[0].delta);
  // Inserts and deletes shift the original row indices that stable_sort
  // breaks ties with, so only in-place updates are maintained.
  if (op == nullptr || op->kind != RowOp::Kind::kUpdate) {
    return std::optional<DeltaFire>();
  }
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_in, InputRelation(*inputs[0].old_value));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation new_in, InputRelation(*inputs[0].new_value));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_out, InputRelation(old_outputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(size_t index, old_in.base()->schema()->ColumnIndex(column_));
  const db::RelationPtr& old_base = old_in.base();
  const size_t edited = op->row;
  if (edited >= old_base->num_rows() || index >= op->old_tuple.size()) {
    return std::optional<DeltaFire>();
  }

  // The edited tuple's output position is the number of rows that sort
  // strictly before it: smaller key, or equal key and smaller original row
  // index (stable_sort's tie-break). Every other row's key and index are
  // unchanged, so their relative order is too — the whole re-sort reduces
  // to relocating one row.
  auto sorts_before = [&](const types::Value& key, size_t row,
                          const types::Value& pivot) -> Result<bool> {
    TIOGA2_ASSIGN_OR_RETURN(int cmp, key.Compare(pivot));
    if (cmp == 0) return row < edited;
    return ascending_ ? cmp < 0 : cmp > 0;
  };
  size_t p_old = 0;
  size_t p_new = 0;
  for (size_t i = 0; i < old_base->num_rows(); ++i) {
    if (i == edited) continue;
    const types::Value& key = old_base->at(i, index);
    TIOGA2_ASSIGN_OR_RETURN(bool before_old,
                            sorts_before(key, i, op->old_tuple[index]));
    if (before_old) ++p_old;
    TIOGA2_ASSIGN_OR_RETURN(bool before_new,
                            sorts_before(key, i, op->new_tuple[index]));
    if (before_new) ++p_new;
  }

  std::vector<RowOp> ops;
  db::RelationPtr spliced;
  if (p_old == p_new) {
    RowOp o;
    o.kind = RowOp::Kind::kUpdate;
    o.row = p_old;
    o.old_tuple = op->old_tuple;
    o.new_tuple = op->new_tuple;
    ops.push_back(std::move(o));
    TIOGA2_ASSIGN_OR_RETURN(
        spliced, db::WithRowReplaced(old_out.base(), p_old, op->new_tuple));
  } else {
    RowOp del;
    del.kind = RowOp::Kind::kDelete;
    del.row = p_old;
    del.old_tuple = op->old_tuple;
    RowOp ins;
    ins.kind = RowOp::Kind::kInsert;
    ins.row = p_new;
    ins.new_tuple = op->new_tuple;
    TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr erased,
                            db::WithRowErased(old_out.base(), p_old));
    TIOGA2_ASSIGN_OR_RETURN(
        spliced, db::WithRowInserted(std::move(erased), p_new, op->new_tuple));
    ops.push_back(std::move(del));
    ops.push_back(std::move(ins));
  }
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation out, new_in.WithBase(std::move(spliced)));
  ValueDelta delta;
  dataflow::MemberDelta member;
  member.ops = std::move(ops);
  delta.members.push_back(std::move(member));
  return std::optional<DeltaFire>(
      DeltaFire{{WrapRelation(std::move(out))}, {std::move(delta)}});
}

Result<std::vector<BoxValue>> LimitBox::Fire(const std::vector<BoxValue>& inputs,
                                             const ExecContext& ctx) const {
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation input, InputRelation(inputs[0]));
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr limited,
                          db::Limit(input.base(), limit_, ctx.policy));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation output, input.WithBase(std::move(limited)));
  return std::vector<BoxValue>{WrapRelation(std::move(output))};
}

Result<std::optional<DeltaFire>> LimitBox::ApplyDelta(
    const std::vector<DeltaInput>& inputs, const std::vector<BoxValue>& old_outputs,
    const ExecContext& ctx) const {
  (void)ctx;
  const RowOp* op = SinglePrimaryOp(*inputs[0].delta);
  if (op == nullptr || op->kind != RowOp::Kind::kUpdate) {
    return std::optional<DeltaFire>();  // inserts/deletes shift the boundary
  }
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation new_in, InputRelation(*inputs[0].new_value));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation old_out, InputRelation(old_outputs[0]));
  if (op->row >= limit_) {
    // The edit happened past the cut: the output bytes are unchanged, only
    // the metadata carrier (the new input) moves forward.
    TIOGA2_ASSIGN_OR_RETURN(DisplayRelation out, new_in.WithBase(old_out.base()));
    return std::optional<DeltaFire>(
        DeltaFire{{WrapRelation(std::move(out))}, {ValueDelta{}}});
  }
  TIOGA2_ASSIGN_OR_RETURN(
      db::RelationPtr spliced,
      db::WithRowReplaced(old_out.base(), op->row, op->new_tuple));
  TIOGA2_ASSIGN_OR_RETURN(DisplayRelation out, new_in.WithBase(std::move(spliced)));
  RowOp out_op = *op;
  ValueDelta delta;
  dataflow::MemberDelta member;
  member.ops.push_back(std::move(out_op));
  delta.members.push_back(std::move(member));
  return std::optional<DeltaFire>(
      DeltaFire{{WrapRelation(std::move(out))}, {std::move(delta)}});
}

Result<std::vector<db::AggSpec>> ParseAggSpecs(const std::string& text) {
  std::vector<db::AggSpec> specs;
  for (const std::string& piece : StrSplit(text, ';')) {
    if (piece.empty()) continue;
    std::vector<std::string> parts = StrSplit(piece, ':');
    if (parts.size() != 3) {
      return Status::ParseError("aggregate spec '" + piece +
                                "' is not fn:column:output");
    }
    db::AggSpec spec;
    if (!db::AggFnFromString(parts[0], &spec.fn)) {
      return Status::ParseError("unknown aggregate function '" + parts[0] + "'");
    }
    spec.column = parts[1];
    spec.output_name = parts[2];
    if (spec.fn != db::AggFn::kCount && spec.column.empty()) {
      return Status::ParseError("aggregate '" + parts[0] + "' needs a column");
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return Status::InvalidArgument("GroupBy needs at least one aggregate");
  }
  return specs;
}

std::string AggSpecsToString(const std::vector<db::AggSpec>& aggs) {
  std::vector<std::string> pieces;
  pieces.reserve(aggs.size());
  for (const db::AggSpec& spec : aggs) {
    pieces.push_back(AggFnToString(spec.fn) + ":" + spec.column + ":" +
                     spec.output_name);
  }
  return StrJoin(pieces, ";");
}

}  // namespace tioga2::boxes
