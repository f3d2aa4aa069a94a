#include "expr/evaluator.h"

#include <cmath>
#include <vector>

#include "draw/drawable.h"
#include "expr/builtins.h"

namespace tioga2::expr {

using types::DataType;
using types::Value;

Result<Value> TupleAccessor::GetStored(size_t index) const {
  if (index >= tuple_.size()) {
    return Status::Internal("stored attribute index out of range");
  }
  return tuple_[index];
}

Result<Value> TupleAccessor::GetNamed(const std::string& name) const {
  return Status::NotFound("no computed attribute '" + name +
                          "' on a plain relation tuple");
}

namespace {

Result<Value> EvalBinary(const ExprNode& node, const RowAccessor& row);
Result<Value> EvalCall(const ExprNode& node, const RowAccessor& row);

Result<Value> Eval(const ExprNode& node, const RowAccessor& row) {
  switch (node.kind) {
    case ExprNode::Kind::kLiteral:
      return node.literal;
    case ExprNode::Kind::kAttributeRef:
      if (node.stored_index.has_value()) return row.GetStored(*node.stored_index);
      return row.GetNamed(node.name);
    case ExprNode::Kind::kUnary: {
      TIOGA2_ASSIGN_OR_RETURN(Value v, Eval(*node.children[0], row));
      return ApplyUnaryOp(node.unary_op, v);
    }
    case ExprNode::Kind::kBinary:
      return EvalBinary(node, row);
    case ExprNode::Kind::kCall:
      return EvalCall(node, row);
  }
  return Status::Internal("unhandled node kind in EvalExpr");
}

Result<Value> EvalBinary(const ExprNode& node, const RowAccessor& row) {
  BinaryOp op = node.binary_op;

  // Three-valued and/or with short-circuiting; the combine itself lives in
  // ApplyBinaryOp so the batch evaluator shares it.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    TIOGA2_ASSIGN_OR_RETURN(Value lhs, Eval(*node.children[0], row));
    if (!lhs.is_null()) {
      bool l = lhs.bool_value();
      if (op == BinaryOp::kAnd && !l) return Value::Bool(false);
      if (op == BinaryOp::kOr && l) return Value::Bool(true);
    }
    TIOGA2_ASSIGN_OR_RETURN(Value rhs, Eval(*node.children[1], row));
    return ApplyBinaryOp(op, lhs, rhs);
  }

  TIOGA2_ASSIGN_OR_RETURN(Value lhs, Eval(*node.children[0], row));
  TIOGA2_ASSIGN_OR_RETURN(Value rhs, Eval(*node.children[1], row));
  return ApplyBinaryOp(op, lhs, rhs);
}

Result<Value> EvalCall(const ExprNode& node, const RowAccessor& row) {
  // Special forms.
  if (node.name == "if") {
    TIOGA2_ASSIGN_OR_RETURN(Value cond, Eval(*node.children[0], row));
    if (cond.is_null()) return Value::Null();
    return Eval(*node.children[cond.bool_value() ? 1 : 2], row);
  }
  if (node.name == "coalesce") {
    TIOGA2_ASSIGN_OR_RETURN(Value first, Eval(*node.children[0], row));
    if (!first.is_null()) return first;
    return Eval(*node.children[1], row);
  }

  const BuiltinOverload* overload = node.overload;
  if (overload == nullptr) {
    return Status::Internal("call to '" + node.name + "' was not analyzed");
  }
  std::vector<Value> args;
  args.reserve(node.children.size());
  for (const ExprNodePtr& child : node.children) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, Eval(*child, row));
    if (v.is_null() && !overload->null_opaque) return Value::Null();
    args.push_back(std::move(v));
  }
  return overload->eval(args);
}

}  // namespace

Value ApplyUnaryOp(UnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (op == UnaryOp::kNeg) {
    if (v.is_int()) return Value::Int(IntArith(BinaryOp::kSub, 0, v.int_value()));
    return Value::Float(-v.float_value());
  }
  return Value::Bool(!v.bool_value());
}

Result<Value> ApplyBinaryOp(BinaryOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    // Three-valued and/or from both operands. A decisive non-null operand
    // (false for and, true for or) wins even when the other side is null,
    // matching EvalExpr's short-circuit behavior.
    case BinaryOp::kAnd: {
      if (!lhs.is_null() && !lhs.bool_value()) return Value::Bool(false);
      if (!rhs.is_null() && !rhs.bool_value()) return Value::Bool(false);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Bool(true);
    }
    case BinaryOp::kOr: {
      if (!lhs.is_null() && lhs.bool_value()) return Value::Bool(true);
      if (!rhs.is_null() && rhs.bool_value()) return Value::Bool(true);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Bool(false);
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      bool eq = lhs.Equals(rhs);
      return Value::Bool(op == BinaryOp::kEq ? eq : !eq);
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      TIOGA2_ASSIGN_OR_RETURN(int cmp, lhs.Compare(rhs));
      switch (op) {
        case BinaryOp::kLt: return Value::Bool(cmp < 0);
        case BinaryOp::kLe: return Value::Bool(cmp <= 0);
        case BinaryOp::kGt: return Value::Bool(cmp > 0);
        default: return Value::Bool(cmp >= 0);
      }
    }
    default:
      break;
  }

  // Arithmetic: null-propagating.
  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  // String concatenation.
  if (op == BinaryOp::kAdd && lhs.is_string() && rhs.is_string()) {
    return Value::String(lhs.string_value() + rhs.string_value());
  }
  // Display combination (Combine Displays at zero offset; use offset() for
  // an explicit offset).
  if (op == BinaryOp::kAdd && lhs.is_display() && rhs.is_display()) {
    return Value::Display(
        draw::CombineDrawableLists(lhs.display_value(), rhs.display_value(), 0, 0));
  }
  // Date arithmetic. A result outside Date's range is an error, not a value;
  // a sum that wraps lands near INT64_MIN or INT64_MAX, far outside it.
  if (lhs.is_date()) {
    if ((op == BinaryOp::kAdd || op == BinaryOp::kSub) && rhs.is_int()) {
      TIOGA2_ASSIGN_OR_RETURN(
          types::Date date,
          types::Date::FromDays(IntArith(op, lhs.date_value().DaysValue(), rhs.int_value())));
      return Value::DateVal(date);
    }
    if (op == BinaryOp::kSub && rhs.is_date()) {
      return Value::Int(IntArith(op, lhs.date_value().DaysValue(),
                                 rhs.date_value().DaysValue()));
    }
  }

  bool both_int = lhs.is_int() && rhs.is_int();
  if (both_int && (op == BinaryOp::kAdd || op == BinaryOp::kSub || op == BinaryOp::kMul)) {
    return Value::Int(IntArith(op, lhs.int_value(), rhs.int_value()));
  }
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Float(lhs.AsDouble() + rhs.AsDouble());
    case BinaryOp::kSub:
      return Value::Float(lhs.AsDouble() - rhs.AsDouble());
    case BinaryOp::kMul:
      return Value::Float(lhs.AsDouble() * rhs.AsDouble());
    case BinaryOp::kDiv: {
      double denominator = rhs.AsDouble();
      if (denominator == 0) return Value::Null();
      return Value::Float(lhs.AsDouble() / denominator);
    }
    case BinaryOp::kMod: {
      if (rhs.int_value() == 0) return Value::Null();
      return Value::Int(IntArith(op, lhs.int_value(), rhs.int_value()));
    }
    default:
      return Status::Internal("unhandled binary operator at evaluation");
  }
}

Result<Value> EvalExpr(const ExprNode& node, const RowAccessor& row) {
  return Eval(node, row);
}

}  // namespace tioga2::expr
