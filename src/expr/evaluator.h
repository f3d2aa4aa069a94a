#ifndef TIOGA2_EXPR_EVALUATOR_H_
#define TIOGA2_EXPR_EVALUATOR_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "db/relation.h"
#include "expr/ast.h"

namespace tioga2::expr {

/// Supplies attribute values for one tuple during expression evaluation.
/// The relation layer implements it over a stored tuple; the display layer
/// adds computed attributes (location/display methods) with memoization.
class RowAccessor {
 public:
  virtual ~RowAccessor() = default;

  /// Value of the stored attribute at `index` (resolved by the analyzer).
  virtual Result<types::Value> GetStored(size_t index) const = 0;

  /// Value of the computed attribute `name`.
  virtual Result<types::Value> GetNamed(const std::string& name) const = 0;
};

/// RowAccessor over a plain stored tuple. GetNamed fails: a bare relation
/// has no computed attributes.
class TupleAccessor : public RowAccessor {
 public:
  /// `tuple` must outlive the accessor.
  explicit TupleAccessor(const db::Tuple& tuple) : tuple_(tuple) {}

  Result<types::Value> GetStored(size_t index) const override;
  Result<types::Value> GetNamed(const std::string& name) const override;

 private:
  const db::Tuple& tuple_;
};

/// Evaluates an analyzed expression tree for one row.
///
/// Null semantics (SQL-flavored): arithmetic and comparisons with a null
/// operand yield null; and/or are three-valued (false and null = false,
/// true or null = true); division or modulo by zero yields null rather than
/// an error so that one bad tuple cannot take down a visualization. Integer
/// arithmetic wraps (see IntArith).
Result<types::Value> EvalExpr(const ExprNode& node, const RowAccessor& row);

/// Integer `a <op> b` for op in + - * %, the one definition both evaluators
/// use: + - * wrap in two's complement (computed through uint64_t, so never
/// signed overflow), and x % -1 is 0, where INT64_MIN % -1 would trap. The
/// caller maps x % 0 to null first. Negation is IntArith(kSub, 0, a).
inline int64_t IntArith(BinaryOp op, int64_t a, int64_t b) {
  const auto x = static_cast<uint64_t>(a);
  const auto y = static_cast<uint64_t>(b);
  switch (op) {
    case BinaryOp::kAdd:
      return static_cast<int64_t>(x + y);
    case BinaryOp::kSub:
      return static_cast<int64_t>(x - y);
    case BinaryOp::kMul:
      return static_cast<int64_t>(x * y);
    default:  // kMod
      return b == -1 ? 0 : a % b;
  }
}

/// Applies one unary operator to an already-evaluated operand. This is the
/// single definition of unary semantics: EvalExpr calls it per row and the
/// BatchEvaluator calls it for operands it could not keep in typed vectors,
/// so the two paths cannot drift apart.
types::Value ApplyUnaryOp(UnaryOp op, const types::Value& v);

/// Applies one binary operator to already-evaluated operands — the shared
/// scalar kernel of EvalExpr and the BatchEvaluator's boxed fallback.
/// For kAnd/kOr this computes the three-valued result from both operands;
/// EvalExpr short-circuits before calling it when the left operand decides.
Result<types::Value> ApplyBinaryOp(BinaryOp op, const types::Value& lhs,
                                   const types::Value& rhs);

}  // namespace tioga2::expr

#endif  // TIOGA2_EXPR_EVALUATOR_H_
