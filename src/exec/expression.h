#ifndef VSTORE_EXEC_EXPRESSION_H_
#define VSTORE_EXEC_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/compare_op.h"
#include "types/schema.h"
#include "types/value.h"

namespace vstore {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind {
  kColumn,
  kLiteral,
  kCompare,
  kArith,
  kBool,  // AND / OR
  kNot,
  kIsNull,
  kYear,
  kStartsWith,
  kIn,
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };
enum class BoolOp { kAnd, kOr };

// Bound scalar expression. Expressions are constructed against a specific
// input schema (column references are resolved to indices at build time).
// Batch mode compiles the tree to an ExprProgram (exec/expr_program.h) and
// runs it vectorized over a Batch; row mode evaluates it one row at a time
// over a std::vector<Value> — the same tree drives both engines, mirroring
// how the paper's plans mix modes.
//
// NULL semantics: comparisons and arithmetic are null-strict (null in →
// null out); AND/OR are null-strict too (a simplification of SQL's
// three-valued logic — see README "SQL semantics" note). Filters treat a
// null predicate result as non-qualifying, which matches SQL.
class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  DataType output_type() const { return output_type_; }

  // Row-at-a-time evaluation: the row-mode engine, the compiler's constant
  // folder, and the reference the batch program is tested against.
  virtual Status EvalRow(const std::vector<Value>& row, Value* out) const = 0;

  virtual std::string ToString() const = 0;

 protected:
  Expr(ExprKind kind, DataType output_type)
      : kind_(kind), output_type_(output_type) {}

 private:
  ExprKind kind_;
  DataType output_type_;
};

// --- Concrete nodes (exposed for optimizer introspection) ----------------

class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(int index, DataType type, std::string name)
      : Expr(ExprKind::kColumn, type), index_(index), name_(std::move(name)) {}
  int index() const { return index_; }
  const std::string& name() const { return name_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override { return name_; }

 private:
  int index_;
  std::string name_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral, value.type()), value_(std::move(value)) {}
  const Value& value() const { return value_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kCompare, DataType::kBool),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override;

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right, DataType output_type)
      : Expr(ExprKind::kArith, output_type),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  ArithOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override;

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class BoolExpr final : public Expr {
 public:
  BoolExpr(BoolOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kBool, DataType::kBool),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  BoolOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override;

 private:
  BoolOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr input)
      : Expr(ExprKind::kNot, DataType::kBool), input_(std::move(input)) {}
  const ExprPtr& input() const { return input_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override { return "NOT " + input_->ToString(); }

 private:
  ExprPtr input_;
};

class IsNullExpr final : public Expr {
 public:
  explicit IsNullExpr(ExprPtr input)
      : Expr(ExprKind::kIsNull, DataType::kBool), input_(std::move(input)) {}
  const ExprPtr& input() const { return input_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override {
    return input_->ToString() + " IS NULL";
  }

 private:
  ExprPtr input_;
};

// EXTRACT(YEAR FROM date_column).
class YearExpr final : public Expr {
 public:
  explicit YearExpr(ExprPtr input)
      : Expr(ExprKind::kYear, DataType::kInt64), input_(std::move(input)) {}
  const ExprPtr& input() const { return input_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override {
    return "YEAR(" + input_->ToString() + ")";
  }

 private:
  ExprPtr input_;
};

// LIKE 'prefix%'.
class StartsWithExpr final : public Expr {
 public:
  StartsWithExpr(ExprPtr input, std::string prefix)
      : Expr(ExprKind::kStartsWith, DataType::kBool),
        input_(std::move(input)),
        prefix_(std::move(prefix)) {}
  const ExprPtr& input() const { return input_; }
  const std::string& prefix() const { return prefix_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override {
    return input_->ToString() + " LIKE '" + prefix_ + "%'";
  }

 private:
  ExprPtr input_;
  std::string prefix_;
};

// expr IN (v1, v2, ...). Candidates share the input's physical type (see
// expr::In); NULL candidates never match.
class InExpr final : public Expr {
 public:
  InExpr(ExprPtr input, std::vector<Value> values)
      : Expr(ExprKind::kIn, DataType::kBool),
        input_(std::move(input)),
        values_(std::move(values)) {}
  const ExprPtr& input() const { return input_; }
  const std::vector<Value>& values() const { return values_; }
  Status EvalRow(const std::vector<Value>& row, Value* out) const override;
  std::string ToString() const override;

 private:
  ExprPtr input_;
  std::vector<Value> values_;
};

// --- Builder functions ----------------------------------------------------
namespace expr {

// Resolves `name` in `schema`; aborts if absent (build-time error).
ExprPtr Column(const Schema& schema, const std::string& name);
ExprPtr ColumnAt(const Schema& schema, int index);
ExprPtr Lit(Value value);

ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right);
inline ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kEq, l, r); }
inline ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kNe, l, r); }
inline ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kLt, l, r); }
inline ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kLe, l, r); }
inline ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kGt, l, r); }
inline ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kGe, l, r); }

ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right);
inline ExprPtr Add(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kAdd, l, r); }
inline ExprPtr Sub(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kSub, l, r); }
inline ExprPtr Mul(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kMul, l, r); }
inline ExprPtr Div(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kDiv, l, r); }

ExprPtr And(ExprPtr left, ExprPtr right);
ExprPtr Or(ExprPtr left, ExprPtr right);
ExprPtr Not(ExprPtr input);
ExprPtr IsNull(ExprPtr input);
ExprPtr Year(ExprPtr input);
ExprPtr StartsWith(ExprPtr input, std::string prefix);
// Aborts unless every non-null candidate has the input's physical type
// (int64 family, double or string), like Cmp's string-vs-numeric check.
ExprPtr In(ExprPtr input, std::vector<Value> values);

// left >= lo AND left <= hi.
ExprPtr Between(ExprPtr input, Value lo, Value hi);

// Collects the conjuncts of a tree of ANDs.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

}  // namespace expr

}  // namespace vstore

#endif  // VSTORE_EXEC_EXPRESSION_H_
