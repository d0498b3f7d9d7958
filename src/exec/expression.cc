#include "exec/expression.h"

#include "common/int_arith.h"
#include "common/macros.h"

namespace vstore {

namespace {

int CompareValuesSameFamily(const Value& a, const Value& b) {
  switch (PhysicalTypeOf(a.type())) {
    case PhysicalType::kString: {
      int c = a.str().compare(b.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case PhysicalType::kDouble:
    case PhysicalType::kInt64: {
      if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
        double x = a.AsDouble(), y = b.AsDouble();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      int64_t x = a.int64(), y = b.int64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
  }
  return 0;
}

}  // namespace

// --- ColumnRefExpr --------------------------------------------------------

Status ColumnRefExpr::EvalRow(const std::vector<Value>& row,
                              Value* out) const {
  *out = row[static_cast<size_t>(index_)];
  return Status::OK();
}

// --- LiteralExpr ------------------------------------------------------------

Status LiteralExpr::EvalRow(const std::vector<Value>& row, Value* out) const {
  *out = value_;
  return Status::OK();
}

// --- CompareExpr ------------------------------------------------------------

Status CompareExpr::EvalRow(const std::vector<Value>& row, Value* out) const {
  Value a, b;
  VSTORE_RETURN_IF_ERROR(left_->EvalRow(row, &a));
  VSTORE_RETURN_IF_ERROR(right_->EvalRow(row, &b));
  if (a.is_null() || b.is_null()) {
    *out = Value::Null(DataType::kBool);
    return Status::OK();
  }
  *out = Value::Bool(ApplyCompare(op_, CompareValuesSameFamily(a, b)));
  return Status::OK();
}

std::string CompareExpr::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpName(op_) + " " +
         right_->ToString() + ")";
}

// --- ArithExpr ---------------------------------------------------------------

Status ArithExpr::EvalRow(const std::vector<Value>& row, Value* out) const {
  Value a, b;
  VSTORE_RETURN_IF_ERROR(left_->EvalRow(row, &a));
  VSTORE_RETURN_IF_ERROR(right_->EvalRow(row, &b));
  if (a.is_null() || b.is_null()) {
    *out = Value::Null(output_type());
    return Status::OK();
  }
  if (output_type() == DataType::kDouble) {
    double x = a.AsDouble(), y = b.AsDouble();
    switch (op_) {
      case ArithOp::kAdd:
        *out = Value::Double(x + y);
        break;
      case ArithOp::kSub:
        *out = Value::Double(x - y);
        break;
      case ArithOp::kMul:
        *out = Value::Double(x * y);
        break;
      case ArithOp::kDiv:
        *out = y != 0.0 ? Value::Double(x / y)
                        : Value::Null(DataType::kDouble);
        break;
    }
  } else {
    int64_t x = a.int64(), y = b.int64();
    switch (op_) {
      case ArithOp::kAdd:
        *out = Value::Int64(WrapAdd(x, y));
        break;
      case ArithOp::kSub:
        *out = Value::Int64(WrapSub(x, y));
        break;
      case ArithOp::kMul:
        *out = Value::Int64(WrapMul(x, y));
        break;
      case ArithOp::kDiv:
        *out = y != 0 ? Value::Int64(WrapDiv(x, y))
                      : Value::Null(DataType::kInt64);
        break;
    }
  }
  return Status::OK();
}

std::string ArithExpr::ToString() const {
  const char* op = op_ == ArithOp::kAdd   ? "+"
                   : op_ == ArithOp::kSub ? "-"
                   : op_ == ArithOp::kMul ? "*"
                                          : "/";
  return "(" + left_->ToString() + " " + op + " " + right_->ToString() + ")";
}

// --- BoolExpr -----------------------------------------------------------------

Status BoolExpr::EvalRow(const std::vector<Value>& row, Value* out) const {
  Value a, b;
  VSTORE_RETURN_IF_ERROR(left_->EvalRow(row, &a));
  VSTORE_RETURN_IF_ERROR(right_->EvalRow(row, &b));
  if (a.is_null() || b.is_null()) {
    *out = Value::Null(DataType::kBool);
    return Status::OK();
  }
  bool x = a.int64() != 0, y = b.int64() != 0;
  *out = Value::Bool(op_ == BoolOp::kAnd ? (x && y) : (x || y));
  return Status::OK();
}

std::string BoolExpr::ToString() const {
  return "(" + left_->ToString() +
         (op_ == BoolOp::kAnd ? " AND " : " OR ") + right_->ToString() + ")";
}

// --- NotExpr -------------------------------------------------------------------

Status NotExpr::EvalRow(const std::vector<Value>& row, Value* out) const {
  Value v;
  VSTORE_RETURN_IF_ERROR(input_->EvalRow(row, &v));
  *out = v.is_null() ? Value::Null(DataType::kBool)
                     : Value::Bool(v.int64() == 0);
  return Status::OK();
}

// --- IsNullExpr ------------------------------------------------------------------

Status IsNullExpr::EvalRow(const std::vector<Value>& row, Value* out) const {
  Value v;
  VSTORE_RETURN_IF_ERROR(input_->EvalRow(row, &v));
  *out = Value::Bool(v.is_null());
  return Status::OK();
}

// --- YearExpr ---------------------------------------------------------------------

Status YearExpr::EvalRow(const std::vector<Value>& row, Value* out) const {
  Value v;
  VSTORE_RETURN_IF_ERROR(input_->EvalRow(row, &v));
  *out = v.is_null() ? Value::Null(DataType::kInt64)
                     : Value::Int64(YearFromDays(v.int64()));
  return Status::OK();
}

// --- StartsWithExpr ----------------------------------------------------------------

Status StartsWithExpr::EvalRow(const std::vector<Value>& row,
                               Value* out) const {
  Value v;
  VSTORE_RETURN_IF_ERROR(input_->EvalRow(row, &v));
  if (v.is_null()) {
    *out = Value::Null(DataType::kBool);
    return Status::OK();
  }
  *out = Value::Bool(std::string_view(v.str()).substr(0, prefix_.size()) ==
                     prefix_);
  return Status::OK();
}

// --- InExpr -------------------------------------------------------------------------

Status InExpr::EvalRow(const std::vector<Value>& row, Value* out) const {
  Value v;
  VSTORE_RETURN_IF_ERROR(input_->EvalRow(row, &v));
  if (v.is_null()) {
    *out = Value::Null(DataType::kBool);
    return Status::OK();
  }
  // Matches by physical value, as the compiled IN does: an INT32 or DATE32
  // input matches an INT64 candidate holding the same number. expr::In
  // guarantees every candidate has the input's physical type.
  for (const Value& candidate : values_) {
    if (candidate.is_null()) continue;
    bool hit = false;
    switch (PhysicalTypeOf(v.type())) {
      case PhysicalType::kInt64:
        hit = v.int64() == candidate.int64();
        break;
      case PhysicalType::kDouble:
        hit = v.dbl() == candidate.dbl();
        break;
      case PhysicalType::kString:
        hit = v.str() == candidate.str();
        break;
    }
    if (hit) {
      *out = Value::Bool(true);
      return Status::OK();
    }
  }
  *out = Value::Bool(false);
  return Status::OK();
}

std::string InExpr::ToString() const {
  std::string out = input_->ToString() + " IN (";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  return out + ")";
}

// --- Builders ------------------------------------------------------------------------

namespace expr {

ExprPtr Column(const Schema& schema, const std::string& name) {
  int index = schema.IndexOf(name);
  VSTORE_CHECK(index >= 0);
  return std::make_shared<ColumnRefExpr>(index, schema.field(index).type,
                                         name);
}

ExprPtr ColumnAt(const Schema& schema, int index) {
  VSTORE_CHECK(index >= 0 && index < schema.num_columns());
  return std::make_shared<ColumnRefExpr>(index, schema.field(index).type,
                                         schema.field(index).name);
}

ExprPtr Lit(Value value) { return std::make_shared<LiteralExpr>(std::move(value)); }

ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right) {
  bool ls = PhysicalTypeOf(left->output_type()) == PhysicalType::kString;
  bool rs = PhysicalTypeOf(right->output_type()) == PhysicalType::kString;
  VSTORE_CHECK(ls == rs);
  return std::make_shared<CompareExpr>(op, std::move(left), std::move(right));
}

ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right) {
  VSTORE_CHECK(IsNumeric(left->output_type()) &&
               IsNumeric(right->output_type()));
  DataType out = (left->output_type() == DataType::kDouble ||
                  right->output_type() == DataType::kDouble)
                     ? DataType::kDouble
                     : DataType::kInt64;
  return std::make_shared<ArithExpr>(op, std::move(left), std::move(right),
                                     out);
}

ExprPtr And(ExprPtr left, ExprPtr right) {
  return std::make_shared<BoolExpr>(BoolOp::kAnd, std::move(left),
                                    std::move(right));
}

ExprPtr Or(ExprPtr left, ExprPtr right) {
  return std::make_shared<BoolExpr>(BoolOp::kOr, std::move(left),
                                    std::move(right));
}

ExprPtr Not(ExprPtr input) { return std::make_shared<NotExpr>(std::move(input)); }

ExprPtr IsNull(ExprPtr input) {
  return std::make_shared<IsNullExpr>(std::move(input));
}

ExprPtr Year(ExprPtr input) {
  VSTORE_CHECK(PhysicalTypeOf(input->output_type()) == PhysicalType::kInt64);
  return std::make_shared<YearExpr>(std::move(input));
}

ExprPtr StartsWith(ExprPtr input, std::string prefix) {
  VSTORE_CHECK(input->output_type() == DataType::kString);
  return std::make_shared<StartsWithExpr>(std::move(input), std::move(prefix));
}

ExprPtr In(ExprPtr input, std::vector<Value> values) {
  const PhysicalType phys = PhysicalTypeOf(input->output_type());
  for (const Value& v : values) {
    VSTORE_CHECK(v.is_null() || PhysicalTypeOf(v.type()) == phys);
  }
  return std::make_shared<InExpr>(std::move(input), std::move(values));
}

ExprPtr Between(ExprPtr input, Value lo, Value hi) {
  return And(Ge(input, Lit(std::move(lo))), Le(input, Lit(std::move(hi))));
}

void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kBool) {
    const auto* b = static_cast<const BoolExpr*>(expr.get());
    if (b->op() == BoolOp::kAnd) {
      CollectConjuncts(b->left(), out);
      CollectConjuncts(b->right(), out);
      return;
    }
  }
  out->push_back(expr);
}

}  // namespace expr

}  // namespace vstore
