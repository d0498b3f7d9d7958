#include "exec/expr_program.h"

#include <bit>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/metrics.h"
#include "exec/expr_kernels.h"
#include "storage/dictionary.h"

namespace vstore {

namespace {

bool ContainsColumn(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kColumn:
      return true;
    case ExprKind::kLiteral:
      return false;
    case ExprKind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(e);
      return ContainsColumn(*c.left()) || ContainsColumn(*c.right());
    }
    case ExprKind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(e);
      return ContainsColumn(*a.left()) || ContainsColumn(*a.right());
    }
    case ExprKind::kBool: {
      const auto& b = static_cast<const BoolExpr&>(e);
      return ContainsColumn(*b.left()) || ContainsColumn(*b.right());
    }
    case ExprKind::kNot:
      return ContainsColumn(*static_cast<const NotExpr&>(e).input());
    case ExprKind::kIsNull:
      return ContainsColumn(*static_cast<const IsNullExpr&>(e).input());
    case ExprKind::kYear:
      return ContainsColumn(*static_cast<const YearExpr&>(e).input());
    case ExprKind::kStartsWith:
      return ContainsColumn(*static_cast<const StartsWithExpr&>(e).input());
    case ExprKind::kIn:
      return ContainsColumn(*static_cast<const InExpr&>(e).input());
  }
  return true;
}

// True when the node can only ever produce 0/1 in its value lane — the
// precondition for the AND/OR identity rewrites (a bool-typed *column*
// could in principle hold other int payloads, so kinds are whitelisted
// rather than trusting output_type()).
bool IsCanonicalBool(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kCompare:
    case ExprKind::kBool:
    case ExprKind::kNot:
    case ExprKind::kIsNull:
    case ExprKind::kStartsWith:
    case ExprKind::kIn:
      return true;
    default:
      return false;
  }
}

CompareOp NegateCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

bool IsIntLiteral(const Expr& e, int64_t value) {
  if (e.kind() != ExprKind::kLiteral) return false;
  const Value& v = static_cast<const LiteralExpr&>(e).value();
  return !v.is_null() && PhysicalTypeOf(v.type()) == PhysicalType::kInt64 &&
         v.int64() == value;
}

// Non-null physical-int literal usable as a boolean truth value.
bool IsTruthLiteral(const Expr& e, bool truthy) {
  if (e.kind() != ExprKind::kLiteral) return false;
  const Value& v = static_cast<const LiteralExpr&>(e).value();
  if (v.is_null() || PhysicalTypeOf(v.type()) != PhysicalType::kInt64) {
    return false;
  }
  return (v.int64() != 0) == truthy;
}

int CountNodes(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kColumn:
    case ExprKind::kLiteral:
      return 1;
    case ExprKind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(e);
      return 1 + CountNodes(*c.left()) + CountNodes(*c.right());
    }
    case ExprKind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(e);
      return 1 + CountNodes(*a.left()) + CountNodes(*a.right());
    }
    case ExprKind::kBool: {
      const auto& b = static_cast<const BoolExpr&>(e);
      return 1 + CountNodes(*b.left()) + CountNodes(*b.right());
    }
    case ExprKind::kNot:
      return 1 + CountNodes(*static_cast<const NotExpr&>(e).input());
    case ExprKind::kIsNull:
      return 1 + CountNodes(*static_cast<const IsNullExpr&>(e).input());
    case ExprKind::kYear:
      return 1 + CountNodes(*static_cast<const YearExpr&>(e).input());
    case ExprKind::kStartsWith:
      return 1 + CountNodes(*static_cast<const StartsWithExpr&>(e).input());
    case ExprKind::kIn:
      return 1 + CountNodes(*static_cast<const InExpr&>(e).input());
  }
  return 1;
}

// --- Constant folding + null-safe algebraic simplification ----------------
// Every rule here is vetted against the engine's null-strict semantics:
// rewrites like x*0 -> 0 or AND(x,false) -> false are rejected because they
// would lose null propagation, and double identities like x+0.0 are
// rejected because they are not bit-exact (-0.0).

ExprPtr Simplify(const ExprPtr& e, ExprProgram::CompileStats* stats);

ExprPtr TryFold(const ExprPtr& e, ExprProgram::CompileStats* stats) {
  if (e->kind() == ExprKind::kLiteral || e->kind() == ExprKind::kColumn) {
    return e;
  }
  if (ContainsColumn(*e)) return e;
  Value v;
  std::vector<Value> no_row;
  if (!e->EvalRow(no_row, &v).ok()) return e;
  ++stats->folded;
  // Preserve the static output type (EvalRow nulls carry it already; for
  // non-null results the value type matches by construction).
  return expr::Lit(std::move(v));
}

ExprPtr Simplify(const ExprPtr& e, ExprProgram::CompileStats* stats) {
  switch (e->kind()) {
    case ExprKind::kColumn:
    case ExprKind::kLiteral:
      return e;
    case ExprKind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(*e);
      ExprPtr l = Simplify(c.left(), stats);
      ExprPtr r = Simplify(c.right(), stats);
      ExprPtr out = (l == c.left() && r == c.right())
                        ? e
                        : std::make_shared<CompareExpr>(c.op(), l, r);
      return TryFold(out, stats);
    }
    case ExprKind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(*e);
      ExprPtr l = Simplify(a.left(), stats);
      ExprPtr r = Simplify(a.right(), stats);
      // Integer-only identities (wrapping arithmetic makes these exact for
      // every operand; doubles are excluded because of -0.0 and NaN). The
      // surviving operand must already be kInt64 so the rewrite preserves
      // the node's static output type (a kDate32 + 0 stays an Arith node).
      if (e->output_type() == DataType::kInt64) {
        auto keep = [&](const ExprPtr& x) {
          return x->output_type() == DataType::kInt64;
        };
        switch (a.op()) {
          case ArithOp::kAdd:
            if (IsIntLiteral(*l, 0) && keep(r)) { ++stats->simplified; return r; }
            if (IsIntLiteral(*r, 0) && keep(l)) { ++stats->simplified; return l; }
            break;
          case ArithOp::kSub:
            if (IsIntLiteral(*r, 0) && keep(l)) { ++stats->simplified; return l; }
            break;
          case ArithOp::kMul:
            if (IsIntLiteral(*l, 1) && keep(r)) { ++stats->simplified; return r; }
            if (IsIntLiteral(*r, 1) && keep(l)) { ++stats->simplified; return l; }
            break;
          case ArithOp::kDiv:
            if (IsIntLiteral(*r, 1) && keep(l)) { ++stats->simplified; return l; }
            break;
        }
      }
      ExprPtr out =
          (l == a.left() && r == a.right())
              ? e
              : std::make_shared<ArithExpr>(a.op(), l, r, a.output_type());
      return TryFold(out, stats);
    }
    case ExprKind::kBool: {
      const auto& b = static_cast<const BoolExpr&>(*e);
      ExprPtr l = Simplify(b.left(), stats);
      ExprPtr r = Simplify(b.right(), stats);
      // AND(x, true) -> x and OR(x, false) -> x need x to be a canonical
      // 0/1 producer; AND(x, false) -> false is NOT valid (null-strict AND
      // must return null for null x).
      bool want = b.op() == BoolOp::kAnd;
      if (IsTruthLiteral(*l, want) && IsCanonicalBool(*r)) {
        ++stats->simplified;
        return r;
      }
      if (IsTruthLiteral(*r, want) && IsCanonicalBool(*l)) {
        ++stats->simplified;
        return l;
      }
      ExprPtr out = (l == b.left() && r == b.right())
                        ? e
                        : std::make_shared<BoolExpr>(b.op(), l, r);
      return TryFold(out, stats);
    }
    case ExprKind::kNot: {
      const auto& nt = static_cast<const NotExpr&>(*e);
      ExprPtr in = Simplify(nt.input(), stats);
      // NOT(cmp) -> negated cmp: null-safe because both sides propagate
      // the operand's validity unchanged.
      if (in->kind() == ExprKind::kCompare) {
        const auto& c = static_cast<const CompareExpr&>(*in);
        ++stats->simplified;
        return TryFold(std::make_shared<CompareExpr>(NegateCompare(c.op()),
                                                     c.left(), c.right()),
                       stats);
      }
      // NOT(NOT(x)) -> x for canonical bool x.
      if (in->kind() == ExprKind::kNot) {
        const auto& inner = static_cast<const NotExpr&>(*in);
        if (IsCanonicalBool(*inner.input())) {
          ++stats->simplified;
          return inner.input();
        }
      }
      ExprPtr out =
          in == nt.input() ? e : std::make_shared<NotExpr>(in);
      return TryFold(out, stats);
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(*e);
      ExprPtr in = Simplify(isn.input(), stats);
      ExprPtr out =
          in == isn.input() ? e : std::make_shared<IsNullExpr>(in);
      return TryFold(out, stats);
    }
    case ExprKind::kYear: {
      const auto& y = static_cast<const YearExpr&>(*e);
      ExprPtr in = Simplify(y.input(), stats);
      ExprPtr out = in == y.input() ? e : std::make_shared<YearExpr>(in);
      return TryFold(out, stats);
    }
    case ExprKind::kStartsWith: {
      const auto& sw = static_cast<const StartsWithExpr&>(*e);
      ExprPtr in = Simplify(sw.input(), stats);
      ExprPtr out = in == sw.input()
                        ? e
                        : std::make_shared<StartsWithExpr>(in, sw.prefix());
      return TryFold(out, stats);
    }
    case ExprKind::kIn: {
      const auto& ine = static_cast<const InExpr&>(*e);
      ExprPtr in = Simplify(ine.input(), stats);
      ExprPtr out =
          in == ine.input() ? e : std::make_shared<InExpr>(in, ine.values());
      return TryFold(out, stats);
    }
  }
  return e;
}

std::string ValueKey(const Value& v) {
  std::string key = std::to_string(static_cast<int>(v.type()));
  if (v.is_null()) return key + ":null";
  switch (PhysicalTypeOf(v.type())) {
    case PhysicalType::kInt64:
      return key + ":i" + std::to_string(v.int64());
    case PhysicalType::kDouble:
      return key + ":d" + std::to_string(std::bit_cast<uint64_t>(v.dbl()));
    case PhysicalType::kString:
      return key + ":s" + std::to_string(v.str().size()) + ":" + v.str();
  }
  return key;
}

}  // namespace

// --- Compiler -------------------------------------------------------------

class ExprCompiler {
 public:
  ExprCompiler() : program_(new ExprProgram()) {}

  Result<std::shared_ptr<const ExprProgram>> Compile(
      const std::vector<ExprPtr>& exprs) {
    for (const ExprPtr& e : exprs) {
      ExprPtr simplified = Simplify(e, &program_->stats_);
      program_->stats_.tree_nodes += CountNodes(*simplified);
      VSTORE_ASSIGN_OR_RETURN(uint16_t reg, CompileNode(*simplified));
      program_->outputs_.push_back(reg);
    }
    return std::shared_ptr<const ExprProgram>(program_.release());
  }

 private:
  Result<uint16_t> NewReg(ExprRegister reg) {
    if (program_->regs_.size() >= 65535) {
      return Status::InvalidArgument("expression too large for bytecode");
    }
    program_->regs_.push_back(std::move(reg));
    return static_cast<uint16_t>(program_->regs_.size() - 1);
  }

  Result<uint16_t> ColumnReg(int index, DataType type) {
    auto it = column_regs_.find(index);
    if (it != column_regs_.end()) return it->second;
    ExprRegister reg;
    reg.source = ExprRegister::Source::kColumn;
    reg.type = type;
    reg.column = index;
    VSTORE_ASSIGN_OR_RETURN(uint16_t r, NewReg(std::move(reg)));
    column_regs_.emplace(index, r);
    return r;
  }

  Result<uint16_t> ConstReg(const Value& v) {
    std::string key = ValueKey(v);
    auto it = const_regs_.find(key);
    if (it != const_regs_.end()) return it->second;
    ExprRegister reg;
    reg.source = ExprRegister::Source::kConst;
    reg.type = v.type();
    reg.constant = v;
    VSTORE_ASSIGN_OR_RETURN(uint16_t r, NewReg(std::move(reg)));
    const_regs_.emplace(std::move(key), r);
    return r;
  }

  // Emits `instr` (dst unset) unless an identical instruction already
  // produced a register — value numbering over the flattened DAG.
  Result<uint16_t> Emit(ExprInstr instr, DataType dst_type) {
    std::string key = std::to_string(static_cast<int>(instr.op)) + "|" +
                      std::to_string(instr.aux) + "|" +
                      std::to_string(instr.a) + "|" +
                      std::to_string(instr.b) + "|" +
                      std::to_string(instr.pool);
    auto it = value_numbers_.find(key);
    if (it != value_numbers_.end()) {
      ++program_->stats_.cse_hits;
      return it->second;
    }
    ExprRegister reg;
    reg.source = ExprRegister::Source::kTemp;
    reg.type = dst_type;
    VSTORE_ASSIGN_OR_RETURN(uint16_t dst, NewReg(std::move(reg)));
    instr.dst = dst;
    program_->instrs_.push_back(instr);
    value_numbers_.emplace(std::move(key), dst);
    return dst;
  }

  Result<uint16_t> ToF64(uint16_t r) {
    if (PhysicalTypeOf(program_->regs_[r].type) == PhysicalType::kDouble) {
      return r;
    }
    ExprInstr instr;
    instr.op = ExprOpCode::kCastI64F64;
    instr.a = r;
    return Emit(instr, DataType::kDouble);
  }

  PhysicalType RegPhys(uint16_t r) const {
    return PhysicalTypeOf(program_->regs_[r].type);
  }

  int32_t PoolString(const std::string& s) {
    for (size_t i = 0; i < program_->string_pool_.size(); ++i) {
      if (program_->string_pool_[i] == s) return static_cast<int32_t>(i);
    }
    program_->string_pool_.push_back(s);
    return static_cast<int32_t>(program_->string_pool_.size() - 1);
  }

  Result<uint16_t> CompileNode(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kColumn: {
        const auto& c = static_cast<const ColumnRefExpr&>(e);
        return ColumnReg(c.index(), c.output_type());
      }
      case ExprKind::kLiteral:
        return ConstReg(static_cast<const LiteralExpr&>(e).value());
      case ExprKind::kCompare: {
        const auto& c = static_cast<const CompareExpr&>(e);
        VSTORE_ASSIGN_OR_RETURN(uint16_t l, CompileNode(*c.left()));
        VSTORE_ASSIGN_OR_RETURN(uint16_t r, CompileNode(*c.right()));
        ExprInstr instr;
        instr.aux = static_cast<uint8_t>(c.op());
        if (RegPhys(l) == PhysicalType::kString) {
          instr.op = ExprOpCode::kCmpStr;
        } else if (RegPhys(l) == PhysicalType::kDouble ||
                   RegPhys(r) == PhysicalType::kDouble) {
          VSTORE_ASSIGN_OR_RETURN(l, ToF64(l));
          VSTORE_ASSIGN_OR_RETURN(r, ToF64(r));
          instr.op = ExprOpCode::kCmpF64;
        } else {
          instr.op = ExprOpCode::kCmpI64;
        }
        instr.a = l;
        instr.b = r;
        return Emit(instr, DataType::kBool);
      }
      case ExprKind::kArith: {
        const auto& a = static_cast<const ArithExpr&>(e);
        VSTORE_ASSIGN_OR_RETURN(uint16_t l, CompileNode(*a.left()));
        VSTORE_ASSIGN_OR_RETURN(uint16_t r, CompileNode(*a.right()));
        ExprInstr instr;
        instr.aux = static_cast<uint8_t>(a.op());
        if (a.output_type() == DataType::kDouble) {
          VSTORE_ASSIGN_OR_RETURN(l, ToF64(l));
          VSTORE_ASSIGN_OR_RETURN(r, ToF64(r));
          instr.op = ExprOpCode::kArithF64;
        } else {
          instr.op = ExprOpCode::kArithI64;
        }
        instr.a = l;
        instr.b = r;
        return Emit(instr, a.output_type());
      }
      case ExprKind::kBool: {
        const auto& b = static_cast<const BoolExpr&>(e);
        VSTORE_ASSIGN_OR_RETURN(uint16_t l, CompileNode(*b.left()));
        VSTORE_ASSIGN_OR_RETURN(uint16_t r, CompileNode(*b.right()));
        ExprInstr instr;
        instr.op = ExprOpCode::kBoolAndOr;
        instr.aux = static_cast<uint8_t>(b.op());
        instr.a = l;
        instr.b = r;
        return Emit(instr, DataType::kBool);
      }
      case ExprKind::kNot: {
        VSTORE_ASSIGN_OR_RETURN(
            uint16_t in, CompileNode(*static_cast<const NotExpr&>(e).input()));
        ExprInstr instr;
        instr.op = ExprOpCode::kNot;
        instr.a = in;
        return Emit(instr, DataType::kBool);
      }
      case ExprKind::kIsNull: {
        VSTORE_ASSIGN_OR_RETURN(
            uint16_t in,
            CompileNode(*static_cast<const IsNullExpr&>(e).input()));
        ExprInstr instr;
        instr.op = ExprOpCode::kIsNull;
        instr.a = in;
        return Emit(instr, DataType::kBool);
      }
      case ExprKind::kYear: {
        VSTORE_ASSIGN_OR_RETURN(
            uint16_t in,
            CompileNode(*static_cast<const YearExpr&>(e).input()));
        ExprInstr instr;
        instr.op = ExprOpCode::kYear;
        instr.a = in;
        return Emit(instr, DataType::kInt64);
      }
      case ExprKind::kStartsWith: {
        const auto& sw = static_cast<const StartsWithExpr&>(e);
        VSTORE_ASSIGN_OR_RETURN(uint16_t in, CompileNode(*sw.input()));
        ExprInstr instr;
        instr.op = ExprOpCode::kStartsWith;
        instr.a = in;
        instr.pool = PoolString(sw.prefix());
        return Emit(instr, DataType::kBool);
      }
      case ExprKind::kIn: {
        const auto& ine = static_cast<const InExpr&>(e);
        VSTORE_ASSIGN_OR_RETURN(uint16_t in, CompileNode(*ine.input()));
        ExprProgram::InList list;
        PhysicalType phys = RegPhys(in);
        for (const Value& v : ine.values()) {
          if (v.is_null()) continue;  // interpreter skips null candidates
          PhysicalType vp = PhysicalTypeOf(v.type());
          switch (phys) {
            case PhysicalType::kInt64:
              if (vp != PhysicalType::kInt64) {
                return Status::InvalidArgument("IN list type mismatch");
              }
              list.i64.push_back(v.int64());
              break;
            case PhysicalType::kDouble:
              if (vp == PhysicalType::kString) {
                return Status::InvalidArgument("IN list type mismatch");
              }
              list.f64.push_back(v.AsDouble());
              break;
            case PhysicalType::kString:
              if (vp != PhysicalType::kString) {
                return Status::InvalidArgument("IN list type mismatch");
              }
              list.str.push_back(v.str());
              break;
          }
        }
        program_->in_pool_.push_back(std::move(list));
        ExprInstr instr;
        instr.op = ExprOpCode::kIn;
        instr.a = in;
        instr.pool = static_cast<int32_t>(program_->in_pool_.size() - 1);
        return Emit(instr, DataType::kBool);
      }
    }
    return Status::Unimplemented("unknown expression kind");
  }

  std::unique_ptr<ExprProgram> program_;
  std::unordered_map<int, uint16_t> column_regs_;
  std::unordered_map<std::string, uint16_t> const_regs_;
  std::unordered_map<std::string, uint16_t> value_numbers_;
};

Result<std::shared_ptr<const ExprProgram>> ExprProgram::Compile(
    const std::vector<ExprPtr>& exprs) {
  ExprCompiler compiler;
  return compiler.Compile(exprs);
}

namespace {

void FingerprintNode(const Expr& e, std::string* out) {
  switch (e.kind()) {
    case ExprKind::kColumn: {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      out->append("c#" + std::to_string(c.index()) + ":" +
                  std::to_string(static_cast<int>(c.output_type())));
      return;
    }
    case ExprKind::kLiteral:
      out->append("l[" + ValueKey(static_cast<const LiteralExpr&>(e).value()) +
                  "]");
      return;
    case ExprKind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(e);
      out->append("cmp" + std::to_string(static_cast<int>(c.op())) + "(");
      FingerprintNode(*c.left(), out);
      out->append(",");
      FingerprintNode(*c.right(), out);
      out->append(")");
      return;
    }
    case ExprKind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(e);
      out->append("ar" + std::to_string(static_cast<int>(a.op())) + "(");
      FingerprintNode(*a.left(), out);
      out->append(",");
      FingerprintNode(*a.right(), out);
      out->append(")");
      return;
    }
    case ExprKind::kBool: {
      const auto& b = static_cast<const BoolExpr&>(e);
      out->append(b.op() == BoolOp::kAnd ? "and(" : "or(");
      FingerprintNode(*b.left(), out);
      out->append(",");
      FingerprintNode(*b.right(), out);
      out->append(")");
      return;
    }
    case ExprKind::kNot:
      out->append("not(");
      FingerprintNode(*static_cast<const NotExpr&>(e).input(), out);
      out->append(")");
      return;
    case ExprKind::kIsNull:
      out->append("isnull(");
      FingerprintNode(*static_cast<const IsNullExpr&>(e).input(), out);
      out->append(")");
      return;
    case ExprKind::kYear:
      out->append("year(");
      FingerprintNode(*static_cast<const YearExpr&>(e).input(), out);
      out->append(")");
      return;
    case ExprKind::kStartsWith: {
      const auto& sw = static_cast<const StartsWithExpr&>(e);
      out->append("sw" + std::to_string(sw.prefix().size()) + ":" +
                  sw.prefix() + "(");
      FingerprintNode(*sw.input(), out);
      out->append(")");
      return;
    }
    case ExprKind::kIn: {
      const auto& ine = static_cast<const InExpr&>(e);
      out->append("in(");
      FingerprintNode(*ine.input(), out);
      for (const Value& v : ine.values()) {
        out->append(";" + ValueKey(v));
      }
      out->append(")");
      return;
    }
  }
}

}  // namespace

std::string ExprProgram::Fingerprint(const std::vector<ExprPtr>& exprs) {
  std::string out;
  for (const ExprPtr& e : exprs) {
    FingerprintNode(*e, &out);
    out.append("|");
  }
  return out;
}

std::string ExprProgram::ToString() const {
  auto reg_name = [this](uint16_t r) {
    const ExprRegister& reg = regs_[r];
    switch (reg.source) {
      case ExprRegister::Source::kColumn:
        return "r" + std::to_string(r) + "=col#" + std::to_string(reg.column);
      case ExprRegister::Source::kConst:
        return "r" + std::to_string(r) + "=const(" +
               (reg.constant.is_null() ? "NULL" : reg.constant.ToString()) +
               ")";
      case ExprRegister::Source::kTemp:
        return "r" + std::to_string(r);
    }
    return std::string("r?");
  };
  static const char* kOpNames[] = {
      "cmp_i64", "cmp_f64",     "cmp_str", "arith_i64", "arith_f64",
      "bool",    "not",         "is_null", "year",      "starts_with",
      "cast_f64", "in"};
  std::string out;
  for (const ExprInstr& instr : instrs_) {
    out += "r" + std::to_string(instr.dst) + " <- " +
           kOpNames[static_cast<int>(instr.op)];
    switch (instr.op) {
      case ExprOpCode::kCmpI64:
      case ExprOpCode::kCmpF64:
      case ExprOpCode::kCmpStr:
        out += std::string("(") +
               CompareOpName(static_cast<CompareOp>(instr.aux)) + ")";
        break;
      case ExprOpCode::kArithI64:
      case ExprOpCode::kArithF64: {
        static const char* kArith[] = {"+", "-", "*", "/"};
        out += std::string("(") + kArith[instr.aux] + ")";
        break;
      }
      case ExprOpCode::kBoolAndOr:
        out += static_cast<BoolOp>(instr.aux) == BoolOp::kAnd ? "(and)"
                                                              : "(or)";
        break;
      case ExprOpCode::kStartsWith:
        out += "('" + string_pool_[static_cast<size_t>(instr.pool)] + "')";
        break;
      default:
        break;
    }
    out += " " + reg_name(instr.a);
    switch (instr.op) {
      case ExprOpCode::kCmpI64:
      case ExprOpCode::kCmpF64:
      case ExprOpCode::kCmpStr:
      case ExprOpCode::kArithI64:
      case ExprOpCode::kArithF64:
      case ExprOpCode::kBoolAndOr:
        out += ", " + reg_name(instr.b);
        break;
      default:
        break;
    }
    out += "\n";
  }
  for (size_t k = 0; k < outputs_.size(); ++k) {
    out += "out[" + std::to_string(k) + "] = " + reg_name(outputs_[k]) + "\n";
  }
  return out;
}

// --- ExprFrame ------------------------------------------------------------

ExprFrame::ExprFrame(std::shared_ptr<const ExprProgram> program)
    : program_(std::move(program)) {
  own_.resize(program_->regs().size());
  slots_.resize(program_->regs().size(), nullptr);
  code_sets_.resize(program_->instrs().size());
}

void ExprFrame::SetMemoryTracker(MemoryTracker* tracker) {
  reservation_.Reset(tracker);
  code_set_reservation_.Reset(tracker);
}

void ExprFrame::EnsureCapacity(int64_t n) {
  if (n <= capacity_) return;
  const std::vector<ExprRegister>& regs = program_->regs();
  int64_t scratch_bytes = 0;
  for (size_t i = 0; i < regs.size(); ++i) {
    if (regs[i].source == ExprRegister::Source::kColumn) continue;
    own_[i] = std::make_unique<ColumnVector>(regs[i].type, n);
    scratch_bytes += own_[i]->MemoryBytes();
  }
  reservation_.Set(scratch_bytes);
  capacity_ = n;
  consts_filled_ = 0;
}

const ExprFrame::CodeSet& ExprFrame::CodeSetFor(
    size_t pc, const StringDictionary* dictionary) {
  CodeSet& set = code_sets_[pc];
  const int64_t size = dictionary->size();
  if (set.dictionary == dictionary && set.dictionary_size == size) return set;
  const ExprProgram::InList& list =
      program_->pool_in_list(program_->instrs()[pc].pool);
  const int64_t old_bytes = static_cast<int64_t>(set.hit.capacity());
  set.hit.clear();
  for (const std::string& v : list.str) {
    const int64_t code = dictionary->Find(v);
    if (code < 0) continue;
    if (code >= static_cast<int64_t>(set.hit.size())) {
      set.hit.resize(static_cast<size_t>(code) + 1, 0);
    }
    set.hit[static_cast<size_t>(code)] = 1;
  }
  set.dictionary = dictionary;
  set.dictionary_size = size;
  code_set_reservation_.Add(static_cast<int64_t>(set.hit.capacity()) -
                            old_bytes);
  return set;
}

void ExprFrame::FillConsts(int64_t n) {
  if (n <= consts_filled_) return;
  const std::vector<ExprRegister>& regs = program_->regs();
  for (size_t i = 0; i < regs.size(); ++i) {
    if (regs[i].source != ExprRegister::Source::kConst) continue;
    ColumnVector* cv = own_[i].get();
    const Value& v = regs[i].constant;
    if (v.is_null()) {
      std::fill(cv->mutable_validity(), cv->mutable_validity() + n,
                uint8_t{0});
      continue;
    }
    cv->SetAllValid(n);
    switch (PhysicalTypeOf(v.type())) {
      case PhysicalType::kInt64:
        std::fill(cv->mutable_ints(), cv->mutable_ints() + n, v.int64());
        break;
      case PhysicalType::kDouble:
        std::fill(cv->mutable_doubles(), cv->mutable_doubles() + n, v.dbl());
        break;
      case PhysicalType::kString:
        // Views into the Value stored in the program's register table —
        // stable for the program's (and thus the frame's) lifetime.
        std::fill(cv->mutable_strings(), cv->mutable_strings() + n,
                  std::string_view(v.str()));
        break;
    }
  }
  consts_filled_ = n;
}

Status ExprFrame::Run(const Batch& in) {
  const int64_t n = in.num_rows();
  EnsureCapacity(std::max<int64_t>(n, 1));
  FillConsts(n);
  const std::vector<ExprRegister>& regs = program_->regs();
  for (size_t i = 0; i < regs.size(); ++i) {
    slots_[i] = regs[i].source == ExprRegister::Source::kColumn
                    ? &in.column(regs[i].column)
                    : own_[i].get();
  }

  for (size_t pc = 0; pc < program_->instrs().size(); ++pc) {
    const ExprInstr& instr = program_->instrs()[pc];
    const ColumnVector& a = *slots_[instr.a];
    ColumnVector* dst = own_[instr.dst].get();
    uint8_t* vd = dst->mutable_validity();
    switch (instr.op) {
      case ExprOpCode::kCmpI64: {
        const ColumnVector& b = *slots_[instr.b];
        kernels::ByteAnd(a.validity(), b.validity(), n, vd);
        kernels::CmpI64(static_cast<CompareOp>(instr.aux), a.ints(), b.ints(),
                        n, dst->mutable_ints());
        break;
      }
      case ExprOpCode::kCmpF64: {
        const ColumnVector& b = *slots_[instr.b];
        kernels::ByteAnd(a.validity(), b.validity(), n, vd);
        kernels::CmpF64(static_cast<CompareOp>(instr.aux), a.doubles(),
                        b.doubles(), n, dst->mutable_ints());
        break;
      }
      case ExprOpCode::kCmpStr: {
        const ColumnVector& b = *slots_[instr.b];
        kernels::ByteAnd(a.validity(), b.validity(), n, vd);
        kernels::CmpStr(static_cast<CompareOp>(instr.aux), a.strings(),
                        b.strings(), n, dst->mutable_ints());
        break;
      }
      case ExprOpCode::kArithI64: {
        const ColumnVector& b = *slots_[instr.b];
        kernels::ByteAnd(a.validity(), b.validity(), n, vd);
        kernels::ArithI64(static_cast<ArithOp>(instr.aux), a.ints(), b.ints(),
                          n, dst->mutable_ints(), vd);
        break;
      }
      case ExprOpCode::kArithF64: {
        const ColumnVector& b = *slots_[instr.b];
        kernels::ByteAnd(a.validity(), b.validity(), n, vd);
        kernels::ArithF64(static_cast<ArithOp>(instr.aux), a.doubles(),
                          b.doubles(), n, dst->mutable_doubles(), vd);
        break;
      }
      case ExprOpCode::kBoolAndOr: {
        const ColumnVector& b = *slots_[instr.b];
        kernels::ByteAnd(a.validity(), b.validity(), n, vd);
        kernels::BoolAndOr(static_cast<BoolOp>(instr.aux), a.ints(), b.ints(),
                           n, dst->mutable_ints());
        break;
      }
      case ExprOpCode::kNot:
        std::memcpy(vd, a.validity(), static_cast<size_t>(n));
        kernels::BoolNot(a.ints(), n, dst->mutable_ints());
        break;
      case ExprOpCode::kIsNull: {
        dst->SetAllValid(n);
        int64_t* res = dst->mutable_ints();
        const uint8_t* va = a.validity();
        for (int64_t i = 0; i < n; ++i) res[i] = va[i] == 0;
        break;
      }
      case ExprOpCode::kYear:
        std::memcpy(vd, a.validity(), static_cast<size_t>(n));
        kernels::YearFromDaysKernel(a.ints(), n, dst->mutable_ints());
        break;
      case ExprOpCode::kCastI64F64:
        std::memcpy(vd, a.validity(), static_cast<size_t>(n));
        kernels::CastI64ToF64(a.ints(), n, dst->mutable_doubles());
        break;
      case ExprOpCode::kStartsWith: {
        std::memcpy(vd, a.validity(), static_cast<size_t>(n));
        const std::string_view prefix(program_->pool_string(instr.pool));
        const std::string_view* s = a.strings();
        int64_t* res = dst->mutable_ints();
        for (int64_t i = 0; i < n; ++i) {
          res[i] = s[i].substr(0, prefix.size()) == prefix;
        }
        break;
      }
      case ExprOpCode::kIn: {
        std::memcpy(vd, a.validity(), static_cast<size_t>(n));
        const ExprProgram::InList& list = program_->pool_in_list(instr.pool);
        int64_t* res = dst->mutable_ints();
        switch (a.physical_type()) {
          case PhysicalType::kInt64: {
            const int64_t* s = a.ints();
            for (int64_t i = 0; i < n; ++i) {
              bool hit = false;
              for (int64_t v : list.i64) {
                if (s[i] == v) { hit = true; break; }
              }
              res[i] = hit;
            }
            break;
          }
          case PhysicalType::kDouble: {
            const double* s = a.doubles();
            for (int64_t i = 0; i < n; ++i) {
              bool hit = false;
              for (double v : list.f64) {
                if (s[i] == v) { hit = true; break; }
              }
              res[i] = hit;
            }
            break;
          }
          case PhysicalType::kString: {
            if (a.dictionary() != nullptr) {
              // Decided on dictionary codes: no string compares.
              const CodeSet& set = CodeSetFor(pc, a.dictionary());
              const uint8_t* hit = set.hit.data();
              const uint64_t limit = set.hit.size();
              const uint64_t* codes = a.codes();
              for (int64_t i = 0; i < n; ++i) {
                res[i] = codes[i] < limit ? hit[codes[i]] : 0;
              }
              rows_code_filtered_ += n;
              break;
            }
            const std::string_view* s = a.strings();
            for (int64_t i = 0; i < n; ++i) {
              bool hit = false;
              for (const std::string& v : list.str) {
                if (s[i] == v) { hit = true; break; }
              }
              res[i] = hit;
            }
            break;
          }
        }
        break;
      }
    }
  }
  return Status::OK();
}

// --- ExprProgramCache -----------------------------------------------------

struct ExprProgramCache::Impl {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const ExprProgram>> map;
  Counter* compiled = MetricsRegistry::Global().GetCounter(
      "vstore_expr_programs_compiled_total");
  Counter* hits = MetricsRegistry::Global().GetCounter(
      "vstore_expr_program_cache_hits_total");
};

ExprProgramCache::Impl* ExprProgramCache::impl() const {
  static Impl instance;
  return &instance;
}

ExprProgramCache& ExprProgramCache::Global() {
  static ExprProgramCache cache;
  return cache;
}

std::shared_ptr<const ExprProgram> ExprProgramCache::GetOrCompile(
    const std::vector<ExprPtr>& exprs) {
  Impl* im = impl();
  std::string key = ExprProgram::Fingerprint(exprs);
  {
    std::lock_guard<std::mutex> lock(im->mu);
    auto it = im->map.find(key);
    if (it != im->map.end()) {
      im->hits->Increment();
      return it->second;
    }
  }
  auto compiled = ExprProgram::Compile(exprs);
  std::shared_ptr<const ExprProgram> program =
      compiled.ok() ? *compiled : nullptr;
  std::lock_guard<std::mutex> lock(im->mu);
  auto [it, inserted] = im->map.emplace(std::move(key), program);
  if (inserted && program != nullptr) im->compiled->Increment();
  return it->second;
}

int64_t ExprProgramCache::size() const {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return static_cast<int64_t>(im->map.size());
}

}  // namespace vstore
