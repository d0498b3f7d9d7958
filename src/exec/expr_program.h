#ifndef VSTORE_EXEC_EXPR_PROGRAM_H_
#define VSTORE_EXEC_EXPR_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "exec/batch.h"
#include "exec/expression.h"

namespace vstore {

// Plan-time bytecode compilation of expression trees (ROADMAP "bytecode
// compiler" item). An ExprProgram is a flat register-based program produced
// once at operator build time — constant folding, null-safe algebraic
// simplification and common-subexpression elimination happen here — and
// executed per batch by an ExprFrame's tight dispatch loop over the SIMD
// kernels in expr_kernels.h. The tree interpreter (Expr::EvalBatch) remains
// the fallback and the differential oracle: for every batch the program's
// validity bytes are identical to the interpreter's, and value lanes agree
// bit-for-bit wherever valid.
//
// Programs are immutable and shared (a global cache deduplicates by
// structural fingerprint, so repeated plans — e.g. Query Store replays of
// the same fingerprint — compile once); per-operator mutable state lives in
// the ExprFrame, which is what makes sharing safe across parallel exchange
// fragments.

enum class ExprOpCode : uint8_t {
  kCmpI64,     // aux = CompareOp
  kCmpF64,     // aux = CompareOp
  kCmpStr,     // aux = CompareOp
  kArithI64,   // aux = ArithOp (div clears validity on zero divisors)
  kArithF64,   // aux = ArithOp
  kBoolAndOr,  // aux = BoolOp
  kNot,
  kIsNull,
  kYear,
  kStartsWith,  // pool = index into string pool (prefix)
  kCastI64F64,  // int64 -> double promotion
  kIn,          // pool = index into IN-list pool
};

struct ExprInstr {
  ExprOpCode op;
  uint8_t aux = 0;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;    // unused for unary ops
  int32_t pool = -1;
};

// A virtual register. Column registers alias the input batch (zero copy);
// const registers are literal splats filled once per frame; temps are
// scratch vectors owned by the frame.
struct ExprRegister {
  enum class Source : uint8_t { kColumn, kConst, kTemp };
  Source source;
  DataType type;
  int column = -1;  // source == kColumn: input batch column index
  Value constant;   // source == kConst
};

class ExprProgram {
 public:
  struct CompileStats {
    int tree_nodes = 0;    // nodes in the (already simplified) input trees
    int folded = 0;        // column-free subtrees folded to constants
    int simplified = 0;    // algebraic rewrites applied
    int cse_hits = 0;      // instructions elided by value numbering
  };

  // Typed IN-list payloads (null list entries are dropped at compile time,
  // matching the interpreter, which skips them per row).
  struct InList {
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string> str;
  };

  // Compiles `exprs` into one shared program with cross-expression CSE.
  // Returns InvalidArgument for shapes the VM does not support (callers
  // fall back to the interpreter).
  static Result<std::shared_ptr<const ExprProgram>> Compile(
      const std::vector<ExprPtr>& exprs);

  const std::vector<ExprInstr>& instrs() const { return instrs_; }
  const std::vector<ExprRegister>& regs() const { return regs_; }
  // Result register of the k-th compiled expression.
  uint16_t output_reg(size_t k) const { return outputs_[k]; }
  size_t num_outputs() const { return outputs_.size(); }
  const CompileStats& stats() const { return stats_; }

  const std::string& pool_string(int32_t i) const {
    return string_pool_[static_cast<size_t>(i)];
  }
  const InList& pool_in_list(int32_t i) const {
    return in_pool_[static_cast<size_t>(i)];
  }

  // Disassembly, e.g. "r4 <- cmp_i64(lt) r0, r2" — used by tests and
  // debugging.
  std::string ToString() const;

  // Structural fingerprint of an expression (kind, ops, column indices,
  // literal values) — the program cache key.
  static std::string Fingerprint(const std::vector<ExprPtr>& exprs);

 private:
  friend class ExprCompiler;
  ExprProgram() = default;

  std::vector<ExprInstr> instrs_;
  std::vector<ExprRegister> regs_;
  std::vector<uint16_t> outputs_;
  std::vector<std::string> string_pool_;
  std::vector<InList> in_pool_;
  CompileStats stats_;
};

// Per-operator execution state for one program: owns the temp and const
// scratch vectors and runs the dispatch loop. Not thread-safe; each
// operator instance (and thus each parallel fragment) gets its own frame.
class ExprFrame {
 public:
  explicit ExprFrame(std::shared_ptr<const ExprProgram> program);

  // Charges the frame's temp/const scratch vectors and IN code sets
  // against `tracker` (query or fragment tracker; must outlive the frame).
  void SetMemoryTracker(MemoryTracker* tracker);

  // Evaluates every row of `in` (active or not, like Expr::EvalBatch).
  Status Run(const Batch& in);

  // Result vector of the k-th expression after Run(); may alias an input
  // column of the batch passed to Run(). Valid until the next Run().
  const ColumnVector& result(size_t k) const {
    return *slots_[program_->output_reg(k)];
  }

  // Rows whose IN verdict a code set decided, over the frame's lifetime.
  int64_t rows_code_filtered() const { return rows_code_filtered_; }

 private:
  // A string IN's list resolved in `dictionary`: hit[code] is 1 for a
  // listed value's code, and codes at or past hit.size() are not listed.
  // Valid while the dictionary holds `dictionary_size` entries: codes never
  // change, but a listed value missing now may be inserted later.
  struct CodeSet {
    const StringDictionary* dictionary = nullptr;
    int64_t dictionary_size = -1;
    std::vector<uint8_t> hit;
  };

  void EnsureCapacity(int64_t n);
  void FillConsts(int64_t n);
  // Instruction `pc`'s code set for `dictionary`, rebuilt with one
  // StringDictionary::Find per listed value when the cached one is stale.
  const CodeSet& CodeSetFor(size_t pc, const StringDictionary* dictionary);

  std::shared_ptr<const ExprProgram> program_;
  MemoryReservation reservation_;           // scratch vector bytes
  MemoryReservation code_set_reservation_;  // code set bytes
  int64_t capacity_ = 0;
  int64_t consts_filled_ = 0;
  std::vector<CodeSet> code_sets_;  // indexed by instruction
  int64_t rows_code_filtered_ = 0;
  // Indexed by register id; null where the register is a batch column.
  std::vector<std::unique_ptr<ColumnVector>> own_;
  // Resolved per Run(): register id -> vector to read (batch column, const
  // splat, or temp).
  std::vector<const ColumnVector*> slots_;
};

// Process-wide program cache keyed by structural fingerprint. Counters:
// vstore_expr_programs_compiled_total / vstore_expr_program_cache_hits_total.
class ExprProgramCache {
 public:
  static ExprProgramCache& Global();

  // Returns a cached or freshly compiled program, or null when compilation
  // is unsupported for these exprs (caller falls back to the interpreter).
  std::shared_ptr<const ExprProgram> GetOrCompile(
      const std::vector<ExprPtr>& exprs);

  int64_t size() const;

 private:
  ExprProgramCache() = default;
  struct Impl;
  Impl* impl() const;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_EXPR_PROGRAM_H_
