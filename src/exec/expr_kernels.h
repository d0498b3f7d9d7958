#ifndef VSTORE_EXEC_EXPR_KERNELS_H_
#define VSTORE_EXEC_EXPR_KERNELS_H_

#include <cstdint>
#include <string_view>

#include "common/simd.h"
#include "exec/expression.h"
#include "types/compare_op.h"

namespace vstore {
namespace kernels {

// Flat batch kernels behind the expression VM and the scan's predicate
// loops. Every kernel has a scalar and (where profitable) an AVX2 body
// compiled with a function-level target attribute; the public entry points
// dispatch on simd::Active() and bump the dispatch counters, so tests can
// force either path via simd::ForceLevelForTesting().
//
// Semantics contract (shared with the row engine's Expr::EvalRow):
//  - comparisons implement ApplyCompare over the three-way ordering, so for
//    doubles an unordered pair (NaN) compares as "equal";
//  - int64 arithmetic wraps (common/int_arith.h); division by zero yields
//    value 0 and clears the validity byte;
//  - all kernels process every lane, valid or not, with defined results.

// valid[i] &= (b[i] != 0) is folded into the div kernels; other kernels do
// not touch validity (callers AND child validities separately).
void ByteAnd(const uint8_t* a, const uint8_t* b, int64_t n, uint8_t* out);

void CmpI64(CompareOp op, const int64_t* a, const int64_t* b, int64_t n,
            int64_t* res);
void CmpF64(CompareOp op, const double* a, const double* b, int64_t n,
            int64_t* res);
void CmpStr(CompareOp op, const std::string_view* a, const std::string_view* b,
            int64_t n, int64_t* res);

void ArithI64(ArithOp op, const int64_t* a, const int64_t* b, int64_t n,
              int64_t* res, uint8_t* valid);
void ArithF64(ArithOp op, const double* a, const double* b, int64_t n,
              double* res, uint8_t* valid);

void BoolAndOr(BoolOp op, const int64_t* a, const int64_t* b, int64_t n,
               int64_t* res);
void BoolNot(const int64_t* a, int64_t n, int64_t* res);

void CastI64ToF64(const int64_t* a, int64_t n, double* res);
void YearFromDaysKernel(const int64_t* a, int64_t n, int64_t* res);

// Scan-facing forms: column versus one constant, producing a 0/1 byte
// verdict the scan ANDs into its qualifying-rows mask.
void CmpI64ConstMask(CompareOp op, const int64_t* a, int64_t b, int64_t n,
                     uint8_t* verdict);
void CmpF64ConstMask(CompareOp op, const double* a, double b, int64_t n,
                     uint8_t* verdict);

// Hash kernel for join/agg key hashing: folds one key column into the
// running row hashes, out[i] = HashCombine(out[i], valid[i] ?
// HashInt64(bits[i]) : null_tag). Doubles hash their raw bit pattern, so
// callers pass the column buffer reinterpreted as uint64.
void HashCombineColumn(const uint64_t* bits, const uint8_t* valid,
                       uint64_t null_tag, int64_t n, uint64_t* out);

// Fills out[0, n) with `seed` (hash loop initialisation).
void FillU64(uint64_t seed, int64_t n, uint64_t* out);

}  // namespace kernels
}  // namespace vstore

#endif  // VSTORE_EXEC_EXPR_KERNELS_H_
