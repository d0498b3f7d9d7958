#ifndef VSTORE_COMMON_INT_ARITH_H_
#define VSTORE_COMMON_INT_ARITH_H_

#include <cstdint>

namespace vstore {

// Two's-complement wrapping int64 arithmetic. This is the engine-wide
// contract for integer expressions: the row engine, the bytecode VM and
// the SIMD kernels all wrap on overflow, so both engines produce
// bit-identical results (and neither trips UBSan). Division
// guards the one remaining trap: INT64_MIN / -1 wraps to INT64_MIN, and
// callers are responsible for null-ing out division by zero.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

// Caller must ensure b != 0 (the expression engines null out b == 0 lanes
// and pass a dummy divisor instead).
inline int64_t WrapDiv(int64_t a, int64_t b) {
  if (b == -1) return WrapSub(0, a);  // INT64_MIN / -1 wraps, others exact
  return a / b;
}

// Extracts the civil year from a days-since-epoch value (Howard Hinnant's
// civil_from_days). Wrapping ops keep absurd inputs (dates produced by
// arithmetic on date columns) defined and identical across engines.
inline int64_t YearFromDays(int64_t days) {
  int64_t z = WrapAdd(days, 719468);
  const int64_t era = (z >= 0 ? z : WrapSub(z, 146096)) / 146097;
  const uint64_t doe = static_cast<uint64_t>(WrapSub(z, WrapMul(era, 146097)));
  const uint64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = WrapAdd(static_cast<int64_t>(yoe), WrapMul(era, 400));
  const uint64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const uint64_t mp = (5 * doy + 2) / 153;
  const uint64_t m = mp + (mp < 10 ? 3 : static_cast<uint64_t>(-9));
  return WrapAdd(y, m <= 2 ? 1 : 0);
}

}  // namespace vstore

#endif  // VSTORE_COMMON_INT_ARITH_H_
