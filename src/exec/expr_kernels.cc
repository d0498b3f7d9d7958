#include "exec/expr_kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/bit_util.h"
#include "common/hash.h"
#include "common/int_arith.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define VSTORE_KERNELS_X86 1
#endif

namespace vstore {
namespace kernels {

namespace {

// --- Scalar bodies --------------------------------------------------------
// The scalar forms are the semantic reference: each comparison spells out
// ApplyCompare(op, three_way(a, b)) so the double forms keep the engine's
// NaN behaviour (unordered compares as "equal").

void CmpI64Scalar(CompareOp op, const int64_t* a, const int64_t* b, int64_t n,
                  int64_t* res) {
  switch (op) {
    case CompareOp::kEq:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] == b[i];
      break;
    case CompareOp::kNe:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] != b[i];
      break;
    case CompareOp::kLt:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] < b[i];
      break;
    case CompareOp::kLe:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] <= b[i];
      break;
    case CompareOp::kGt:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] > b[i];
      break;
    case CompareOp::kGe:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] >= b[i];
      break;
  }
}

void CmpF64Scalar(CompareOp op, const double* a, const double* b, int64_t n,
                  int64_t* res) {
  switch (op) {
    case CompareOp::kEq:
      for (int64_t i = 0; i < n; ++i) res[i] = !(a[i] < b[i]) & !(a[i] > b[i]);
      break;
    case CompareOp::kNe:
      for (int64_t i = 0; i < n; ++i) res[i] = (a[i] < b[i]) | (a[i] > b[i]);
      break;
    case CompareOp::kLt:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] < b[i];
      break;
    case CompareOp::kLe:
      for (int64_t i = 0; i < n; ++i) res[i] = !(a[i] > b[i]);
      break;
    case CompareOp::kGt:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] > b[i];
      break;
    case CompareOp::kGe:
      for (int64_t i = 0; i < n; ++i) res[i] = !(a[i] < b[i]);
      break;
  }
}

void ArithI64Scalar(ArithOp op, const int64_t* a, const int64_t* b, int64_t n,
                    int64_t* res, uint8_t* valid) {
  switch (op) {
    case ArithOp::kAdd:
      for (int64_t i = 0; i < n; ++i) res[i] = WrapAdd(a[i], b[i]);
      break;
    case ArithOp::kSub:
      for (int64_t i = 0; i < n; ++i) res[i] = WrapSub(a[i], b[i]);
      break;
    case ArithOp::kMul:
      for (int64_t i = 0; i < n; ++i) res[i] = WrapMul(a[i], b[i]);
      break;
    case ArithOp::kDiv:
      for (int64_t i = 0; i < n; ++i) {
        valid[i] &= b[i] != 0 ? 1 : 0;
        res[i] = b[i] != 0 ? WrapDiv(a[i], b[i]) : 0;
      }
      break;
  }
}

void ArithF64Scalar(ArithOp op, const double* a, const double* b, int64_t n,
                    double* res, uint8_t* valid) {
  switch (op) {
    case ArithOp::kAdd:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] + b[i];
      break;
    case ArithOp::kSub:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] - b[i];
      break;
    case ArithOp::kMul:
      for (int64_t i = 0; i < n; ++i) res[i] = a[i] * b[i];
      break;
    case ArithOp::kDiv:
      for (int64_t i = 0; i < n; ++i) {
        valid[i] &= b[i] != 0.0 ? 1 : 0;
        res[i] = b[i] != 0.0 ? a[i] / b[i] : 0.0;
      }
      break;
  }
}

void BoolAndOrScalar(BoolOp op, const int64_t* a, const int64_t* b, int64_t n,
                     int64_t* res) {
  if (op == BoolOp::kAnd) {
    for (int64_t i = 0; i < n; ++i) res[i] = (a[i] != 0) & (b[i] != 0);
  } else {
    for (int64_t i = 0; i < n; ++i) res[i] = (a[i] != 0) | (b[i] != 0);
  }
}

void BoolNotScalar(const int64_t* a, int64_t n, int64_t* res) {
  for (int64_t i = 0; i < n; ++i) res[i] = a[i] == 0;
}

void CmpI64ConstMaskScalar(CompareOp op, const int64_t* a, int64_t b,
                           int64_t n, uint8_t* verdict) {
  switch (op) {
    case CompareOp::kEq:
      for (int64_t i = 0; i < n; ++i) verdict[i] = a[i] == b;
      break;
    case CompareOp::kNe:
      for (int64_t i = 0; i < n; ++i) verdict[i] = a[i] != b;
      break;
    case CompareOp::kLt:
      for (int64_t i = 0; i < n; ++i) verdict[i] = a[i] < b;
      break;
    case CompareOp::kLe:
      for (int64_t i = 0; i < n; ++i) verdict[i] = a[i] <= b;
      break;
    case CompareOp::kGt:
      for (int64_t i = 0; i < n; ++i) verdict[i] = a[i] > b;
      break;
    case CompareOp::kGe:
      for (int64_t i = 0; i < n; ++i) verdict[i] = a[i] >= b;
      break;
  }
}

void CmpF64ConstMaskScalar(CompareOp op, const double* a, double b, int64_t n,
                           uint8_t* verdict) {
  switch (op) {
    case CompareOp::kEq:
      for (int64_t i = 0; i < n; ++i) verdict[i] = !(a[i] < b) & !(a[i] > b);
      break;
    case CompareOp::kNe:
      for (int64_t i = 0; i < n; ++i) verdict[i] = (a[i] < b) | (a[i] > b);
      break;
    case CompareOp::kLt:
      for (int64_t i = 0; i < n; ++i) verdict[i] = a[i] < b;
      break;
    case CompareOp::kLe:
      for (int64_t i = 0; i < n; ++i) verdict[i] = !(a[i] > b);
      break;
    case CompareOp::kGt:
      for (int64_t i = 0; i < n; ++i) verdict[i] = a[i] > b;
      break;
    case CompareOp::kGe:
      for (int64_t i = 0; i < n; ++i) verdict[i] = !(a[i] < b);
      break;
  }
}

// lo <= code < hi is code - lo < hi - lo in unsigned arithmetic: a code
// below lo wraps above every width. An inverted range is empty.
uint64_t RangeWidth(uint64_t lo, uint64_t hi) { return hi > lo ? hi - lo : 0; }

void AndCodeRangeScalar(const uint64_t* codes, const uint8_t* valid,
                        uint64_t lo, uint64_t hi, bool negate, int64_t n,
                        uint8_t* active) {
  const uint64_t width = RangeWidth(lo, hi);
  const uint8_t flip = negate ? 1 : 0;
  for (int64_t i = 0; i < n; ++i) {
    active[i] &= valid[i] & (uint8_t{codes[i] - lo < width} ^ flip);
  }
}

void HashCombineColumnScalar(const uint64_t* bits, const uint8_t* valid,
                             uint64_t null_tag, int64_t n, uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    uint64_t h = valid[i] ? HashInt64(bits[i]) : null_tag;
    out[i] = HashCombine(out[i], h);
  }
}

#ifdef VSTORE_KERNELS_X86

// --- AVX2 bodies ----------------------------------------------------------
// Each body processes 4 lanes per iteration and finishes the tail with the
// scalar formulas, so results are bit-identical to the scalar kernels.

__attribute__((target("avx2"))) inline __m256i Mul64(__m256i a, __m256i b) {
  // 64x64->64 multiply from 32-bit pieces (AVX2 has no vpmullq):
  // lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32).
  __m256i bswap = _mm256_shuffle_epi32(b, 0xB1);
  __m256i prodlh = _mm256_mullo_epi32(a, bswap);
  __m256i zero = _mm256_setzero_si256();
  __m256i prodlh2 = _mm256_hadd_epi32(prodlh, zero);
  __m256i prodlh3 = _mm256_shuffle_epi32(prodlh2, 0x73);
  __m256i prodll = _mm256_mul_epu32(a, b);
  return _mm256_add_epi64(prodll, prodlh3);
}

__attribute__((target("avx2"))) inline __m256i CmpMaskI64(CompareOp op,
                                                          __m256i va,
                                                          __m256i vb) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  switch (op) {
    case CompareOp::kEq:
      return _mm256_cmpeq_epi64(va, vb);
    case CompareOp::kNe:
      return _mm256_xor_si256(_mm256_cmpeq_epi64(va, vb), ones);
    case CompareOp::kLt:
      return _mm256_cmpgt_epi64(vb, va);
    case CompareOp::kLe:
      return _mm256_xor_si256(_mm256_cmpgt_epi64(va, vb), ones);
    case CompareOp::kGt:
      return _mm256_cmpgt_epi64(va, vb);
    case CompareOp::kGe:
      return _mm256_xor_si256(_mm256_cmpgt_epi64(vb, va), ones);
  }
  return _mm256_setzero_si256();
}

__attribute__((target("avx2"))) inline __m256d CmpMaskF64(CompareOp op,
                                                          __m256d va,
                                                          __m256d vb) {
  // Mirrors ApplyCompare over the three-way ordering: unordered (NaN) pairs
  // have three-way 0, so kEq/kLe/kGe are true and kNe/kLt/kGt false.
  switch (op) {
    case CompareOp::kEq:
      return _mm256_cmp_pd(va, vb, _CMP_EQ_UQ);
    case CompareOp::kNe:
      return _mm256_cmp_pd(va, vb, _CMP_NEQ_OQ);
    case CompareOp::kLt:
      return _mm256_cmp_pd(va, vb, _CMP_LT_OQ);
    case CompareOp::kLe:
      return _mm256_cmp_pd(va, vb, _CMP_NGT_UQ);
    case CompareOp::kGt:
      return _mm256_cmp_pd(va, vb, _CMP_GT_OQ);
    case CompareOp::kGe:
      return _mm256_cmp_pd(va, vb, _CMP_NLT_UQ);
  }
  return _mm256_setzero_pd();
}

__attribute__((target("avx2"))) void CmpI64Avx2(CompareOp op, const int64_t* a,
                                                const int64_t* b, int64_t n,
                                                int64_t* res) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i m = CmpMaskI64(op, va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(res + i),
                        _mm256_srli_epi64(m, 63));
  }
  if (i < n) CmpI64Scalar(op, a + i, b + i, n - i, res + i);
}

__attribute__((target("avx2"))) void CmpF64Avx2(CompareOp op, const double* a,
                                                const double* b, int64_t n,
                                                int64_t* res) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d va = _mm256_loadu_pd(a + i);
    __m256d vb = _mm256_loadu_pd(b + i);
    __m256i m = _mm256_castpd_si256(CmpMaskF64(op, va, vb));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(res + i),
                        _mm256_srli_epi64(m, 63));
  }
  if (i < n) CmpF64Scalar(op, a + i, b + i, n - i, res + i);
}

__attribute__((target("avx2"))) void ArithI64Avx2(ArithOp op, const int64_t* a,
                                                  const int64_t* b, int64_t n,
                                                  int64_t* res,
                                                  uint8_t* valid) {
  if (op == ArithOp::kDiv) {  // division stays scalar (per-lane guards)
    ArithI64Scalar(op, a, b, n, res, valid);
    return;
  }
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i r = op == ArithOp::kAdd   ? _mm256_add_epi64(va, vb)
                : op == ArithOp::kSub ? _mm256_sub_epi64(va, vb)
                                      : Mul64(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(res + i), r);
  }
  if (i < n) ArithI64Scalar(op, a + i, b + i, n - i, res + i, valid + i);
}

__attribute__((target("avx2"))) void ArithF64Avx2(ArithOp op, const double* a,
                                                  const double* b, int64_t n,
                                                  double* res,
                                                  uint8_t* valid) {
  int64_t i = 0;
  if (op == ArithOp::kDiv) {
    const __m256d zero = _mm256_setzero_pd();
    for (; i + 4 <= n; i += 4) {
      __m256d va = _mm256_loadu_pd(a + i);
      __m256d vb = _mm256_loadu_pd(b + i);
      __m256d nz = _mm256_cmp_pd(vb, zero, _CMP_NEQ_UQ);
      _mm256_storeu_pd(res + i, _mm256_and_pd(_mm256_div_pd(va, vb), nz));
      int m = _mm256_movemask_pd(nz);
      valid[i + 0] &= static_cast<uint8_t>(m & 1);
      valid[i + 1] &= static_cast<uint8_t>((m >> 1) & 1);
      valid[i + 2] &= static_cast<uint8_t>((m >> 2) & 1);
      valid[i + 3] &= static_cast<uint8_t>((m >> 3) & 1);
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      __m256d va = _mm256_loadu_pd(a + i);
      __m256d vb = _mm256_loadu_pd(b + i);
      __m256d r = op == ArithOp::kAdd   ? _mm256_add_pd(va, vb)
                  : op == ArithOp::kSub ? _mm256_sub_pd(va, vb)
                                        : _mm256_mul_pd(va, vb);
      _mm256_storeu_pd(res + i, r);
    }
  }
  if (i < n) ArithF64Scalar(op, a + i, b + i, n - i, res + i, valid + i);
}

__attribute__((target("avx2"))) void BoolAndOrAvx2(BoolOp op, const int64_t* a,
                                                   const int64_t* b, int64_t n,
                                                   int64_t* res) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi64x(-1);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i za = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), zero);
    __m256i zb = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), zero);
    __m256i m = op == BoolOp::kAnd
                    ? _mm256_andnot_si256(za, _mm256_andnot_si256(zb, ones))
                    : _mm256_xor_si256(_mm256_and_si256(za, zb), ones);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(res + i),
                        _mm256_srli_epi64(m, 63));
  }
  if (i < n) BoolAndOrScalar(op, a + i, b + i, n - i, res + i);
}

__attribute__((target("avx2"))) void BoolNotAvx2(const int64_t* a, int64_t n,
                                                 int64_t* res) {
  const __m256i zero = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i m = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), zero);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(res + i),
                        _mm256_srli_epi64(m, 63));
  }
  if (i < n) BoolNotScalar(a + i, n - i, res + i);
}

__attribute__((target("avx2"))) void CmpI64ConstMaskAvx2(CompareOp op,
                                                         const int64_t* a,
                                                         int64_t b, int64_t n,
                                                         uint8_t* verdict) {
  const __m256i vb = _mm256_set1_epi64x(b);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4));
    unsigned m =
        static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(CmpMaskI64(op, lo, vb)))) |
        (static_cast<unsigned>(_mm256_movemask_pd(
             _mm256_castsi256_pd(CmpMaskI64(op, hi, vb))))
         << 4);
    bit_util::BitsToBytes(m, verdict + i);
  }
  if (i < n) CmpI64ConstMaskScalar(op, a + i, b, n - i, verdict + i);
}

__attribute__((target("avx2"))) void CmpF64ConstMaskAvx2(CompareOp op,
                                                         const double* a,
                                                         double b, int64_t n,
                                                         uint8_t* verdict) {
  const __m256d vb = _mm256_set1_pd(b);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    unsigned m =
        static_cast<unsigned>(
            _mm256_movemask_pd(CmpMaskF64(op, _mm256_loadu_pd(a + i), vb))) |
        (static_cast<unsigned>(_mm256_movemask_pd(
             CmpMaskF64(op, _mm256_loadu_pd(a + i + 4), vb)))
         << 4);
    bit_util::BitsToBytes(m, verdict + i);
  }
  if (i < n) CmpF64ConstMaskScalar(op, a + i, b, n - i, verdict + i);
}

// Bit k set when lane k of codes[0, 4) passes: AVX2 compares 64-bit lanes
// signed only, so flipping the sign bit of both sides (sign, and the
// flipped width) turns the unsigned test code - lo < width into a signed
// one.
__attribute__((target("avx2"))) inline unsigned InRange4(
    const uint64_t* codes, __m256i lo, __m256i flipped_width, __m256i sign) {
  __m256i x = _mm256_xor_si256(
      _mm256_sub_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes)), lo),
      sign);
  return static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(flipped_width, x))));
}

__attribute__((target("avx2"))) void AndCodeRangeAvx2(
    const uint64_t* codes, const uint8_t* valid, uint64_t lo, uint64_t hi,
    bool negate, int64_t n, uint8_t* active) {
  const __m256i sign =
      _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  const __m256i vlo = _mm256_set1_epi64x(static_cast<int64_t>(lo));
  const __m256i vwidth = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<int64_t>(RangeWidth(lo, hi))), sign);
  const unsigned flip = negate ? 0xffu : 0u;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const unsigned m = InRange4(codes + i, vlo, vwidth, sign) |
                       InRange4(codes + i + 4, vlo, vwidth, sign) << 4;
    uint8_t verdict[8];
    bit_util::BitsToBytes(m ^ flip, verdict);
    uint64_t act, val, ver;
    std::memcpy(&act, active + i, sizeof(act));
    std::memcpy(&val, valid + i, sizeof(val));
    std::memcpy(&ver, verdict, sizeof(ver));
    act &= val & ver;
    std::memcpy(active + i, &act, sizeof(act));
  }
  if (i < n) {
    AndCodeRangeScalar(codes + i, valid + i, lo, hi, negate, n - i,
                       active + i);
  }
}

__attribute__((target("avx2"))) void HashCombineColumnAvx2(
    const uint64_t* bits, const uint8_t* valid, uint64_t null_tag, int64_t n,
    uint64_t* out) {
  const __m256i c1 = _mm256_set1_epi64x(
      static_cast<int64_t>(0xff51afd7ed558ccdULL));
  const __m256i c2 = _mm256_set1_epi64x(
      static_cast<int64_t>(0xc4ceb9fe1a85ec53ULL));
  const __m256i tag = _mm256_set1_epi64x(static_cast<int64_t>(null_tag));
  const __m256i golden = _mm256_set1_epi64x(
      static_cast<int64_t>(0x9e3779b97f4a7c15ULL));
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + i));
    // Murmur3 finalizer.
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    x = Mul64(x, c1);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    x = Mul64(x, c2);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    __m256i vm = _mm256_set_epi64x(valid[i + 3] ? -1 : 0, valid[i + 2] ? -1 : 0,
                                   valid[i + 1] ? -1 : 0,
                                   valid[i + 0] ? -1 : 0);
    x = _mm256_blendv_epi8(tag, x, vm);
    // HashCombine(h, x) = h ^ (x + golden + (h << 12) + (h >> 4)).
    __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
    __m256i t = _mm256_add_epi64(
        x, _mm256_add_epi64(golden, _mm256_add_epi64(_mm256_slli_epi64(h, 12),
                                                     _mm256_srli_epi64(h, 4))));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_xor_si256(h, t));
  }
  if (i < n) HashCombineColumnScalar(bits + i, valid + i, null_tag, n - i,
                                     out + i);
}

#endif  // VSTORE_KERNELS_X86

}  // namespace

// --- Dispatch entry points ------------------------------------------------

void ByteAnd(const uint8_t* a, const uint8_t* b, int64_t n, uint8_t* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] & b[i];
}

void CmpI64(CompareOp op, const int64_t* a, const int64_t* b, int64_t n,
            int64_t* res) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    CmpI64Avx2(op, a, b, n, res);
    return;
  }
#else
  simd::Dispatch();
#endif
  CmpI64Scalar(op, a, b, n, res);
}

void CmpF64(CompareOp op, const double* a, const double* b, int64_t n,
            int64_t* res) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    CmpF64Avx2(op, a, b, n, res);
    return;
  }
#else
  simd::Dispatch();
#endif
  CmpF64Scalar(op, a, b, n, res);
}

void CmpStr(CompareOp op, const std::string_view* a, const std::string_view* b,
            int64_t n, int64_t* res) {
  for (int64_t i = 0; i < n; ++i) {
    int c = a[i].compare(b[i]);
    res[i] = ApplyCompare(op, c < 0 ? -1 : (c > 0 ? 1 : 0));
  }
}

void ArithI64(ArithOp op, const int64_t* a, const int64_t* b, int64_t n,
              int64_t* res, uint8_t* valid) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    ArithI64Avx2(op, a, b, n, res, valid);
    return;
  }
#else
  simd::Dispatch();
#endif
  ArithI64Scalar(op, a, b, n, res, valid);
}

void ArithF64(ArithOp op, const double* a, const double* b, int64_t n,
              double* res, uint8_t* valid) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    ArithF64Avx2(op, a, b, n, res, valid);
    return;
  }
#else
  simd::Dispatch();
#endif
  ArithF64Scalar(op, a, b, n, res, valid);
}

void BoolAndOr(BoolOp op, const int64_t* a, const int64_t* b, int64_t n,
               int64_t* res) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    BoolAndOrAvx2(op, a, b, n, res);
    return;
  }
#else
  simd::Dispatch();
#endif
  BoolAndOrScalar(op, a, b, n, res);
}

void BoolNot(const int64_t* a, int64_t n, int64_t* res) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    BoolNotAvx2(a, n, res);
    return;
  }
#else
  simd::Dispatch();
#endif
  BoolNotScalar(a, n, res);
}

void CastI64ToF64(const int64_t* a, int64_t n, double* res) {
  for (int64_t i = 0; i < n; ++i) res[i] = static_cast<double>(a[i]);
}

void YearFromDaysKernel(const int64_t* a, int64_t n, int64_t* res) {
  for (int64_t i = 0; i < n; ++i) res[i] = YearFromDays(a[i]);
}

void CmpI64ConstMask(CompareOp op, const int64_t* a, int64_t b, int64_t n,
                     uint8_t* verdict) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    CmpI64ConstMaskAvx2(op, a, b, n, verdict);
    return;
  }
#else
  simd::Dispatch();
#endif
  CmpI64ConstMaskScalar(op, a, b, n, verdict);
}

void CmpF64ConstMask(CompareOp op, const double* a, double b, int64_t n,
                     uint8_t* verdict) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    CmpF64ConstMaskAvx2(op, a, b, n, verdict);
    return;
  }
#else
  simd::Dispatch();
#endif
  CmpF64ConstMaskScalar(op, a, b, n, verdict);
}

void AndCodeRange(const uint64_t* codes, const uint8_t* valid, uint64_t lo,
                  uint64_t hi, bool negate, int64_t n, uint8_t* active) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    AndCodeRangeAvx2(codes, valid, lo, hi, negate, n, active);
    return;
  }
#else
  simd::Dispatch();
#endif
  AndCodeRangeScalar(codes, valid, lo, hi, negate, n, active);
}

void HashCombineColumn(const uint64_t* bits, const uint8_t* valid,
                       uint64_t null_tag, int64_t n, uint64_t* out) {
#ifdef VSTORE_KERNELS_X86
  if (simd::Dispatch() == simd::Level::kAVX2) {
    HashCombineColumnAvx2(bits, valid, null_tag, n, out);
    return;
  }
#else
  simd::Dispatch();
#endif
  HashCombineColumnScalar(bits, valid, null_tag, n, out);
}

void FillU64(uint64_t seed, int64_t n, uint64_t* out) {
  std::fill(out, out + n, seed);
}

}  // namespace kernels
}  // namespace vstore
