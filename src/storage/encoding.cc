#include "storage/encoding.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/macros.h"
#include "common/simd.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define VSTORE_ENCODING_X86 1
#endif

namespace vstore {

namespace {

inline bool Valid(const uint8_t* validity, int64_t i) {
  return validity == nullptr || validity[i] != 0;
}

// Largest power of ten (up to 10^8) dividing every valid value.
int CommonPow10(const int64_t* values, const uint8_t* validity, int64_t n) {
  int scale = 8;
  int64_t divisor = 100000000;
  for (int64_t i = 0; i < n && scale > 0; ++i) {
    if (!Valid(validity, i)) continue;
    while (scale > 0 && values[i] % divisor != 0) {
      --scale;
      divisor /= 10;
    }
  }
  return scale;
}

#ifdef VSTORE_ENCODING_X86

// WidenScaledCodes four codes at a time. Each code + base is converted to
// double exactly by the magic-number add: for |v| < 2^51 the bits of
// v + bits(2^52 + 2^51) are the double 2^52 + 2^51 + v, so subtracting
// 2^52 + 2^51 leaves v. IEEE division is correctly rounded, so every result
// is bit-identical to the scalar divide.
__attribute__((target("avx2"))) void WidenScaledAvx2(int64_t base,
                                                     double factor,
                                                     int64_t count,
                                                     double* values) {
  const __m256i vbase = _mm256_set1_epi64x(base);
  const __m256i vmagic_bits = _mm256_set1_epi64x(0x4338000000000000LL);
  const __m256d vmagic = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
  const __m256d vfactor = _mm256_set1_pd(factor);
  int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)),
        vbase);
    const __m256d d = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_add_epi64(v, vmagic_bits)), vmagic);
    _mm256_storeu_pd(values + i, _mm256_div_pd(d, vfactor));
  }
  for (; i < count; ++i) {
    int64_t code;
    std::memcpy(&code, values + i, sizeof(code));
    values[i] = static_cast<double>(code + base) / factor;
  }
}

#endif  // VSTORE_ENCODING_X86

}  // namespace

void WidenScaledCodes(const ValueEncoding& venc, int bit_width, int64_t count,
                      double* values) {
  VSTORE_DCHECK(venc.code_kind == CodeKind::kValueScaled);
  const int64_t base = venc.base;
  const double factor = venc.dbl_pow10;
#ifdef VSTORE_ENCODING_X86
  // code + base lies in [base, base + 2^bit_width - 1]; the AVX2 body is
  // exact when that interval lies strictly inside (-2^51, 2^51).
  constexpr int64_t kExact = int64_t{1} << 51;
  if (bit_width <= 51 && base > -kExact && base < kExact &&
      base + ((int64_t{1} << bit_width) - 1) < kExact && count >= 4 &&
      simd::Dispatch() == simd::Level::kAVX2) {
    WidenScaledAvx2(base, factor, count, values);
    return;
  }
#endif
  const uint64_t* codes = reinterpret_cast<const uint64_t*>(values);
  for (int64_t i = 0; i < count; ++i) {
    values[i] =
        static_cast<double>(static_cast<int64_t>(codes[i]) + base) / factor;
  }
}

CodeStream ValueEncodeInts(const int64_t* values, const uint8_t* validity,
                           int64_t n) {
  CodeStream out;
  out.codes.resize(static_cast<size_t>(n), 0);
  out.venc.code_kind = CodeKind::kValueOffset;

  int64_t min_v = std::numeric_limits<int64_t>::max();
  bool any_valid = false;
  for (int64_t i = 0; i < n; ++i) {
    if (!Valid(validity, i)) continue;
    any_valid = true;
    min_v = std::min(min_v, values[i]);
  }
  if (!any_valid) {
    out.venc.base = 0;
    return out;
  }

  int scale = CommonPow10(values, validity, n);
  int64_t divisor = 1;
  for (int i = 0; i < scale; ++i) divisor *= 10;
  // Only keep the scale if it actually applies to min as well (it does by
  // construction) and the column isn't all-zero (scale meaningless then).
  if (min_v == 0 && scale > 0) {
    bool all_zero = true;
    for (int64_t i = 0; i < n && all_zero; ++i) {
      if (Valid(validity, i) && values[i] != 0) all_zero = false;
    }
    if (all_zero) {
      scale = 0;
      divisor = 1;
    }
  }

  out.venc.scale = scale;
  out.venc.int_pow10 = divisor;
  out.venc.base = min_v / divisor;
  for (int64_t i = 0; i < n; ++i) {
    if (!Valid(validity, i)) continue;
    uint64_t code =
        static_cast<uint64_t>(values[i] / divisor - out.venc.base);
    out.codes[static_cast<size_t>(i)] = code;
    out.max_code = std::max(out.max_code, code);
  }
  return out;
}

CodeStream ValueEncodeDoubles(const double* values, const uint8_t* validity,
                              int64_t n, int max_scale) {
  // Try to represent each value as value * 10^scale being integral.
  for (int scale = 0; scale <= max_scale; ++scale) {
    double factor = std::pow(10.0, scale);
    bool representable = true;
    int64_t min_v = std::numeric_limits<int64_t>::max();
    bool any_valid = false;
    std::vector<int64_t> scaled(static_cast<size_t>(n), 0);
    for (int64_t i = 0; i < n; ++i) {
      if (!Valid(validity, i)) continue;
      double s = values[i] * factor;
      double r = std::nearbyint(s);
      // 2^52 guards exact integer representability in a double. The epsilon
      // absorbs representation error (19.99 * 100 = 1998.999...98); the
      // round-trip check below guarantees exact decoding regardless.
      if (std::abs(s) > 4503599627370496.0 ||
          std::abs(s - r) > 1e-9 * std::max(1.0, std::abs(s)) ||
          r / factor != values[i]) {
        representable = false;
        break;
      }
      scaled[static_cast<size_t>(i)] = static_cast<int64_t>(r);
      min_v = std::min(min_v, scaled[static_cast<size_t>(i)]);
      any_valid = true;
    }
    if (!representable) continue;
    CodeStream out;
    out.codes.resize(static_cast<size_t>(n), 0);
    out.venc.code_kind = CodeKind::kValueScaled;
    out.venc.scale = scale;
    out.venc.dbl_pow10 = factor;
    out.venc.base = any_valid ? min_v : 0;
    for (int64_t i = 0; i < n; ++i) {
      if (!Valid(validity, i)) continue;
      uint64_t code =
          static_cast<uint64_t>(scaled[static_cast<size_t>(i)] - out.venc.base);
      out.codes[static_cast<size_t>(i)] = code;
      out.max_code = std::max(out.max_code, code);
    }
    return out;
  }

  // Incompressible doubles: store raw bit patterns.
  CodeStream out;
  out.codes.resize(static_cast<size_t>(n), 0);
  out.venc.code_kind = CodeKind::kRawDouble;
  for (int64_t i = 0; i < n; ++i) {
    if (!Valid(validity, i)) continue;
    uint64_t code = std::bit_cast<uint64_t>(values[i]);
    out.codes[static_cast<size_t>(i)] = code;
    out.max_code = std::max(out.max_code, code);
  }
  return out;
}

bool EncodeIntValue(int64_t value, const ValueEncoding& venc, uint64_t* code) {
  VSTORE_DCHECK(venc.code_kind == CodeKind::kValueOffset);
  int64_t divisor = venc.int_pow10;
  if (value % divisor != 0) return false;
  int64_t c = value / divisor - venc.base;
  if (c < 0) return false;
  *code = static_cast<uint64_t>(c);
  return true;
}

}  // namespace vstore
