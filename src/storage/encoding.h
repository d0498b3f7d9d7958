#ifndef VSTORE_STORAGE_ENCODING_H_
#define VSTORE_STORAGE_ENCODING_H_

#include <cstdint>
#include <vector>

namespace vstore {

// How a segment's code stream is laid out (the paper's final compression
// stage choice: bit packing vs run-length encoding).
enum class EncodingKind : uint8_t {
  kBitPack = 0,
  kRle,
};

// How raw column values map to integer codes (the paper's first stage:
// value-based encoding for numerics, dictionary encoding otherwise).
enum class CodeKind : uint8_t {
  kValueOffset = 0,  // code = value - base (ints, dates, bools)
  kValueScaled,      // code = round(value * 10^scale) - base (doubles)
  kRawDouble,        // code = IEEE-754 bit pattern (incompressible doubles)
  kDictionary,       // code = dictionary id (strings)
};

// Parameters of value-based encoding.
struct ValueEncoding {
  CodeKind code_kind = CodeKind::kValueOffset;
  int64_t base = 0;
  int scale = 0;  // power of ten applied to doubles before offsetting
  // Cached 10^scale forms so per-element decode avoids pow(); kept in sync
  // by the encoders.
  int64_t int_pow10 = 1;
  double dbl_pow10 = 1.0;
};

// Result of turning a column slice into unsigned codes.
struct CodeStream {
  std::vector<uint64_t> codes;
  ValueEncoding venc;
  uint64_t max_code = 0;
};

// Value-encodes physical-int64 values: finds min over valid rows, subtracts
// it. Null rows get code 0. Also divides out a common power of ten when all
// valid values share one (the paper's exponent trick applied to integers).
CodeStream ValueEncodeInts(const int64_t* values, const uint8_t* validity,
                           int64_t n);

// Value-encodes doubles: if every valid value is exactly representable as a
// scaled integer with scale <= max_scale, uses kValueScaled; otherwise
// falls back to raw IEEE bit patterns (kRawDouble).
CodeStream ValueEncodeDoubles(const double* values, const uint8_t* validity,
                              int64_t n, int max_scale = 4);

// Reverses value encoding for one code.
inline int64_t DecodeIntCode(uint64_t code, const ValueEncoding& venc) {
  return (static_cast<int64_t>(code) + venc.base) * venc.int_pow10;
}

inline double DecodeDoubleCode(uint64_t code, const ValueEncoding& venc) {
  if (venc.code_kind == CodeKind::kRawDouble) {
    double d;
    static_assert(sizeof(d) == sizeof(code));
    __builtin_memcpy(&d, &code, sizeof(d));
    return d;
  }
  // Division (not multiplication by the inverse) keeps decoding bit-exact
  // with the representability check performed at encode time.
  return static_cast<double>(static_cast<int64_t>(code) + venc.base) /
         venc.dbl_pow10;
}

// Batch DecodeDoubleCode for value-scaled codes, each below 2^bit_width,
// held in the bytes of values[0, count) and widened in place. Results are
// bit-identical to DecodeDoubleCode; an AVX2 body runs when every such code
// c has |c + base| < 2^51 (checked once per call), the scalar loop
// otherwise.
void WidenScaledCodes(const ValueEncoding& venc, int bit_width, int64_t count,
                      double* values);

// Forward-maps a raw value to its code; returns false if the value is not
// representable under this encoding (then it cannot occur in the segment).
bool EncodeIntValue(int64_t value, const ValueEncoding& venc, uint64_t* code);

}  // namespace vstore

#endif  // VSTORE_STORAGE_ENCODING_H_
