#include "storage/bit_pack.h"

#include <cstring>

#include "common/bit_util.h"
#include "common/macros.h"
#include "common/simd.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define VSTORE_BITPACK_X86 1
#endif

namespace vstore {

namespace {

#ifdef VSTORE_BITPACK_X86

// Four values per iteration: gather the 64-bit word containing each value's
// first bit, then shift/mask per lane. Requires shift(<=7) + bit_width <= 64
// so one word covers the whole value (bit_width <= 57); the buffer's +7
// byte slack (PackedBytes) makes the 8-byte gather at the last value safe.
__attribute__((target("avx2"))) void UnpackAvx2(const uint8_t* data,
                                                int bit_width, int64_t start,
                                                int64_t n, uint64_t* out) {
  const uint64_t mask = (uint64_t{1} << bit_width) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vseven = _mm256_set1_epi64x(7);
  const int64_t bw = bit_width;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int64_t b0 = (start + i) * bw;
    const __m256i bits =
        _mm256_set_epi64x(b0 + 3 * bw, b0 + 2 * bw, b0 + bw, b0);
    const __m256i bytes = _mm256_srli_epi64(bits, 3);
    const __m256i shift = _mm256_and_si256(bits, vseven);
    const __m256i words = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(data), bytes, 1);
    const __m256i vals =
        _mm256_and_si256(_mm256_srlv_epi64(words, shift), vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), vals);
  }
  for (; i < n; ++i) {
    const int64_t bit_pos = (start + i) * bw;
    uint64_t word;
    std::memcpy(&word, data + (bit_pos >> 3), sizeof(word));
    out[i] = (word >> (bit_pos & 7)) & mask;
  }
}

// Gather form of UnpackAvx2: value indices[i] starts at bit indices[i] *
// bit_width. The product is formed from the index's 32-bit halves, each
// times the width (< 2^32), so it is exact for every index a buffer can
// hold; the same one-word read and +7 byte slack apply (bit_width <= 57).
__attribute__((target("avx2"))) void GatherAvx2(const uint8_t* data,
                                                int bit_width,
                                                const int64_t* indices,
                                                int64_t n, uint64_t* out) {
  const uint64_t mask = (uint64_t{1} << bit_width) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vseven = _mm256_set1_epi64x(7);
  const __m256i vwidth = _mm256_set1_epi64x(bit_width);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i index =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(indices + i));
    const __m256i lo = _mm256_mul_epu32(index, vwidth);
    const __m256i hi =
        _mm256_mul_epu32(_mm256_srli_epi64(index, 32), vwidth);
    const __m256i bits = _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
    const __m256i words = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(data), _mm256_srli_epi64(bits, 3),
        1);
    const __m256i vals = _mm256_and_si256(
        _mm256_srlv_epi64(words, _mm256_and_si256(bits, vseven)), vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), vals);
  }
  for (; i < n; ++i) out[i] = BitPacker::Get(data, bit_width, indices[i]);
}

#endif  // VSTORE_BITPACK_X86

}  // namespace

int64_t BitPacker::PackedBytes(int64_t n, int bit_width) {
  // +7 bytes of slack lets the unpacker read whole 64-bit words safely.
  if (bit_width == 0) return 0;
  return bit_util::CeilDiv(n * bit_width, 8) + 7;
}

std::vector<uint8_t> BitPacker::Pack(const uint64_t* values, int64_t n,
                                     int bit_width) {
  VSTORE_DCHECK(bit_width >= 0 && bit_width <= 64);
  std::vector<uint8_t> out(static_cast<size_t>(PackedBytes(n, bit_width)), 0);
  if (bit_width == 0) return out;
  uint8_t* data = out.data();
  for (int64_t i = 0; i < n; ++i) {
    uint64_t v = values[i];
    VSTORE_DCHECK(bit_width == 64 || (v >> bit_width) == 0);
    int64_t bit_pos = i * bit_width;
    int64_t byte_pos = bit_pos >> 3;
    int shift = static_cast<int>(bit_pos & 7);
    // Write up to 64+7 bits via two word stores.
    uint64_t word;
    std::memcpy(&word, data + byte_pos, sizeof(word));
    word |= v << shift;
    std::memcpy(data + byte_pos, &word, sizeof(word));
    if (shift + bit_width > 64) {
      uint64_t hi = v >> (64 - shift);
      std::memcpy(&word, data + byte_pos + 8, sizeof(word));
      word |= hi;
      std::memcpy(data + byte_pos + 8, &word, sizeof(word));
    }
  }
  return out;
}

void BitPacker::Unpack(const uint8_t* data, int bit_width, int64_t start,
                       int64_t n, uint64_t* out) {
  if (bit_width == 0) {
    std::memset(out, 0, static_cast<size_t>(n) * sizeof(uint64_t));
    return;
  }
#ifdef VSTORE_BITPACK_X86
  // Widths up to 57 fit entirely in one gathered word per value (see
  // UnpackAvx2); wider values need the two-word scalar path below.
  if (bit_width <= 57 && n >= 8 &&
      simd::Dispatch() == simd::Level::kAVX2) {
    UnpackAvx2(data, bit_width, start, n, out);
    return;
  }
#endif
  // Streaming decode: advance a byte pointer + bit offset instead of
  // recomputing positions; each value is one or two unaligned word loads.
  const uint64_t mask =
      bit_width == 64 ? ~uint64_t{0} : (uint64_t{1} << bit_width) - 1;
  int64_t bit_pos = start * bit_width;
  const uint8_t* p = data + (bit_pos >> 3);
  int shift = static_cast<int>(bit_pos & 7);
  for (int64_t i = 0; i < n; ++i) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    uint64_t v = word >> shift;
    if (shift + bit_width > 64) {
      uint64_t hi;
      std::memcpy(&hi, p + 8, sizeof(hi));
      v |= hi << (64 - shift);
    }
    out[i] = v & mask;
    shift += bit_width;
    p += shift >> 3;
    shift &= 7;
  }
}

void BitPacker::Gather(const uint8_t* data, int bit_width,
                       const int64_t* indices, int64_t n, uint64_t* out) {
#ifdef VSTORE_BITPACK_X86
  if (bit_width > 0 && bit_width <= 57 && n >= 4 &&
      simd::Dispatch() == simd::Level::kAVX2) {
    GatherAvx2(data, bit_width, indices, n, out);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = Get(data, bit_width, indices[i]);
}

}  // namespace vstore
