#ifndef VSTORE_STORAGE_BIT_PACK_H_
#define VSTORE_STORAGE_BIT_PACK_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace vstore {

// Fixed-width bit packing of unsigned codes — the innermost compression
// stage of every column segment (the paper's "bit packing"). Values are
// packed little-endian into a byte buffer, `bit_width` bits each.
// bit_width == 0 encodes the all-zero sequence in zero bytes.
class BitPacker {
 public:
  // Packs values[0, n) at the given width. Caller guarantees every value
  // fits in bit_width bits.
  static std::vector<uint8_t> Pack(const uint64_t* values, int64_t n,
                                   int bit_width);

  // Unpacks n values starting at logical index `start`.
  static void Unpack(const uint8_t* data, int bit_width, int64_t start,
                     int64_t n, uint64_t* out);

  // out[i] = Get(data, bit_width, indices[i]) for i in [0, n): an AVX2
  // gather body for widths up to 57, Get otherwise.
  static void Gather(const uint8_t* data, int bit_width,
                     const int64_t* indices, int64_t n, uint64_t* out);

  // Random access to a single value.
  static uint64_t Get(const uint8_t* data, int bit_width, int64_t index) {
    if (bit_width == 0) return 0;
    const int64_t bit_pos = index * bit_width;
    const int shift = static_cast<int>(bit_pos & 7);
    uint64_t word;
    std::memcpy(&word, data + (bit_pos >> 3), sizeof(word));
    uint64_t v = word >> shift;
    if (shift + bit_width > 64) {
      uint64_t hi;
      std::memcpy(&hi, data + (bit_pos >> 3) + 8, sizeof(hi));
      v |= hi << (64 - shift);
    }
    return bit_width < 64 ? v & ((uint64_t{1} << bit_width) - 1) : v;
  }

  static int64_t PackedBytes(int64_t n, int bit_width);
};

}  // namespace vstore

#endif  // VSTORE_STORAGE_BIT_PACK_H_
