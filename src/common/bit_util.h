#ifndef VSTORE_COMMON_BIT_UTIL_H_
#define VSTORE_COMMON_BIT_UTIL_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace vstore {
namespace bit_util {

// Number of bits needed to represent `value` (0 needs 0 bits).
inline int BitsRequired(uint64_t value) {
  return value == 0 ? 0 : 64 - std::countl_zero(value);
}

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

inline bool GetBit(const uint8_t* bits, int64_t i) {
  return (bits[i >> 3] >> (i & 7)) & 1;
}

inline void SetBit(uint8_t* bits, int64_t i) { bits[i >> 3] |= 1u << (i & 7); }

inline void ClearBit(uint8_t* bits, int64_t i) {
  bits[i >> 3] &= static_cast<uint8_t>(~(1u << (i & 7)));
}

inline void SetBitTo(uint8_t* bits, int64_t i, bool value) {
  if (value) {
    SetBit(bits, i);
  } else {
    ClearBit(bits, i);
  }
}

// Expands the low 8 bits of `bits` into 8 bytes of 0 or 1 (byte i = bit i)
// written with a single unaligned store. spread puts bit i at bit position
// i of byte i; the byte-wise add of 0x7f moves any set bit into the byte's
// sign position (no cross-byte carry: max byte value is 0x80 + 0x7f =
// 0xff), and the final shift+mask normalizes each byte to 0/1.
inline void BitsToBytes(unsigned bits, uint8_t* out) {
  uint64_t spread =
      (static_cast<uint64_t>(bits & 0xff) * 0x0101010101010101ULL) &
      0x8040201008040201ULL;
  uint64_t bytes =
      ((spread + 0x7f7f7f7f7f7f7f7fULL) >> 7) & 0x0101010101010101ULL;
  std::memcpy(out, &bytes, sizeof(bytes));
}

// Number of bytes needed to store a bitmap of `bits` bits.
inline int64_t BytesForBits(int64_t bits) { return CeilDiv(bits, 8); }

// Counts set bits in bitmap[0, num_bits).
int64_t CountSetBits(const uint8_t* bits, int64_t num_bits);

// A growable bitmap used for delete bitmaps and qualifying-row vectors.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(int64_t num_bits, bool initial_value = false) {
    Resize(num_bits, initial_value);
  }

  void Resize(int64_t num_bits, bool initial_value = false) {
    num_bits_ = num_bits;
    bytes_.assign(static_cast<size_t>(BytesForBits(num_bits)),
                  initial_value ? 0xFF : 0x00);
    TrimTail();
  }

  int64_t size() const { return num_bits_; }
  bool Get(int64_t i) const { return GetBit(bytes_.data(), i); }
  void Set(int64_t i) { SetBit(bytes_.data(), i); }
  void Clear(int64_t i) { ClearBit(bytes_.data(), i); }
  void SetTo(int64_t i, bool v) { SetBitTo(bytes_.data(), i, v); }

  int64_t CountSet() const { return CountSetBits(bytes_.data(), num_bits_); }

  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* mutable_data() { return bytes_.data(); }

 private:
  // Keeps bits past num_bits_ zero so CountSet stays exact.
  void TrimTail() {
    int64_t tail = num_bits_ & 7;
    if (tail != 0 && !bytes_.empty()) {
      bytes_.back() &= static_cast<uint8_t>((1u << tail) - 1);
    }
  }

  int64_t num_bits_ = 0;
  std::vector<uint8_t> bytes_;
};

}  // namespace bit_util
}  // namespace vstore

#endif  // VSTORE_COMMON_BIT_UTIL_H_
