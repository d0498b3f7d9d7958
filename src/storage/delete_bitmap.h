#ifndef VSTORE_STORAGE_DELETE_BITMAP_H_
#define VSTORE_STORAGE_DELETE_BITMAP_H_

#include <cstdint>
#include <cstring>

#include "common/bit_util.h"

namespace vstore {

// Records which rows of one compressed row group have been logically
// deleted (paper §3.1: "a delete bitmap indicating which rows have been
// deleted"). Deleted rows are filtered during scans and physically removed
// only when the row group is rebuilt.
class DeleteBitmap {
 public:
  DeleteBitmap() = default;
  explicit DeleteBitmap(int64_t num_rows) : bits_(num_rows) {}

  int64_t num_rows() const { return bits_.size(); }
  int64_t deleted_count() const { return deleted_; }
  bool any_deleted() const { return deleted_ > 0; }

  bool IsDeleted(int64_t row) const { return bits_.Get(row); }

  // Returns false if the row was already deleted.
  bool MarkDeleted(int64_t row) {
    if (bits_.Get(row)) return false;
    bits_.Set(row);
    ++deleted_;
    return true;
  }

  // Fills out[i] = 1 for live rows in [start, start+count).
  void DecodeLiveness(int64_t start, int64_t count, uint8_t* out) const {
    if (deleted_ == 0) {
      std::memset(out, 1, static_cast<size_t>(count));
      return;
    }
    // Row by row up to a byte boundary of the bitmap, then 8 rows per
    // bitmap byte, then the rows of a partial last byte.
    int64_t i = 0;
    for (; i < count && ((start + i) & 7) != 0; ++i) {
      out[i] = bits_.Get(start + i) ? 0 : 1;
    }
    const uint8_t* bytes = bits_.data();
    for (; i + 8 <= count; i += 8) {
      bit_util::BitsToBytes(~unsigned{bytes[(start + i) >> 3]}, out + i);
    }
    for (; i < count; ++i) out[i] = bits_.Get(start + i) ? 0 : 1;
  }

  int64_t MemoryBytes() const {
    return bit_util::BytesForBits(bits_.size());
  }

  // Serialization support for the checkpoint writer/reader.
  const uint8_t* bytes() const { return bits_.data(); }
  int64_t byte_size() const { return bit_util::BytesForBits(bits_.size()); }
  // Rebuilds a bitmap from its serialized bytes; the deleted count is
  // recomputed from the bits rather than trusted from the file.
  static DeleteBitmap FromBytes(int64_t num_rows, const uint8_t* data,
                                size_t len) {
    DeleteBitmap bm(num_rows);
    size_t want = static_cast<size_t>(bit_util::BytesForBits(num_rows));
    if (len > want) len = want;
    if (len > 0) std::memcpy(bm.bits_.mutable_data(), data, len);
    bm.deleted_ = bm.bits_.CountSet();
    return bm;
  }

 private:
  bit_util::Bitmap bits_;
  int64_t deleted_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_STORAGE_DELETE_BITMAP_H_
