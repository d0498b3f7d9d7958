#include "exec/hash_table.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "exec/expr_kernels.h"

namespace vstore {

RowFormat::RowFormat(const Schema& schema) {
  const int n = schema.num_columns();
  types_.reserve(static_cast<size_t>(n));
  offsets_.reserve(static_cast<size_t>(n));
  // Validity bytes first, padded to 8.
  size_t offset = (static_cast<size_t>(n) + 7) & ~size_t{7};
  for (int c = 0; c < n; ++c) {
    types_.push_back(schema.field(c).type);
    offsets_.push_back(offset);
    offset += PhysicalTypeOf(schema.field(c).type) == PhysicalType::kString
                  ? 16
                  : 8;
  }
  row_size_ = offset;
}

void RowFormat::Write(uint8_t* dst, const Batch& batch, int64_t row,
                      Arena* arena) const {
  for (int c = 0; c < num_columns(); ++c) {
    const ColumnVector& cv = batch.column(c);
    uint8_t valid = cv.validity()[row];
    dst[c] = valid;
    uint8_t* slot = dst + slot_offset(c);
    if (!valid) {
      std::memset(slot, 0, 8);
      continue;
    }
    switch (cv.physical_type()) {
      case PhysicalType::kInt64:
        std::memcpy(slot, cv.ints() + row, 8);
        break;
      case PhysicalType::kDouble:
        std::memcpy(slot, cv.doubles() + row, 8);
        break;
      case PhysicalType::kString: {
        std::string_view stable = arena->CopyString(cv.strings()[row]);
        const char* ptr = stable.data();
        uint64_t len = stable.size();
        std::memcpy(slot, &ptr, 8);
        std::memcpy(slot + 8, &len, 8);
        break;
      }
    }
  }
}

int64_t RowFormat::GetInt64(const uint8_t* row, int c) const {
  int64_t x;
  std::memcpy(&x, row + slot_offset(c), 8);
  return x;
}

double RowFormat::GetDouble(const uint8_t* row, int c) const {
  double x;
  std::memcpy(&x, row + slot_offset(c), 8);
  return x;
}

std::string_view RowFormat::GetString(const uint8_t* row, int c) const {
  const char* ptr;
  uint64_t len;
  std::memcpy(&ptr, row + slot_offset(c), 8);
  std::memcpy(&len, row + slot_offset(c) + 8, 8);
  return std::string_view(ptr, len);
}

void RowFormat::CopyToVector(const uint8_t* row, int c, ColumnVector* dst,
                             int64_t out_i, Arena* dst_arena) const {
  bool valid = !IsNull(row, c);
  dst->mutable_validity()[out_i] = valid ? 1 : 0;
  if (!valid) return;
  switch (dst->physical_type()) {
    case PhysicalType::kInt64:
      dst->mutable_ints()[out_i] = GetInt64(row, c);
      break;
    case PhysicalType::kDouble:
      dst->mutable_doubles()[out_i] = GetDouble(row, c);
      break;
    case PhysicalType::kString:
      dst->mutable_strings()[out_i] = dst_arena != nullptr
                                          ? dst_arena->CopyString(
                                                GetString(row, c))
                                          : GetString(row, c);
      break;
  }
}

namespace {

uint64_t HashBatchSlot(const ColumnVector& cv, int64_t i) {
  if (!cv.validity()[i]) return kNullKeyHashTag;
  switch (cv.physical_type()) {
    case PhysicalType::kInt64:
      return HashInt64(static_cast<uint64_t>(cv.ints()[i]));
    case PhysicalType::kDouble:
      return HashInt64(std::bit_cast<uint64_t>(cv.doubles()[i]));
    case PhysicalType::kString:
      return Hash64(cv.strings()[i]);
  }
  return 0;
}

}  // namespace

uint64_t RowFormat::HashKeysFromBatch(const Batch& batch, int64_t i,
                                      const std::vector<int>& keys) const {
  uint64_t h = kKeyHashSeed;
  for (int k : keys) {
    h = HashCombine(h, HashBatchSlot(batch.column(k), i));
  }
  return h;
}

void HashKeysBatch(const Batch& batch, const std::vector<int>& keys,
                   const uint8_t* active, uint64_t* out) {
  const int64_t n = batch.num_rows();
  kernels::FillU64(kKeyHashSeed, n, out);
  for (int k : keys) CombineKeyColumnHashes(batch.column(k), active, n, out);
}

void CombineKeyColumnHashes(const ColumnVector& cv, const uint8_t* active,
                            int64_t n, uint64_t* out) {
  switch (cv.physical_type()) {
    case PhysicalType::kInt64:
      kernels::HashCombineColumn(reinterpret_cast<const uint64_t*>(cv.ints()),
                                 cv.validity(), kNullKeyHashTag, n, out);
      break;
    case PhysicalType::kDouble:
      // Doubles hash their bit patterns, same as HashBatchSlot.
      kernels::HashCombineColumn(
          reinterpret_cast<const uint64_t*>(cv.doubles()), cv.validity(),
          kNullKeyHashTag, n, out);
      break;
    case PhysicalType::kString: {
      const std::string_view* sv = cv.strings();
      const uint8_t* valid = cv.validity();
      for (int64_t i = 0; i < n; ++i) {
        if (active != nullptr && !active[i]) continue;
        out[i] =
            HashCombine(out[i], valid[i] ? Hash64(sv[i]) : kNullKeyHashTag);
      }
      break;
    }
  }
}

void BatchKeys::Reset(const RowFormat& format,
                      const std::vector<int>& row_cols, const Batch& batch,
                      const std::vector<int>& batch_cols) {
  keys_.clear();
  for (size_t k = 0; k < row_cols.size(); ++k) {
    const ColumnVector& cv = batch.column(batch_cols[k]);
    Key key{cv.validity(), nullptr, nullptr, row_cols[k],
            format.slot_offset(row_cols[k])};
    switch (cv.physical_type()) {
      case PhysicalType::kInt64:
        key.words = reinterpret_cast<const uint8_t*>(cv.ints());
        break;
      case PhysicalType::kDouble:
        key.words = reinterpret_cast<const uint8_t*>(cv.doubles());
        break;
      case PhysicalType::kString:
        key.strings = cv.strings();
        break;
    }
    keys_.push_back(key);
  }
}

void BatchKeys::Write(uint8_t* row, int64_t i, Arena* arena) const {
  for (const Key& k : keys_) {
    const uint8_t valid = k.valid[i];
    row[k.column] = valid;
    uint8_t* slot = row + k.offset;
    if (!valid) {
      std::memset(slot, 0, 8);
    } else if (k.strings != nullptr) {
      const std::string_view stable = arena->CopyString(k.strings[i]);
      const char* ptr = stable.data();
      const uint64_t len = stable.size();
      std::memcpy(slot, &ptr, 8);
      std::memcpy(slot + 8, &len, 8);
    } else {
      std::memcpy(slot, k.words + i * 8, 8);
    }
  }
}

SerializedRowHashTable::SerializedRowHashTable(int64_t expected_rows) {
  size_t buckets = std::bit_ceil(
      static_cast<size_t>(std::max<int64_t>(expected_rows * 2, 16)));
  buckets_.assign(buckets, nullptr);
}

void SerializedRowHashTable::Insert(uint8_t* entry, uint64_t hash) {
  if (num_entries_ >= static_cast<int64_t>(buckets_.size())) Grow();
  size_t b = static_cast<size_t>(hash) & (buckets_.size() - 1);
  uint8_t* head = buckets_[b];
  std::memcpy(entry, &head, sizeof(head));
  std::memcpy(entry + 8, &hash, sizeof(hash));
  buckets_[b] = entry;
  ++num_entries_;
}

void EntriesToBatch(const RowFormat& format, const uint8_t* const* entries,
                    int64_t n, Batch* out) {
  out->Reset();
  for (int c = 0; c < format.num_columns(); ++c) {
    ColumnVector* dst = &out->column(c);
    for (int64_t k = 0; k < n; ++k) {
      format.CopyToVector(SerializedRowHashTable::EntryPayload(entries[k]), c,
                          dst, k, nullptr);
    }
  }
  out->set_num_rows(n);
  out->ActivateAll();
}

void SerializedRowHashTable::Grow() {
  std::vector<uint8_t*> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, nullptr);
  reservation_.Set(bucket_bytes());
  for (uint8_t* entry : old) {
    while (entry != nullptr) {
      uint8_t* next;
      uint64_t hash;
      std::memcpy(&next, entry, sizeof(next));
      std::memcpy(&hash, entry + 8, sizeof(hash));
      size_t b = static_cast<size_t>(hash) & (buckets_.size() - 1);
      uint8_t* head = buckets_[b];
      std::memcpy(entry, &head, sizeof(head));
      buckets_[b] = entry;
      entry = next;
    }
  }
}

GroupHashTable::GroupHashTable(Arena* arena, size_t payload_size,
                               int64_t expected_entries)
    : arena_(arena), entry_size_(kHashSize + payload_size) {
  Resize(std::bit_ceil(static_cast<size_t>(
      std::max<int64_t>(expected_entries * 4 / 3, 16))));
}

void GroupHashTable::Resize(size_t num_slots) {
  slots_.assign(num_slots, 0);
  mask_ = num_slots - 1;
  max_entries_ = num_slots / 4 * 3;
  reservation_.Set(slot_bytes());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const uint64_t hash = EntryHash(entries_[i]);
    size_t pos = static_cast<size_t>(hash) & mask_;
    while (slots_[pos] != 0) pos = (pos + 1) & mask_;
    slots_[pos] = SaltOf(hash) | i;
  }
}

}  // namespace vstore
