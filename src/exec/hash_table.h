#ifndef VSTORE_EXEC_HASH_TABLE_H_
#define VSTORE_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/memory_tracker.h"
#include "exec/batch.h"
#include "types/schema.h"
#include "types/value.h"

namespace vstore {

// Seed folded into every key hash, and the tag null keys hash to. These
// are shared between the key hashes below and the scan-side Bloom probe
// (ColumnStoreScanOperator) so a join-built filter and the scan agree on
// single-key hashes.
constexpr uint64_t kKeyHashSeed = 0x51ed270b;
constexpr uint64_t kNullKeyHashTag = 0x9ae16a3b2f90404fULL;

// Hash of a single raw key value as used by joins, aggregates, and Bloom
// filters (single-column keys only for Bloom pushdown).
inline uint64_t SingleKeyHash(uint64_t slot_hash) {
  return HashCombine(kKeyHashSeed, slot_hash);
}

// Fixed-offset serialized row format used by hash join build sides and
// hash aggregation state. Layout: a validity byte per column, padded to 8
// bytes, then one slot per column — 8 bytes for int64/double, 16 bytes for
// string (pointer + length into an arena).
class RowFormat {
 public:
  explicit RowFormat(const Schema& schema);

  int num_columns() const { return static_cast<int>(offsets_.size()); }
  size_t row_size() const { return row_size_; }
  DataType column_type(int c) const { return types_[static_cast<size_t>(c)]; }

  // Serializes row `row` of `batch` into `dst` (row_size() bytes). String
  // payloads are copied into `arena`.
  void Write(uint8_t* dst, const Batch& batch, int64_t row,
             Arena* arena) const;
  bool IsNull(const uint8_t* row, int c) const {
    return row[static_cast<size_t>(c)] == 0;
  }
  int64_t GetInt64(const uint8_t* row, int c) const;
  double GetDouble(const uint8_t* row, int c) const;
  std::string_view GetString(const uint8_t* row, int c) const;

  // Copies column `c` of the serialized row into position `out_i` of `dst`.
  // Strings are re-anchored into `dst_arena`, or view the row's own string
  // storage when `dst_arena` is null.
  void CopyToVector(const uint8_t* row, int c, ColumnVector* dst,
                    int64_t out_i, Arena* dst_arena) const;

  // Hash of the given key columns of batch row `i` (nulls hash to a fixed
  // tag; callers that need SQL join semantics must skip null keys
  // themselves).
  uint64_t HashKeysFromBatch(const Batch& batch, int64_t i,
                             const std::vector<int>& keys) const;

  // Byte offset of column `c`'s value slot within a row.
  size_t slot_offset(int c) const { return offsets_[static_cast<size_t>(c)]; }

 private:
  std::vector<size_t> offsets_;
  std::vector<DataType> types_;
  size_t row_size_ = 0;
};

// Batch-at-a-time variant of RowFormat::HashKeysFromBatch: hashes the key
// columns of every row of `batch` into out[0, num_rows). Numeric columns
// run through the SIMD hash kernels over all lanes (inactive lanes hold
// initialized values); string columns are hashed only where `active` is
// set, since a string hash costs per byte and a masked row's hash is never
// read. out[i] therefore matches HashKeysFromBatch exactly for active rows
// and is unspecified elsewhere. `active` may be null (= all rows).
void HashKeysBatch(const Batch& batch, const std::vector<int>& keys,
                   const uint8_t* active, uint64_t* out);

// One key column's step of HashKeysBatch: folds rows [0, n) of `cv` into
// the running hashes out[0, n), under the same `active` contract. After
// kernels::FillU64(kKeyHashSeed, ...), one call gives the single-key hashes
// that hash joins insert into their Bloom filters.
void CombineKeyColumnHashes(const ColumnVector& cv, const uint8_t* active,
                            int64_t n, uint64_t* out);

// The key columns of one batch, resolved once per batch into raw arrays,
// compared against and written into serialized rows. This holds the one
// key-equality rule of joins and GROUP BY: fixed-width keys (int64 and
// double alike) compare as their 8-byte words, so doubles compare by bit
// pattern, the way they hash. A NaN equals a NaN with the same bits, and
// -0.0 and 0.0 differ. Strings compare by content. Expression `=` keeps
// IEEE semantics; only key matching uses this rule.
class BatchKeys {
 public:
  // Key k is batch column batch_cols[k] against column row_cols[k] of rows
  // in `format`. The batch must outlive the comparisons.
  void Reset(const RowFormat& format, const std::vector<int>& row_cols,
             const Batch& batch, const std::vector<int>& batch_cols);

  // GROUP BY equality of `row`'s keys and batch row `i`: null keys compare
  // equal (one null group).
  bool GroupKeysEqual(const uint8_t* row, int64_t i) const {
    return Equal<true>(row, i);
  }
  // Join equality: a null key never matches.
  bool JoinKeysEqual(const uint8_t* row, int64_t i) const {
    return Equal<false>(row, i);
  }

  // Writes batch row `i`'s keys into `row`; strings are copied into
  // `arena`.
  void Write(uint8_t* row, int64_t i, Arena* arena) const;

 private:
  struct Key {
    const uint8_t* valid;
    const uint8_t* words;             // 8 bytes a row; null for strings
    const std::string_view* strings;  // null for fixed-width keys
    int column;                       // the key's validity byte in a row
    size_t offset;                    // its value slot in a row
  };

  template <bool kNullsEqual>
  bool Equal(const uint8_t* row, int64_t i) const;

  std::vector<Key> keys_;
};

template <bool kNullsEqual>
bool BatchKeys::Equal(const uint8_t* row, int64_t i) const {
  for (const Key& k : keys_) {
    const bool row_valid = row[k.column] != 0;
    const bool valid = k.valid[i] != 0;
    if (kNullsEqual) {
      if (row_valid != valid) return false;
      if (!valid) continue;
    } else if (!row_valid || !valid) {
      return false;
    }
    const uint8_t* slot = row + k.offset;
    if (k.strings != nullptr) {
      const char* ptr;
      uint64_t len;
      std::memcpy(&ptr, slot, 8);
      std::memcpy(&len, slot + 8, 8);
      if (std::string_view(ptr, len) != k.strings[i]) return false;
    } else {
      uint64_t a, b;
      std::memcpy(&a, slot, 8);
      std::memcpy(&b, k.words + i * 8, 8);
      if (a != b) return false;
    }
  }
  return true;
}

// Chained hash table over serialized rows, the hash join's build table.
// Each entry is a row prefixed by a 16-byte header: [next pointer : 8]
// [hash : 8]. Rows live in an Arena owned by the caller; the table stores
// only bucket heads.
class SerializedRowHashTable {
 public:
  explicit SerializedRowHashTable(int64_t expected_rows = 1024);

  static constexpr size_t kHeaderSize = 16;

  // `entry` points at the 16-byte header followed by the row payload.
  void Insert(uint8_t* entry, uint64_t hash);

  // Raw chain access for resumable iteration (hash join emission can pause
  // mid-chain when its output batch fills).
  const uint8_t* ChainHead(uint64_t hash) const {
    if (buckets_.empty()) return nullptr;
    return buckets_[static_cast<size_t>(hash) & (buckets_.size() - 1)];
  }
  static const uint8_t* ChainNext(const uint8_t* entry) {
    const uint8_t* next;
    std::memcpy(&next, entry, sizeof(next));
    return next;
  }
  static uint64_t EntryHash(const uint8_t* entry) {
    uint64_t h;
    std::memcpy(&h, entry + 8, sizeof(h));
    return h;
  }
  static const uint8_t* EntryPayload(const uint8_t* entry) {
    return entry + kHeaderSize;
  }

  int64_t num_entries() const { return num_entries_; }

  // Charges the bucket array against `tracker` (rows are charged through
  // the caller's arena). Re-charged on Grow.
  void SetMemoryTracker(MemoryTracker* tracker) {
    reservation_.Reset(tracker);
    reservation_.Set(bucket_bytes());
  }

  int64_t bucket_bytes() const {
    return static_cast<int64_t>(buckets_.size() * sizeof(uint8_t*));
  }

 private:
  void Grow();

  std::vector<uint8_t*> buckets_;
  int64_t num_entries_ = 0;
  MemoryReservation reservation_;
};

// Copies the rows of table entries entries[0..n) (header + payload, as
// Insert takes them) into rows 0..n-1 of `out`, a batch of `format`'s
// schema, every row active. Strings view the entries' storage.
void EntriesToBatch(const RowFormat& format, const uint8_t* const* entries,
                    int64_t n, Batch* out);

// Open-addressing table of hash-aggregation groups. Each group is an entry
// allocated from the caller's arena, [hash : 8][payload], and the table
// lists its entries in insertion order: emission and spill flushes walk
// that list.
//
// A slot is 8 bytes: a 32-bit salt from the hash's upper half (never 0, so
// an all-zero slot is empty) over the entry's 32-bit index in the list.
// Probing is linear from the hash's low bits and reads an entry only when
// its slot's salt matches. An insert that leaves the table more than 3/4
// full doubles it; the new slots are filled from the entry list in order,
// by each entry's stored hash.
class GroupHashTable {
 public:
  static constexpr size_t kHashSize = 8;

  // Entries hold `payload_size` bytes after their hash, allocated from
  // `arena`.
  GroupHashTable(Arena* arena, size_t payload_size,
                 int64_t expected_entries = 1024);

  // The payload of the entry under `hash` that eq(payload) accepts;
  // otherwise a new entry under `hash`, whose payload init(payload) fills.
  template <typename Eq, typename Init>
  uint8_t* FindOrInsert(uint64_t hash, Eq eq, Init init);

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  int64_t num_slots() const { return static_cast<int64_t>(slots_.size()); }
  // Entries in insertion order; each points at its stored hash.
  const std::vector<uint8_t*>& entries() const { return entries_; }
  static uint64_t EntryHash(const uint8_t* entry) {
    uint64_t h;
    std::memcpy(&h, entry, sizeof(h));
    return h;
  }
  static uint8_t* EntryPayload(uint8_t* entry) { return entry + kHashSize; }

  // Charges the slot array against `tracker` (entries are charged through
  // the arena). Re-charged on growth.
  void SetMemoryTracker(MemoryTracker* tracker) {
    reservation_.Reset(tracker);
    reservation_.Set(slot_bytes());
  }
  int64_t slot_bytes() const {
    return static_cast<int64_t>(slots_.size() * sizeof(uint64_t));
  }

 private:
  static constexpr uint64_t kSaltMask = ~uint64_t{0xffffffff};

  // The hash's upper half in a slot's upper half; 0 becomes 1.
  static uint64_t SaltOf(uint64_t hash) {
    const uint64_t salt = hash & kSaltMask;
    return salt != 0 ? salt : uint64_t{1} << 32;
  }
  void Resize(size_t num_slots);

  Arena* arena_;
  size_t entry_size_;
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t max_entries_ = 0;  // 3/4 of the slots
  std::vector<uint8_t*> entries_;
  MemoryReservation reservation_;
};

template <typename Eq, typename Init>
uint8_t* GroupHashTable::FindOrInsert(uint64_t hash, Eq eq, Init init) {
  const uint64_t salt = SaltOf(hash);
  size_t pos = static_cast<size_t>(hash) & mask_;
  for (uint64_t slot; (slot = slots_[pos]) != 0; pos = (pos + 1) & mask_) {
    if ((slot & kSaltMask) != salt) continue;
    uint8_t* payload = entries_[static_cast<uint32_t>(slot)] + kHashSize;
    if (eq(static_cast<const uint8_t*>(payload))) return payload;
  }
  VSTORE_DCHECK(entries_.size() < (uint64_t{1} << 32));
  uint8_t* entry = arena_->Allocate(entry_size_);
  std::memcpy(entry, &hash, kHashSize);
  init(entry + kHashSize);
  slots_[pos] = salt | entries_.size();
  entries_.push_back(entry);
  if (entries_.size() > max_entries_) Resize(slots_.size() * 2);
  return entry + kHashSize;
}

}  // namespace vstore

#endif  // VSTORE_EXEC_HASH_TABLE_H_
