#ifndef VSTORE_EXEC_HASH_TABLE_H_
#define VSTORE_EXEC_HASH_TABLE_H_

#include <cstdint>
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
  // Serializes a column subset of batch row `row` into `dst`: serialized
  // column k takes its value from batch column `batch_cols[k]` (hash
  // aggregation's new-group path).
  void WriteKeysFromBatch(uint8_t* dst, const Batch& batch, int64_t row,
                          const std::vector<int>& batch_cols,
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

  // Compares a serialized row's keys against a batch row's keys (null keys
  // never compare equal).
  bool KeysEqualBatch(const uint8_t* row, const std::vector<int>& row_keys,
                      const Batch& batch, int64_t i,
                      const std::vector<int>& batch_keys) const;

 private:
  size_t slot_offset(int c) const { return offsets_[static_cast<size_t>(c)]; }

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

// Chained hash table over serialized rows. Each entry is a row prefixed by
// a 16-byte header: [next pointer : 8][hash : 8]. Rows live in an Arena
// owned by the caller; the table stores only bucket heads.
class SerializedRowHashTable {
 public:
  explicit SerializedRowHashTable(int64_t expected_rows = 1024);

  static constexpr size_t kHeaderSize = 16;

  // `entry` points at the 16-byte header followed by the row payload.
  void Insert(uint8_t* entry, uint64_t hash);

  // Walks the chain for `hash`; fn(payload) is called for entries with a
  // matching stored hash (caller verifies key equality). Return false from
  // fn to stop early.
  template <typename Fn>
  void ForEachCandidate(uint64_t hash, Fn fn) const {
    if (buckets_.empty()) return;
    const uint8_t* entry =
        buckets_[static_cast<size_t>(hash) & (buckets_.size() - 1)];
    while (entry != nullptr) {
      uint64_t entry_hash;
      std::memcpy(&entry_hash, entry + 8, sizeof(entry_hash));
      const uint8_t* next;
      std::memcpy(&next, entry, sizeof(next));
      if (entry_hash == hash) {
        if (!fn(entry + kHeaderSize)) return;
      }
      entry = next;
    }
  }

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

}  // namespace vstore

#endif  // VSTORE_EXEC_HASH_TABLE_H_
