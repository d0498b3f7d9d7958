#ifndef VSTORE_STORAGE_DICTIONARY_H_
#define VSTORE_STORAGE_DICTIONARY_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/macros.h"

namespace vstore {

// Dictionary of distinct string values with stable integer codes.
//
// Mirrors the paper's two-level scheme: each string column of a column
// store has one *primary* (global) dictionary shared by all row groups,
// holding values up to a size cap, plus per-row-group *local* dictionaries
// for values that arrive after the primary fills up. A segment's code c
// resolves to primary[c] when c < primary_size, else local[c - primary_size].
//
// Concurrency: the primary dictionary is shared by scans running lock-free
// against a table snapshot while the tuple mover appends new entries for a
// row group it is building off to the side. Get() is therefore wait-free:
// codes map into a ladder of fixed-size slot chunks whose addresses never
// move once allocated, and a reader only ever passes codes that were
// published (via the table's version install) before its snapshot was
// taken, so the slot contents are already visible to it. All mutation and
// hash lookups (GetOrInsert / Find) take an internal mutex; the column
// store additionally serializes all row-group-building operations, so at
// most one appender is active per dictionary at a time.
//
// Payload storage is chunked so string_views handed out by Get() remain
// valid across later inserts.
class StringDictionary {
 public:
  StringDictionary() = default;
  VSTORE_DISALLOW_COPY_AND_ASSIGN(StringDictionary);

  // Returns the code for `value`, inserting it if absent. Returns -1 if
  // inserting would exceed `capacity_limit` entries (caller falls back to a
  // local dictionary).
  int64_t GetOrInsert(std::string_view value, int64_t capacity_limit);

  // Returns the code for `value` or -1 if absent. Used to map equality
  // predicates onto encoded data without decoding.
  int64_t Find(std::string_view value) const;

  // Wait-free; safe against concurrent GetOrInsert as long as `code` was
  // assigned before the caller observed the segment referencing it.
  std::string_view Get(int64_t code) const {
    VSTORE_DCHECK(code >= 0 && code < size());
    int level;
    int64_t offset;
    SlotIndex(code, &level, &offset);
    return levels_[static_cast<size_t>(level)][static_cast<size_t>(offset)];
  }

  // out[i] = Get(codes[i]), under Get's contract for every code. Codes
  // below the first level's kBaseSlots index its one array directly; only
  // larger codes pay Get's slot ladder.
  void GetMany(const uint64_t* codes, int64_t count,
               std::string_view* out) const {
    const std::string_view* first = levels_[0].get();
    for (int64_t i = 0; i < count; ++i) {
      const uint64_t code = codes[i];
      VSTORE_DCHECK(code < static_cast<uint64_t>(size()));
      out[i] = code < static_cast<uint64_t>(kBaseSlots)
                   ? first[code]
                   : Get(static_cast<int64_t>(code));
    }
  }

  int64_t size() const { return size_.load(std::memory_order_acquire); }

  // Bytes used by payloads plus per-entry overhead — the dictionary's
  // contribution to a column's compressed size.
  int64_t MemoryBytes() const;

  // On-disk size under archival compression: the payload heap (with entry
  // lengths) run through the LZSS codec. Dictionaries stay resident in
  // plain form for reads — this models the stored representation the
  // paper's COLUMNSTORE_ARCHIVE compresses. Cached; recomputed after
  // inserts.
  int64_t ArchivedBytes() const;

 private:
  static constexpr size_t kChunkSize = 256 * 1024;
  // Slot level k holds (kBaseSlots << k) codes starting at
  // kBaseSlots * ((1 << k) - 1); chunk addresses are stable forever, which
  // is what makes Get() safe without a lock.
  static constexpr int64_t kBaseSlots = 1024;
  static constexpr int kMaxLevels = 44;

  static void SlotIndex(int64_t code, int* level, int64_t* offset) {
    uint64_t q = static_cast<uint64_t>(code) / kBaseSlots + 1;
    int lv = 63 - std::countl_zero(q);
    *level = lv;
    *offset = code - kBaseSlots * ((int64_t{1} << lv) - 1);
  }

  // Copies `value` into chunked stable storage. Requires mu_.
  std::string_view Intern(std::string_view value);

  mutable std::mutex mu_;

  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t chunk_used_ = 0;   // bytes used in the last chunk
  size_t chunk_cap_ = 0;    // capacity of the last chunk
  int64_t heap_bytes_ = 0;  // total payload bytes

  // code -> stable payload view, in leveled chunks (see kBaseSlots).
  std::array<std::unique_ptr<std::string_view[]>, kMaxLevels> levels_;
  std::atomic<int64_t> size_{0};

  std::unordered_map<std::string_view, int64_t> index_;

  mutable int64_t archived_bytes_ = -1;    // cache; -1 = stale
  mutable int64_t archived_at_size_ = -1;  // dictionary size when cached
};

}  // namespace vstore

#endif  // VSTORE_STORAGE_DICTIONARY_H_
