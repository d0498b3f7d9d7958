#ifndef VSTORE_STORAGE_SEGMENT_H_
#define VSTORE_STORAGE_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/encoding.h"
#include "storage/rle.h"
#include "types/compare_op.h"
#include "types/data_type.h"
#include "types/table_data.h"
#include "types/value.h"

namespace vstore {

// Per-segment metadata used for segment elimination: min/max over non-null
// rows plus the null count (the paper stores these in the segment directory).
struct SegmentStats {
  int64_t num_rows = 0;
  int64_t null_count = 0;
  bool has_values = false;  // at least one non-null row
  int64_t min_i64 = 0;
  int64_t max_i64 = 0;
  double min_d = 0;
  double max_d = 0;
  std::string min_s;
  std::string max_s;
};

// A pushed comparison `column OP constant` mapped onto one segment's codes:
// a row passes when (lo <= code < hi) != negate.
struct CodeRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool negate = false;
};

// One column's slice of a row group, fully encoded: value/dictionary codes,
// then RLE or bit packing, optionally archival-compressed (LZSS). Immutable
// after construction except for archival state transitions.
class ColumnSegment {
 public:
  VSTORE_DISALLOW_COPY_AND_ASSIGN(ColumnSegment);

  DataType type() const { return type_; }
  int64_t num_rows() const { return stats_.num_rows; }
  const SegmentStats& stats() const { return stats_; }
  EncodingKind encoding() const { return encoding_; }
  CodeKind code_kind() const { return venc_.code_kind; }
  const ValueEncoding& value_encoding() const { return venc_; }
  int bit_width() const { return bit_width_; }
  bool has_nulls() const { return stats_.null_count > 0; }

  // In-memory encoded size: packed codes + null bitmap + local dictionary.
  // The shared primary dictionary is accounted once at the table level.
  int64_t EncodedBytes() const;

  // Size when archival-compressed (0 if not archived).
  int64_t ArchivedBytes() const;

  // --- Decoding ------------------------------------------------------
  // All decoders require start+count <= num_rows(). Null rows receive an
  // unspecified value; callers consult DecodeValidity.

  void DecodeCodes(int64_t start, int64_t count, uint64_t* out) const;
  void DecodeInt64(int64_t start, int64_t count, int64_t* out) const;
  void DecodeDouble(int64_t start, int64_t count, double* out) const;
  // Widens codes already unpacked into values[0, count) (DecodeCodes into
  // the same buffer) to their values, in place. WidenDouble runs
  // WidenScaledCodes (an AVX2 body, bit-identical to the scalar divide).
  void WidenInt64(int64_t count, int64_t* values) const;
  void WidenDouble(int64_t count, double* values) const;
  // Maps already-decoded codes to their strings: out[i] = DictString(codes[i]).
  // A segment with no non-NULL row writes empty views and looks nothing up
  // (its null rows' code 0 may not exist in any dictionary yet).
  void CodesToStrings(const uint64_t* codes, int64_t count,
                      std::string_view* out) const;
  // out[i] = 1 if row start+i is non-null.
  void DecodeValidity(int64_t start, int64_t count, uint8_t* out) const;

  // Sparse decode for lazy materialization: fetches only rows[0..count)
  // (ascending segment row indices, repeats allowed) into out[0..count).
  // Bit-packed segments gather (BitPacker::Gather); RLE segments walk the
  // runs once, reading a code only for the runs that hold a row. The scan
  // uses this to decode payload columns only for rows that survived
  // predicates and bitmap filters.
  void GatherCodes(const int64_t* rows, int64_t count, uint64_t* out) const;
  void GatherInt64(const int64_t* rows, int64_t count, int64_t* out) const;
  void GatherDouble(const int64_t* rows, int64_t count, double* out) const;
  void GatherValidity(const int64_t* rows, int64_t count, uint8_t* out) const;

  Value GetValue(int64_t row) const;

  // --- Predicate support ----------------------------------------------
  // Conservative check from stats only: can any row match `op value`?
  bool MayMatch(CompareOp op, const Value& value) const;

  // The runs of an RLE segment over rows [start, start+count), in order:
  // run k has code codes[k] and ends at window offset ends[k] (exclusive;
  // clipped to the window, so the last end is count). Returns the number
  // of runs, at most count. One code read per run; run lengths are never
  // unpacked. Only valid for kRle segments.
  int64_t DecodeRuns(int64_t start, int64_t count, uint64_t* codes,
                     int64_t* ends) const;

  // Evaluates `op value` once per RLE run over rows [start, start+count),
  // writing per-row 0/1 verdicts without decompressing the run bodies —
  // cost is O(runs touched), not O(rows). Null rows receive an unspecified
  // verdict; callers AND with DecodeValidity. Only valid for kRle segments.
  void EvalPredicateOnRuns(CompareOp op, const Value& value, int64_t start,
                           int64_t count, uint8_t* verdict) const;

  // Maps `column op value` to a code range that decides it exactly for
  // every code this segment holds, as the decoded compare would (null rows
  // excepted: callers AND validity). The bounds come from binary searches
  // over the decode, so rounding, scale, NaN and a double constant against
  // an int column agree by construction. Returns false when there is none:
  // raw-double codes, dictionary order compares (the dictionary is not
  // sorted), code widths above 52 bits, or a NULL constant.
  bool PredicateCodeRange(CompareOp op, const Value& value,
                          CodeRange* range) const;

  // Maps an equality-comparable raw value to its code within this segment.
  // Returns false when the value provably does not occur (wrong scale,
  // below base, absent from dictionary) — the caller can skip all rows.
  bool ValueToCode(const Value& value, uint64_t* code) const;

  // Resolves a dictionary code to its string.
  std::string_view DictString(uint64_t code) const;

  // The per-segment local dictionary, or nullptr when every code resolves
  // through the shared primary dictionary. Introspection only
  // (sys.dictionaries); never mutated after the segment is built.
  const StringDictionary* local_dictionary() const { return local_dict_.get(); }

  // The column's shared primary dictionary (null for non-string segments).
  // When local_dictionary() is null, every code of this segment is a code
  // of this dictionary, which is what lets the scan hand codes upward.
  const StringDictionary* primary_dictionary() const {
    return primary_dict_.get();
  }

  // --- Archival compression (paper §4.3) -------------------------------
  // Compresses the packed buffers with LZSS and drops the plain copies.
  Status Archive();
  // Decompresses the packed buffers back into memory if needed. Thread-safe.
  Status EnsureResident() const;
  // Drops the resident plain copies (keeps the archive blob), so the next
  // scan pays decompression again — models reading a cold archived segment.
  void Evict() const;
  bool is_archived() const { return archived_; }
  bool is_resident() const {
    return resident_.load(std::memory_order_acquire);
  }

 private:
  friend class SegmentBuilder;
  friend class SegmentFileWriter;  // serializes the encoded buffers
  friend class SegmentFileReader;  // reconstructs segments over mmap spans
  ColumnSegment() = default;

  // True if codes are dictionary ids.
  bool dict_encoded() const { return venc_.code_kind == CodeKind::kDictionary; }

  // Encoded-buffer accessors: the owned vector wins when non-empty,
  // otherwise the external (memory-mapped checkpoint) span is used. All
  // decode paths go through these so a segment can be backed either way.
  const uint8_t* packed_data() const {
    return packed_.empty() ? packed_extern_ : packed_.data();
  }
  size_t packed_size() const {
    return packed_.empty() ? packed_extern_size_ : packed_.size();
  }
  const uint8_t* null_bitmap_data() const {
    return null_bitmap_.empty() ? null_bitmap_extern_ : null_bitmap_.data();
  }
  size_t null_bitmap_size() const {
    return null_bitmap_.empty() ? null_bitmap_extern_size_
                                : null_bitmap_.size();
  }
  bool has_null_bitmap() const { return null_bitmap_size() > 0; }

  DataType type_ = DataType::kInt64;
  EncodingKind encoding_ = EncodingKind::kBitPack;
  ValueEncoding venc_;
  int bit_width_ = 0;
  SegmentStats stats_;

  // Resident (plain) encoded form. Guarded by resident_mu_ when archival
  // is in play; plain segments never mutate these after construction.
  mutable std::vector<uint8_t> packed_;  // bit-packed codes (kBitPack)
  mutable RleEncoded rle_;               // run-length form (kRle)
  std::vector<uint8_t> null_bitmap_;     // empty when no nulls

  // Non-owning spans into a memory-mapped checkpoint file, used instead of
  // the vectors above for segments opened from disk; keepalive_ pins the
  // mapping for the segment's lifetime.
  mutable const uint8_t* packed_extern_ = nullptr;
  mutable size_t packed_extern_size_ = 0;
  const uint8_t* null_bitmap_extern_ = nullptr;
  size_t null_bitmap_extern_size_ = 0;
  std::shared_ptr<const void> keepalive_;

  // Dictionaries: primary shared across row groups, local per segment.
  std::shared_ptr<const StringDictionary> primary_dict_;
  std::unique_ptr<StringDictionary> local_dict_;
  int64_t primary_dict_size_ = 0;  // codes below this resolve via primary

  // Archival state. resident_ is written under resident_mu_ and read
  // without it by EnsureResident's fast path: the release store after the
  // buffers are filled pairs with that acquire load, so a reader that sees
  // true also sees the decompressed packed_/rle_.
  bool archived_ = false;
  mutable std::atomic<bool> resident_{true};
  mutable std::mutex resident_mu_;
  struct Blob {
    std::vector<uint8_t> compressed;
    size_t original_size = 0;
  };
  Blob arch_packed_;
  Blob arch_rle_values_;
  Blob arch_rle_lengths_;
};

// Builds a ColumnSegment from a slice of a ColumnData.
class SegmentBuilder {
 public:
  struct Options {
    // Max entries in the shared primary dictionary before overflowing to
    // per-segment local dictionaries.
    int64_t primary_dict_capacity = 1 << 20;
  };

  // Encodes rows [begin, end) of `column`. If `row_order` is non-null it
  // holds end-begin absolute row indices giving the storage order (used by
  // the row-reordering optimization). `primary_dict` must be non-null for
  // string columns and is shared with other segments of the same column.
  static std::unique_ptr<ColumnSegment> Build(
      const ColumnData& column, int64_t begin, int64_t end,
      const int64_t* row_order,
      const std::shared_ptr<StringDictionary>& primary_dict,
      const Options& options);
};

}  // namespace vstore

#endif  // VSTORE_STORAGE_SEGMENT_H_
