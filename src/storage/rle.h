#ifndef VSTORE_STORAGE_RLE_H_
#define VSTORE_STORAGE_RLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "storage/bit_pack.h"

namespace vstore {

// Run-length encoding of a code stream, stored as two bit-packed arrays:
// run values and run lengths (the paper's RLE stage, applied when the
// column has long runs — typically after row reordering).
struct RleEncoded {
  std::vector<uint8_t> values;   // bit-packed run values
  std::vector<uint8_t> lengths;  // bit-packed run lengths
  // Non-owning alternatives to the vectors above, pointing into a
  // memory-mapped checkpoint file (the owner keeps the mapping alive via
  // the segment's keepalive). The owned vector wins when non-empty so that
  // archival decompression can rehydrate over an external span.
  const uint8_t* values_extern = nullptr;
  size_t values_extern_size = 0;
  const uint8_t* lengths_extern = nullptr;
  size_t lengths_extern_size = 0;
  int64_t num_runs = 0;
  int64_t num_rows = 0;
  int value_bits = 0;
  int length_bits = 0;
  // In-memory acceleration only (derivable from lengths, not part of the
  // stored format): run_starts[r] is the first row of run r, enabling
  // O(log runs) positioning for batched scans. Rebuild with
  // RleCodec::BuildIndex after deserializing/decompressing `lengths`.
  std::vector<int64_t> run_starts;

  const uint8_t* values_data() const {
    return values.empty() ? values_extern : values.data();
  }
  size_t values_size() const {
    return values.empty() ? values_extern_size : values.size();
  }
  const uint8_t* lengths_data() const {
    return lengths.empty() ? lengths_extern : lengths.data();
  }
  size_t lengths_size() const {
    return lengths.empty() ? lengths_extern_size : lengths.size();
  }

  // Stored size; excludes the derived run index.
  int64_t TotalBytes() const {
    return static_cast<int64_t>(values_size() + lengths_size());
  }
};

// Walks the runs of an RLE stream by row, over the in-memory run_starts
// index: a run's code costs one BitPacker::Get and its bounds come from
// run_starts, so run lengths are never unpacked. Every reader of an RLE
// stream (decode, gathers, predicates decided per run) goes through it.
class RleRunWalker {
 public:
  // Positions on the run holding `row` (0 <= row < enc.num_rows).
  RleRunWalker(const RleEncoded& enc, int64_t row);

  // The current run's code.
  uint64_t code() const {
    return BitPacker::Get(values_, value_bits_, run_);
  }
  // The first row after the current run.
  int64_t end() const { return end_; }

  // Moves to the next run; the current one must not be the last.
  void Next() {
    ++run_;
    VSTORE_DCHECK(run_ < num_runs_);
    end_ = run_ + 1 < num_runs_ ? starts_[run_ + 1] : num_rows_;
  }
  // Moves forward to the run holding `row`, which must not lie before the
  // current run, reading no code on the way.
  void SkipTo(int64_t row) {
    while (end_ <= row) Next();
  }

 private:
  const uint8_t* values_;
  const int64_t* starts_;
  int value_bits_;
  int64_t num_runs_;
  int64_t num_rows_;
  int64_t run_ = 0;
  int64_t end_ = 0;
};

class RleCodec {
 public:
  // Counts the runs in codes[0, n) without encoding — used by the encoding
  // chooser to estimate RLE size cheaply.
  static int64_t CountRuns(const uint64_t* codes, int64_t n);

  // Estimated encoded bytes given run count and the maximum code value.
  static int64_t EstimateBytes(int64_t num_runs, int64_t n, uint64_t max_code);

  static RleEncoded Encode(const uint64_t* codes, int64_t n);

  // Recomputes run_starts from the packed lengths.
  static void BuildIndex(RleEncoded* enc);

  // Decodes rows [start, start+count) into out, one code read per run.
  static void Decode(const RleEncoded& enc, int64_t start, int64_t count,
                     uint64_t* out);

  // Full decode convenience.
  static std::vector<uint64_t> DecodeAll(const RleEncoded& enc);
};

}  // namespace vstore

#endif  // VSTORE_STORAGE_RLE_H_
