#include "storage/rle.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/macros.h"
#include "storage/bit_pack.h"

namespace vstore {

RleRunWalker::RleRunWalker(const RleEncoded& enc, int64_t row)
    : values_(enc.values_data()),
      starts_(enc.run_starts.data()),
      value_bits_(enc.value_bits),
      num_runs_(enc.num_runs),
      num_rows_(enc.num_rows) {
  VSTORE_DCHECK(row >= 0 && row < enc.num_rows);
  VSTORE_DCHECK(static_cast<int64_t>(enc.run_starts.size()) == enc.num_runs);
  // The last run starting at or before `row`.
  run_ = static_cast<int64_t>(std::upper_bound(enc.run_starts.begin(),
                                               enc.run_starts.end(), row) -
                              enc.run_starts.begin()) -
         1;
  end_ = run_ + 1 < num_runs_ ? starts_[run_ + 1] : num_rows_;
}

int64_t RleCodec::CountRuns(const uint64_t* codes, int64_t n) {
  if (n == 0) return 0;
  int64_t runs = 1;
  for (int64_t i = 1; i < n; ++i) {
    runs += codes[i] != codes[i - 1];
  }
  return runs;
}

int64_t RleCodec::EstimateBytes(int64_t num_runs, int64_t n,
                                uint64_t max_code) {
  int value_bits = bit_util::BitsRequired(max_code);
  // Run lengths are bounded by n; assume the worst-case width since the
  // chooser only needs a close upper bound.
  int length_bits = bit_util::BitsRequired(static_cast<uint64_t>(n));
  return BitPacker::PackedBytes(num_runs, value_bits) +
         BitPacker::PackedBytes(num_runs, length_bits);
}

RleEncoded RleCodec::Encode(const uint64_t* codes, int64_t n) {
  RleEncoded enc;
  enc.num_rows = n;
  if (n == 0) return enc;

  std::vector<uint64_t> run_values;
  std::vector<uint64_t> run_lengths;
  uint64_t current = codes[0];
  uint64_t length = 1;
  uint64_t max_value = 0;
  uint64_t max_length = 0;
  for (int64_t i = 1; i <= n; ++i) {
    if (i < n && codes[i] == current) {
      ++length;
      continue;
    }
    run_values.push_back(current);
    run_lengths.push_back(length);
    max_value = std::max(max_value, current);
    max_length = std::max(max_length, length);
    if (i < n) {
      current = codes[i];
      length = 1;
    }
  }

  enc.num_runs = static_cast<int64_t>(run_values.size());
  enc.value_bits = bit_util::BitsRequired(max_value);
  enc.length_bits = bit_util::BitsRequired(max_length);
  enc.values = BitPacker::Pack(run_values.data(), enc.num_runs, enc.value_bits);
  enc.lengths =
      BitPacker::Pack(run_lengths.data(), enc.num_runs, enc.length_bits);
  BuildIndex(&enc);
  return enc;
}

void RleCodec::BuildIndex(RleEncoded* enc) {
  enc->run_starts.resize(static_cast<size_t>(enc->num_runs));
  int64_t row = 0;
  for (int64_t r = 0; r < enc->num_runs; ++r) {
    enc->run_starts[static_cast<size_t>(r)] = row;
    row += static_cast<int64_t>(
        BitPacker::Get(enc->lengths_data(), enc->length_bits, r));
  }
}

void RleCodec::Decode(const RleEncoded& enc, int64_t start, int64_t count,
                      uint64_t* out) {
  VSTORE_DCHECK(start >= 0 && start + count <= enc.num_rows);
  if (count == 0) return;
  RleRunWalker walker(enc, start);
  for (int64_t i = 0;; walker.Next()) {
    const uint64_t code = walker.code();
    const int64_t to = std::min(walker.end(), start + count) - start;
    for (; i < to; ++i) out[i] = code;
    if (i == count) return;
  }
}

std::vector<uint64_t> RleCodec::DecodeAll(const RleEncoded& enc) {
  std::vector<uint64_t> out(static_cast<size_t>(enc.num_rows));
  Decode(enc, 0, enc.num_rows, out.data());
  return out;
}

}  // namespace vstore
