#ifndef VSTORE_EXEC_BLOOM_FILTER_H_
#define VSTORE_EXEC_BLOOM_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace vstore {

// Bitmap (Bloom) filter built by a hash join during its build phase and
// pushed down into the probe-side column store scan (paper §5.2). Keys are
// pre-hashed 64-bit values.
//
// Register-blocked layout: each key maps to one 64-byte block (a single
// cache line) and sets four bits inside it, so a probe costs one memory
// access — the property that makes pushing the filter into a scan cheap
// enough to pay off.
class BloomFilter {
 public:
  // An empty filter passes everything; call Init() to size it. Two-phase
  // construction lets a hash join hand the (not yet populated) filter to
  // the probe-side scan at plan time and fill it during its build phase.
  BloomFilter() = default;
  // Sized for a ~1% false-positive rate at `expected_keys` insertions.
  explicit BloomFilter(int64_t expected_keys) { Init(expected_keys); }
  VSTORE_DISALLOW_COPY_AND_ASSIGN(BloomFilter);

  void Init(int64_t expected_keys);

  // ORs `other`'s bits into this filter. Both filters must have been
  // Init()ed with the same expected key count (Init is deterministic, so
  // parallel join builds give each build thread a private filter sized from
  // the shared row count and fold them together here).
  void MergeFrom(const BloomFilter& other);

  void Insert(uint64_t hash) {
    Block& block = blocks_[BlockIndex(hash)];
    uint32_t h = static_cast<uint32_t>(hash);
    for (int i = 0; i < kProbes; ++i) {
      block.words[(h >> (i * 9)) & 7] |= uint64_t{1} << ((h >> (i * 9 + 3)) & 63);
    }
  }

  // Branch-free: the probes' bit tests are ANDed, not exited early, so a
  // scan probing a window of keys does not mispredict on each miss.
  bool MayContain(uint64_t hash) const {
    if (blocks_.empty()) return true;  // uninitialized: pass-through
    const Block& block = blocks_[BlockIndex(hash)];
    uint32_t h = static_cast<uint32_t>(hash);
    uint64_t hit = 1;
    for (int i = 0; i < kProbes; ++i) {
      hit &= block.words[(h >> (i * 9)) & 7] >> ((h >> (i * 9 + 3)) & 63);
    }
    return (hit & 1) != 0;
  }

  int64_t SizeBytes() const {
    return static_cast<int64_t>(blocks_.size() * sizeof(Block));
  }

 private:
  static constexpr int kProbes = 3;

  struct alignas(64) Block {
    uint64_t words[8] = {};
  };

  size_t BlockIndex(uint64_t hash) const {
    return static_cast<size_t>(hash >> 32) & (blocks_.size() - 1);
  }

  std::vector<Block> blocks_;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_BLOOM_FILTER_H_
