#include <gtest/gtest.h>

#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "exec/bloom_filter.h"

namespace vstore {
namespace {

TEST(BloomFilterTest, UninitializedPassesEverything) {
  BloomFilter filter;
  EXPECT_TRUE(filter.MayContain(123));
  EXPECT_TRUE(filter.MayContain(0));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(10000);
  Random rng(1);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(rng.Next());
  for (uint64_t k : keys) filter.Insert(k);
  for (uint64_t k : keys) EXPECT_TRUE(filter.MayContain(k));
}

TEST(BloomFilterTest, FalsePositiveRateBounded) {
  BloomFilter filter(10000);
  Random rng(2);
  for (int i = 0; i < 10000; ++i) filter.Insert(HashInt64(rng.Next()));
  // Probe with fresh keys from a disjoint stream.
  Random probe_rng(999);
  int64_t false_positives = 0;
  const int64_t probes = 100000;
  for (int64_t i = 0; i < probes; ++i) {
    if (filter.MayContain(HashInt64(probe_rng.Next() | (1ull << 62)))) {
      ++false_positives;
    }
  }
  // Target ~1%; allow generous slack.
  EXPECT_LT(false_positives, probes / 20);
}

TEST(BloomFilterTest, EmptyFilterRejectsAfterInit) {
  BloomFilter filter(100);
  EXPECT_FALSE(filter.MayContain(HashInt64(42)));
}

TEST(BloomFilterTest, SizeScalesWithExpectedKeys) {
  BloomFilter small(100);
  BloomFilter large(1000000);
  EXPECT_GT(large.SizeBytes(), small.SizeBytes());
}

// The filter's layout spelled out, with the early-exit probe MayContain
// used to have: SizeBytes() / 64 blocks of eight words; a hash picks its
// block by its high 32 bits and three bits by 9-bit slices of its low ones.
struct ShadowBloom {
  explicit ShadowBloom(const BloomFilter& filter)
      : words(static_cast<size_t>(filter.SizeBytes() / 8), 0) {}

  const uint64_t* Block(uint64_t hash) const {
    const size_t blocks = words.size() / 8;
    return &words[(static_cast<size_t>(hash >> 32) & (blocks - 1)) * 8];
  }
  void Insert(uint64_t hash) {
    uint64_t* block = const_cast<uint64_t*>(Block(hash));
    const uint32_t h = static_cast<uint32_t>(hash);
    for (int i = 0; i < 3; ++i) {
      block[(h >> (i * 9)) & 7] |= uint64_t{1} << ((h >> (i * 9 + 3)) & 63);
    }
  }
  bool MayContain(uint64_t hash) const {
    const uint64_t* block = Block(hash);
    const uint32_t h = static_cast<uint32_t>(hash);
    for (int i = 0; i < 3; ++i) {
      if ((block[(h >> (i * 9)) & 7] &
           (uint64_t{1} << ((h >> (i * 9 + 3)) & 63))) == 0) {
        return false;
      }
    }
    return true;
  }

  std::vector<uint64_t> words;
};

TEST(BloomFilterTest, BranchFreeProbeEqualsEarlyExitFormula) {
  for (int64_t keys : {int64_t{1}, int64_t{300}, int64_t{20000}}) {
    BloomFilter filter(keys);
    ShadowBloom shadow(filter);
    Random rng(static_cast<uint64_t>(keys));
    std::vector<uint64_t> probes;
    for (int64_t i = 0; i < keys; ++i) {
      const uint64_t hash = rng.Next();
      filter.Insert(hash);
      shadow.Insert(hash);
      probes.push_back(hash);
    }
    for (int i = 0; i < 100000; ++i) probes.push_back(rng.Next());
    int64_t hits = 0;
    for (uint64_t hash : probes) {
      ASSERT_EQ(filter.MayContain(hash), shadow.MayContain(hash))
          << "keys " << keys << " hash " << hash;
      hits += shadow.MayContain(hash);
    }
    // Both outcomes were exercised: every inserted hash hits, and most
    // fresh ones miss.
    EXPECT_GE(hits, keys);
    EXPECT_LT(hits, static_cast<int64_t>(probes.size()) / 2) << keys;
  }
}

TEST(BloomFilterTest, TinyExpectedCountStillWorks) {
  BloomFilter filter(1);
  filter.Insert(HashInt64(7));
  EXPECT_TRUE(filter.MayContain(HashInt64(7)));
}

}  // namespace
}  // namespace vstore
