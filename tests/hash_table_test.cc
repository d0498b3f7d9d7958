#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/memory_tracker.h"
#include "exec/hash_table.h"

namespace vstore {
namespace {

// A GroupHashTable whose payload is one int64 key, looked up under a hash
// the test chooses, so collisions can be forced.
class KeyTable {
 public:
  explicit KeyTable(int64_t expected = 1024)
      : table_(&arena_, sizeof(int64_t), expected) {}

  // The key's payload, inserting it when absent; *inserted says which.
  uint8_t* FindOrInsert(int64_t key, uint64_t hash, bool* inserted) {
    *inserted = false;
    return table_.FindOrInsert(
        hash, [key](const uint8_t* p) { return Load(p) == key; },
        [key, inserted](uint8_t* p) {
          std::memcpy(p, &key, sizeof(key));
          *inserted = true;
        });
  }
  static int64_t Load(const uint8_t* p) {
    int64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  GroupHashTable& table() { return table_; }

 private:
  Arena arena_;
  GroupHashTable table_;
};

TEST(GroupHashTableTest, KeysCollidingOnSlotAndSaltStayDistinct) {
  KeyTable t;
  // Same hash: same first slot and same salt, so only the key tells the
  // entries apart. An upper half of 0 exercises the never-0 salt too.
  const uint64_t same_hash = 0x0000000000000123ULL;
  std::vector<uint8_t*> payloads;
  for (int64_t k = 0; k < 6; ++k) {
    bool inserted;
    payloads.push_back(t.FindOrInsert(k * 1000, same_hash, &inserted));
    EXPECT_TRUE(inserted) << k;
  }
  // A different hash whose upper half is 1 shares the salt a 0 upper half
  // maps to, and the same first slot.
  bool inserted;
  uint8_t* other = t.FindOrInsert(77, (uint64_t{1} << 32) | 0x123, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(t.table().size(), 7);
  for (int64_t k = 0; k < 6; ++k) {
    EXPECT_EQ(t.FindOrInsert(k * 1000, same_hash, &inserted),
              payloads[static_cast<size_t>(k)]);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(KeyTable::Load(payloads[static_cast<size_t>(k)]), k * 1000);
  }
  EXPECT_EQ(t.FindOrInsert(77, (uint64_t{1} << 32) | 0x123, &inserted), other);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(t.table().size(), 7);
}

TEST(GroupHashTableTest, ProbingWrapsPastTheLastSlot) {
  KeyTable t(/*expected=*/1);
  const int64_t slots = t.table().num_slots();
  ASSERT_EQ(slots, 16);
  // Every key starts its probe at the last slot, with its own salt; the
  // 2nd..5th land in slots 0..3 after wrapping.
  auto last_slot_hash = [&](int64_t k) {
    return (static_cast<uint64_t>(k + 1) << 32) |
           static_cast<uint64_t>(slots - 1);
  };
  std::vector<uint8_t*> payloads;
  for (int64_t k = 0; k < 5; ++k) {
    bool inserted;
    payloads.push_back(t.FindOrInsert(k, last_slot_hash(k), &inserted));
    EXPECT_TRUE(inserted);
  }
  // Keys whose probes start in the wrapped-into slots still find room and
  // are told apart from the wrapped entries.
  for (int64_t k = 5; k < 8; ++k) {
    bool inserted;
    payloads.push_back(
        t.FindOrInsert(k, static_cast<uint64_t>(k - 5), &inserted));
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(t.table().num_slots(), slots);  // no growth: the wrap was used
  for (int64_t k = 0; k < 8; ++k) {
    bool inserted;
    const uint64_t hash =
        k < 5 ? last_slot_hash(k) : static_cast<uint64_t>(k - 5);
    EXPECT_EQ(t.FindOrInsert(k, hash, &inserted),
              payloads[static_cast<size_t>(k)]);
    EXPECT_FALSE(inserted);
  }
}

TEST(GroupHashTableTest, DoublingsKeepEveryEntryFindable) {
  MemoryTracker tracker("table", "operator", nullptr);
  KeyTable t(/*expected=*/1);
  t.table().SetMemoryTracker(&tracker);
  const int64_t start_slots = t.table().num_slots();
  const int64_t n = 20000;
  int doublings = 0;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t before = t.table().num_slots();
    bool inserted;
    t.FindOrInsert(k, HashInt64(static_cast<uint64_t>(k)), &inserted);
    ASSERT_TRUE(inserted);
    if (t.table().num_slots() == before) continue;
    ASSERT_EQ(t.table().num_slots(), before * 2);
    ++doublings;
    // Never more than 3/4 full, and every entry so far survives the move.
    EXPECT_LE(t.table().size() * 4, t.table().num_slots() * 3);
    for (int64_t j = 0; j <= k; ++j) {
      t.FindOrInsert(j, HashInt64(static_cast<uint64_t>(j)), &inserted);
      ASSERT_FALSE(inserted) << "key " << j << " lost at doubling "
                             << doublings;
    }
  }
  EXPECT_GE(doublings, 10);
  EXPECT_EQ(t.table().num_slots(), start_slots << doublings);
  EXPECT_EQ(tracker.current(), t.table().num_slots() * 8);

  // The entry list keeps insertion order and each entry's hash.
  ASSERT_EQ(t.table().size(), n);
  for (int64_t k = 0; k < n; ++k) {
    uint8_t* entry = t.table().entries()[static_cast<size_t>(k)];
    EXPECT_EQ(GroupHashTable::EntryHash(entry),
              HashInt64(static_cast<uint64_t>(k)));
    ASSERT_EQ(KeyTable::Load(GroupHashTable::EntryPayload(entry)), k);
  }
}

}  // namespace
}  // namespace vstore
