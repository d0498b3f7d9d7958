#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/dictionary.h"

namespace vstore {
namespace {

TEST(DictionaryTest, InsertAssignsSequentialCodes) {
  StringDictionary dict;
  EXPECT_EQ(dict.GetOrInsert("a", 100), 0);
  EXPECT_EQ(dict.GetOrInsert("b", 100), 1);
  EXPECT_EQ(dict.GetOrInsert("a", 100), 0);  // dedup
  EXPECT_EQ(dict.size(), 2);
}

TEST(DictionaryTest, GetReturnsPayload) {
  StringDictionary dict;
  dict.GetOrInsert("hello", 10);
  dict.GetOrInsert("", 10);
  EXPECT_EQ(dict.Get(0), "hello");
  EXPECT_EQ(dict.Get(1), "");
}

TEST(DictionaryTest, FindWithoutInsert) {
  StringDictionary dict;
  dict.GetOrInsert("x", 10);
  EXPECT_EQ(dict.Find("x"), 0);
  EXPECT_EQ(dict.Find("y"), -1);
  EXPECT_EQ(dict.size(), 1);  // Find must not insert
}

TEST(DictionaryTest, CapacityLimitRejectsOverflow) {
  StringDictionary dict;
  EXPECT_EQ(dict.GetOrInsert("a", 2), 0);
  EXPECT_EQ(dict.GetOrInsert("b", 2), 1);
  EXPECT_EQ(dict.GetOrInsert("c", 2), -1);  // full
  EXPECT_EQ(dict.GetOrInsert("a", 2), 0);   // existing still found
}

TEST(DictionaryTest, ViewsStableAcrossGrowth) {
  StringDictionary dict;
  dict.GetOrInsert("first-value", 1 << 20);
  std::string_view first = dict.Get(0);
  // Push enough payload to force many new chunks.
  std::string big(1000, 'z');
  for (int i = 0; i < 2000; ++i) {
    dict.GetOrInsert(big + std::to_string(i), 1 << 20);
  }
  EXPECT_EQ(first, "first-value");  // still valid and correct
}

TEST(DictionaryTest, PayloadLargerThanChunk) {
  StringDictionary dict;
  std::string huge(1 << 20, 'q');
  int64_t code = dict.GetOrInsert(huge, 10);
  EXPECT_EQ(dict.Get(code), huge);
}

TEST(DictionaryTest, MemoryBytesGrowsWithContent) {
  StringDictionary dict;
  int64_t empty = dict.MemoryBytes();
  dict.GetOrInsert(std::string(1000, 'a'), 10);
  EXPECT_GE(dict.MemoryBytes(), empty + 1000);
}

TEST(DictionaryTest, ManyDistinctValuesRoundTrip) {
  StringDictionary dict;
  Random rng(3);
  std::vector<std::string> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back("val_" + std::to_string(rng.Next() % 100000) + "_" +
                     std::to_string(i));
  }
  std::vector<int64_t> codes;
  for (const auto& v : values) codes.push_back(dict.GetOrInsert(v, 1 << 20));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.Get(codes[i]), values[i]);
    EXPECT_EQ(dict.Find(values[i]), codes[i]);
  }
}

TEST(DictionaryTest, GetManyEqualsGetAcrossSlotLevels) {
  // Codes 0-8000 cross the slot levels' boundaries at 1024, 3072 and 7168.
  StringDictionary dict;
  std::vector<uint64_t> codes;
  for (int64_t i = 0; i <= 8000; ++i) {
    ASSERT_EQ(dict.GetOrInsert("v" + std::to_string(i), 1 << 20), i);
    codes.push_back(static_cast<uint64_t>(i));
  }
  // Descending as well as ascending codes, so lookups jump between levels.
  codes.insert(codes.end(), codes.rbegin(), codes.rend());
  std::vector<std::string_view> out(codes.size());
  dict.GetMany(codes.data(), static_cast<int64_t>(codes.size()), out.data());
  for (size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(out[i], dict.Get(static_cast<int64_t>(codes[i])))
        << "code " << codes[i];
  }
}

}  // namespace
}  // namespace vstore
