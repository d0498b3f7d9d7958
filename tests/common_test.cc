#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/arena.h"
#include "common/bit_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/json_util.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace vstore {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad column");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad column");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status FailingHelper() { return Status::Internal("boom"); }
Status PropagationHelper() {
  VSTORE_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}
Result<int> ValueHelper() { return 5; }
Status AssignHelper(int* out) {
  VSTORE_ASSIGN_OR_RETURN(int v, ValueHelper());
  *out = v;
  return Status::OK();
}

TEST(ResultTest, Macros) {
  EXPECT_EQ(PropagationHelper().code(), StatusCode::kInternal);
  int out = 0;
  ASSERT_TRUE(AssignHelper(&out).ok());
  EXPECT_EQ(out, 5);
}

// --- bit_util -----------------------------------------------------------------

TEST(BitUtilTest, BitsRequired) {
  EXPECT_EQ(bit_util::BitsRequired(0), 0);
  EXPECT_EQ(bit_util::BitsRequired(1), 1);
  EXPECT_EQ(bit_util::BitsRequired(2), 2);
  EXPECT_EQ(bit_util::BitsRequired(255), 8);
  EXPECT_EQ(bit_util::BitsRequired(256), 9);
  EXPECT_EQ(bit_util::BitsRequired(UINT64_MAX), 64);
}

TEST(BitUtilTest, SetGetClear) {
  std::vector<uint8_t> bits(16, 0);
  bit_util::SetBit(bits.data(), 3);
  bit_util::SetBit(bits.data(), 77);
  EXPECT_TRUE(bit_util::GetBit(bits.data(), 3));
  EXPECT_TRUE(bit_util::GetBit(bits.data(), 77));
  EXPECT_FALSE(bit_util::GetBit(bits.data(), 4));
  bit_util::ClearBit(bits.data(), 3);
  EXPECT_FALSE(bit_util::GetBit(bits.data(), 3));
}

TEST(BitUtilTest, CountSetBitsCrossesWordBoundaries) {
  std::vector<uint8_t> bits(32, 0);
  std::set<int64_t> positions = {0, 1, 63, 64, 65, 127, 128, 200, 255};
  for (int64_t p : positions) bit_util::SetBit(bits.data(), p);
  EXPECT_EQ(bit_util::CountSetBits(bits.data(), 256),
            static_cast<int64_t>(positions.size()));
  // Counting a prefix excludes later bits.
  EXPECT_EQ(bit_util::CountSetBits(bits.data(), 64), 3);
}

TEST(BitmapTest, ResizeAndCount) {
  bit_util::Bitmap bm(100);
  EXPECT_EQ(bm.size(), 100);
  EXPECT_EQ(bm.CountSet(), 0);
  bm.Set(0);
  bm.Set(99);
  EXPECT_EQ(bm.CountSet(), 2);
  bm.Clear(0);
  EXPECT_EQ(bm.CountSet(), 1);
}

TEST(BitmapTest, InitialValueTrueTrimsTail) {
  bit_util::Bitmap bm(13, /*initial_value=*/true);
  EXPECT_EQ(bm.CountSet(), 13);  // bits beyond 13 must not count
}

// --- Hash ------------------------------------------------------------------------

TEST(HashTest, DeterministicAndSeedSensitive) {
  std::string data = "the quick brown fox";
  EXPECT_EQ(Hash64(data), Hash64(data));
  EXPECT_NE(Hash64(data, 1), Hash64(data, 2));
}

TEST(HashTest, DifferentInputsDiffer) {
  EXPECT_NE(Hash64("a"), Hash64("b"));
  EXPECT_NE(Hash64(""), Hash64("a"));
  EXPECT_NE(HashInt64(1), HashInt64(2));
}

TEST(HashTest, AllLengthBucketsCovered) {
  // Exercise the 32-byte stripe loop, the 8/4-byte tails, and byte tail.
  std::string data(100, 'x');
  std::set<uint64_t> hashes;
  for (size_t len = 0; len <= 100; ++len) {
    hashes.insert(Hash64(data.data(), len));
  }
  EXPECT_EQ(hashes.size(), 101u);  // all distinct
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// --- Arena ------------------------------------------------------------------------

TEST(ArenaTest, AlignmentHonored) {
  Arena arena(128);
  for (size_t align : {1, 2, 4, 8, 16, 64}) {
    uint8_t* p = arena.Allocate(13, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
  }
}

TEST(ArenaTest, LargeAllocationGetsOwnBlock) {
  Arena arena(64);
  uint8_t* p = arena.Allocate(1 << 20);
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[(1 << 20) - 1] = 2;  // writable end to end
  EXPECT_GE(arena.bytes_allocated(), static_cast<size_t>(1 << 20));
}

TEST(ArenaTest, CopyStringStable) {
  Arena arena(64);
  std::string_view a = arena.CopyString("hello");
  // Force new blocks.
  for (int i = 0; i < 100; ++i) arena.Allocate(128);
  EXPECT_EQ(a, "hello");
}

TEST(ArenaTest, ResetReclaims) {
  Arena arena(1024);
  arena.Allocate(512);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Usable after reset.
  uint8_t* p = arena.Allocate(16);
  ASSERT_NE(p, nullptr);
}

// A reused arena reserves what a fresh one does: block growth restarts
// after the kept first block instead of doubling across resets.
TEST(ArenaTest, ResetRestartsBlockGrowth) {
  Arena arena;  // 64 KiB first block
  size_t first_cycle = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (int i = 0; i < 100; ++i) arena.Allocate(1024);  // 100 KiB
    if (cycle == 0) first_cycle = arena.bytes_reserved();
    EXPECT_LE(arena.bytes_reserved(), first_cycle) << "cycle " << cycle;
    arena.Reset();
  }
  EXPECT_EQ(first_cycle, size_t{192 * 1024});
}

// --- Random ------------------------------------------------------------------------

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformWithinBounds) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  // Degenerate single-point range.
  EXPECT_EQ(rng.Uniform(3, 3), 3);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, SkewFavorsSmallValues) {
  ZipfGenerator zipf(100, 1.2, 3);
  int64_t small = 0, total = 20000;
  for (int64_t i = 0; i < total; ++i) {
    if (zipf.Next() < 10) ++small;
  }
  // With s=1.2 the first 10 of 100 values should dominate.
  EXPECT_GT(small, total / 2);
}

TEST(ZipfTest, ValuesInRange) {
  ZipfGenerator zipf(5, 0.5, 4);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = zipf.Next();
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
  }
}

// --- ThreadPool ------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
}

// --- JSON validator --------------------------------------------------------
// Every JSON renderer in the tree (EXPLAIN ANALYZE, metrics, Chrome traces,
// slow-query capture) is gated on this checker, so the checker itself needs
// evidence on both sides: real documents pass, and each class of sloppy
// hand-rolled output a renderer could emit is rejected.

TEST(JsonValidateTest, AcceptsValidDocuments) {
  for (const char* doc : {
           "{}",
           "[]",
           "null",
           "true",
           "-12.5e+3",
           "\"plain\"",
           "\"esc \\\" \\\\ \\n \\u00e9\"",
           "{\"a\":1,\"b\":[1,2,{\"c\":null}],\"d\":\"x\"}",
           "  [ 1 , 2.0 , \"three\" ]  ",
           "{\"nested\":{\"deep\":[[[{\"ok\":true}]]]}}",
       }) {
    std::string error;
    EXPECT_TRUE(JsonValidate(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonValidateTest, RejectsMalformedDocuments) {
  struct Case {
    const char* doc;
    const char* why;
  };
  for (const Case& c : {
           Case{"", "empty document"},
           Case{"{\"a\":1,}", "trailing comma in object"},
           Case{"[1,2,]", "trailing comma in array"},
           Case{"[1,,2]", "double comma"},
           Case{"{a:1}", "unquoted key"},
           Case{"{\"a\" 1}", "missing colon"},
           Case{"{\"a\":1", "unterminated object"},
           Case{"[1,2", "unterminated array"},
           Case{"\"raw \n newline\"", "unescaped control char in string"},
           Case{"\"bad \\x escape\"", "invalid escape"},
           Case{"\"bad \\u12g4\"", "non-hex unicode escape"},
           Case{"\"unterminated", "unterminated string"},
           Case{"01", "leading zero"},
           Case{"1.", "digit required after decimal point"},
           Case{"1e", "digit required in exponent"},
           Case{"truthy", "invalid literal"},
           Case{"{} extra", "trailing garbage"},
           Case{"[1] [2]", "two documents"},
       }) {
    std::string error;
    EXPECT_FALSE(JsonValidate(c.doc, &error)) << c.why << ": " << c.doc;
    EXPECT_FALSE(error.empty()) << c.why;
    EXPECT_NE(error.find("offset"), std::string::npos) << c.why;
  }
}

TEST(JsonValidateTest, RejectsHostileNestingDepth) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  std::string error;
  EXPECT_FALSE(JsonValidate(deep, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(JsonValidateTest, EscapeRoundTripsThroughValidator) {
  // JsonEscape's output inside quotes must always validate, including for
  // strings full of quotes, backslashes, and control bytes.
  std::string hostile = "quote\" back\\slash \n\t\r \x01\x02 end";
  std::string doc = "{";
  AppendJsonString("key\"evil", &doc);
  doc += ":";
  AppendJsonString(hostile, &doc);
  doc += "}";
  std::string error;
  EXPECT_TRUE(JsonValidate(doc, &error)) << error << "\n" << doc;
}

}  // namespace
}  // namespace vstore
