#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/rle.h"

namespace vstore {
namespace {

TEST(RleTest, EmptyInput) {
  RleEncoded enc = RleCodec::Encode(nullptr, 0);
  EXPECT_EQ(enc.num_runs, 0);
  EXPECT_EQ(enc.num_rows, 0);
  EXPECT_TRUE(RleCodec::DecodeAll(enc).empty());
}

TEST(RleTest, SingleRun) {
  std::vector<uint64_t> codes(1000, 42);
  RleEncoded enc = RleCodec::Encode(codes.data(), 1000);
  EXPECT_EQ(enc.num_runs, 1);
  EXPECT_EQ(RleCodec::DecodeAll(enc), codes);
  // One run of a 6-bit value with a 10-bit length: tiny.
  EXPECT_LT(enc.TotalBytes(), 32);
}

TEST(RleTest, AlternatingWorstCase) {
  std::vector<uint64_t> codes(100);
  for (size_t i = 0; i < 100; ++i) codes[i] = i % 2;
  RleEncoded enc = RleCodec::Encode(codes.data(), 100);
  EXPECT_EQ(enc.num_runs, 100);
  EXPECT_EQ(RleCodec::DecodeAll(enc), codes);
}

TEST(RleTest, CountRunsMatchesEncode) {
  Random rng(5);
  std::vector<uint64_t> codes;
  for (int run = 0; run < 50; ++run) {
    uint64_t value = rng.Next() % 10;
    int64_t length = rng.Uniform(1, 20);
    for (int64_t i = 0; i < length; ++i) codes.push_back(value);
  }
  int64_t n = static_cast<int64_t>(codes.size());
  RleEncoded enc = RleCodec::Encode(codes.data(), n);
  EXPECT_EQ(enc.num_runs, RleCodec::CountRuns(codes.data(), n));
  EXPECT_EQ(RleCodec::DecodeAll(enc), codes);
}

TEST(RleTest, PartialDecodeAcrossRunBoundaries) {
  // Runs: 5x0, 5x1, 5x2, ...
  std::vector<uint64_t> codes;
  for (uint64_t v = 0; v < 20; ++v) {
    for (int i = 0; i < 5; ++i) codes.push_back(v);
  }
  RleEncoded enc = RleCodec::Encode(codes.data(), 100);
  for (int64_t start = 0; start < 100; start += 7) {
    int64_t count = std::min<int64_t>(13, 100 - start);
    std::vector<uint64_t> out(static_cast<size_t>(count));
    RleCodec::Decode(enc, start, count, out.data());
    for (int64_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[static_cast<size_t>(i)],
                codes[static_cast<size_t>(start + i)]);
    }
  }
}

TEST(RleTest, EstimateIsUpperBoundOnActual) {
  Random rng(6);
  std::vector<uint64_t> codes(5000);
  for (auto& c : codes) c = rng.Next() % 4;  // short runs
  int64_t n = static_cast<int64_t>(codes.size());
  int64_t runs = RleCodec::CountRuns(codes.data(), n);
  uint64_t max_code = 3;
  RleEncoded enc = RleCodec::Encode(codes.data(), n);
  EXPECT_GE(RleCodec::EstimateBytes(runs, n, max_code), enc.TotalBytes());
}

TEST(RleTest, ZeroDecodeCountIsNoop) {
  std::vector<uint64_t> codes(10, 1);
  RleEncoded enc = RleCodec::Encode(codes.data(), 10);
  RleCodec::Decode(enc, 5, 0, nullptr);  // must not crash
}

// Runs of 1-7 rows over random codes; the walker and Decode must agree
// with DecodeAll wherever a window starts or ends.
std::vector<uint64_t> ShortRuns(uint64_t seed, int64_t runs) {
  Random rng(seed);
  std::vector<uint64_t> codes;
  for (int64_t r = 0; r < runs; ++r) {
    const uint64_t value = rng.Next() % 1000;
    codes.insert(codes.end(), static_cast<size_t>(rng.Uniform(1, 7)), value);
  }
  return codes;
}

// The (code, end) pairs a walk over rows [start, end) yields, ends clipped
// to the window, as the scan reads them.
std::vector<std::pair<uint64_t, int64_t>> Walk(const RleEncoded& enc,
                                               int64_t start, int64_t end) {
  std::vector<std::pair<uint64_t, int64_t>> runs;
  RleRunWalker walker(enc, start);
  for (;; walker.Next()) {
    runs.emplace_back(walker.code(), std::min(walker.end(), end));
    if (walker.end() >= end) return runs;
  }
}

// The same pairs from the plain code stream.
std::vector<std::pair<uint64_t, int64_t>> ExpectedRuns(
    const std::vector<uint64_t>& codes, int64_t start, int64_t end) {
  std::vector<std::pair<uint64_t, int64_t>> runs;
  for (int64_t i = start; i < end; ++i) {
    const uint64_t c = codes[static_cast<size_t>(i)];
    if (i + 1 == end || codes[static_cast<size_t>(i + 1)] != c) {
      runs.emplace_back(c, i + 1);
    }
  }
  return runs;
}

TEST(RleRunWalkerTest, WindowsStartingAndEndingMidRun) {
  // Runs: 3x5, 4x9, 2x5, 6x1 (rows 0-2, 3-6, 7-8, 9-14).
  std::vector<uint64_t> codes = {5, 5, 5, 9, 9, 9, 9, 5, 5, 1, 1, 1, 1, 1, 1};
  const int64_t n = static_cast<int64_t>(codes.size());
  RleEncoded enc = RleCodec::Encode(codes.data(), n);
  ASSERT_EQ(enc.num_runs, 4);
  for (int64_t start = 0; start < n; ++start) {
    for (int64_t end = start + 1; end <= n; ++end) {
      EXPECT_EQ(Walk(enc, start, end), ExpectedRuns(codes, start, end))
          << "window [" << start << ", " << end << ")";
    }
  }
  // Mid-run start: row 4 lies in the 9-run, which ends at row 7.
  RleRunWalker walker(enc, 4);
  EXPECT_EQ(walker.code(), 9u);
  EXPECT_EQ(walker.end(), 7);
}

TEST(RleRunWalkerTest, OneRunSegment) {
  std::vector<uint64_t> codes(37, 12);
  RleEncoded enc = RleCodec::Encode(codes.data(), 37);
  ASSERT_EQ(enc.num_runs, 1);
  for (int64_t row : {int64_t{0}, int64_t{18}, int64_t{36}}) {
    RleRunWalker walker(enc, row);
    EXPECT_EQ(walker.code(), 12u);
    EXPECT_EQ(walker.end(), 37);
    walker.SkipTo(36);  // stays on the only run
    EXPECT_EQ(walker.end(), 37);
  }
}

TEST(RleRunWalkerTest, LastRunEndsAtTheRowCount) {
  const std::vector<uint64_t> codes = ShortRuns(11, 40);
  const int64_t n = static_cast<int64_t>(codes.size());
  RleEncoded enc = RleCodec::Encode(codes.data(), n);
  RleRunWalker walker(enc, 0);
  walker.SkipTo(n - 1);
  EXPECT_EQ(walker.code(), codes.back());
  EXPECT_EQ(walker.end(), n);
  // SkipTo steps over runs without moving past the one holding the row.
  RleRunWalker skipper(enc, 0);
  for (int64_t row = 0; row < n; row += 5) {
    skipper.SkipTo(row);
    EXPECT_EQ(skipper.code(), codes[static_cast<size_t>(row)]) << row;
    EXPECT_GT(skipper.end(), row);
    EXPECT_LE(skipper.end(), n);
  }
}

TEST(RleTest, DecodeEqualsDecodeAllOnRandomWindows) {
  const std::vector<uint64_t> codes = ShortRuns(12, 500);
  const int64_t n = static_cast<int64_t>(codes.size());
  RleEncoded enc = RleCodec::Encode(codes.data(), n);
  EXPECT_EQ(RleCodec::DecodeAll(enc), codes);
  Random rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t start = rng.Uniform(0, n - 1);
    const int64_t count = rng.Uniform(1, n - start);
    std::vector<uint64_t> out(static_cast<size_t>(count));
    RleCodec::Decode(enc, start, count, out.data());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), codes.begin() + start))
        << "window [" << start << ", " << start + count << ")";
  }
}

// Property sweep over run-length structure.
class RleRunLengthTest : public ::testing::TestWithParam<int> {};

TEST_P(RleRunLengthTest, RoundTrip) {
  const int run_length = GetParam();
  std::vector<uint64_t> codes;
  for (uint64_t v = 0; v < 64; ++v) {
    for (int i = 0; i < run_length; ++i) codes.push_back(v * 3);
  }
  int64_t n = static_cast<int64_t>(codes.size());
  RleEncoded enc = RleCodec::Encode(codes.data(), n);
  EXPECT_EQ(enc.num_runs, 64);
  EXPECT_EQ(RleCodec::DecodeAll(enc), codes);
}

INSTANTIATE_TEST_SUITE_P(RunLengths, RleRunLengthTest,
                         ::testing::Values(1, 2, 3, 7, 64, 1000));

}  // namespace
}  // namespace vstore
