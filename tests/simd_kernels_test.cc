// Golden tests for the SIMD kernels: every kernel runs on identical inputs
// under simd::ForceLevelForTesting(kScalar) and (when the host has AVX2)
// ForceLevelForTesting(kAVX2), and the outputs must match byte for byte —
// including unaligned tails (n not a multiple of the vector width), all-NULL
// batches, special values (NaN, ±0.0, ±inf, INT64_MIN/MAX) and RLE runs
// spanning batch boundaries. On machines without AVX2 both passes run the
// scalar body, so the suite still executes everywhere; on AVX2 CI the forced
// scalar pass keeps that body covered too.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/simd.h"
#include "exec/expr_kernels.h"
#include "storage/bit_pack.h"
#include "storage/encoding.h"
#include "storage/segment.h"
#include "test_util.h"

namespace vstore {
namespace {

using testing_util::IntColumn;

bool HaveAvx2() { return simd::Detected() == simd::Level::kAVX2; }

// Runs `body` once per available level and hands the collected outputs to
// `check(scalar_out, simd_out)`; without AVX2 the two runs are identical by
// construction and the comparison is trivially true.
template <typename T, typename Body>
void ForBothLevels(int64_t n, Body body, std::vector<T>* scalar_out,
                   std::vector<T>* simd_out) {
  simd::ForceLevelForTesting(simd::Level::kScalar);
  scalar_out->assign(static_cast<size_t>(n), T{});
  body(scalar_out->data());
  simd::ForceLevelForTesting(HaveAvx2() ? simd::Level::kAVX2
                                        : simd::Level::kScalar);
  simd_out->assign(static_cast<size_t>(n), T{});
  body(simd_out->data());
  simd::ForceLevelForTesting(simd::Detected());
}

const std::vector<CompareOp>& AllOps() {
  static const std::vector<CompareOp>* ops = new std::vector<CompareOp>{
      CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
      CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  return *ops;
}

std::vector<int64_t> EdgyInts(int64_t n, uint64_t seed) {
  static const int64_t kEdges[] = {0,
                                   1,
                                   -1,
                                   7,
                                   std::numeric_limits<int64_t>::max(),
                                   std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::min() + 1};
  Random rng(seed);
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = rng.Uniform(0, 2) == 0 ? kEdges[rng.Uniform(0, 6)]
                               : static_cast<int64_t>(rng.Next());
  }
  return v;
}

std::vector<double> EdgyDoubles(int64_t n, uint64_t seed) {
  static const double kEdges[] = {0.0,
                                  -0.0,
                                  1.5,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::max()};
  Random rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = rng.Uniform(0, 2) == 0 ? kEdges[rng.Uniform(0, 6)]
                               : rng.NextDouble() * 100 - 50;
  }
  return v;
}

// n = 1..40 covers every AVX2 tail length several times over.
constexpr int64_t kMaxN = 40;

TEST(SimdKernelsTest, CmpI64BothPathsIdentical) {
  for (int64_t n = 1; n <= kMaxN; ++n) {
    auto a = EdgyInts(n, 11 * static_cast<uint64_t>(n));
    auto b = EdgyInts(n, 13 * static_cast<uint64_t>(n));
    for (CompareOp op : AllOps()) {
      std::vector<int64_t> s, v;
      ForBothLevels<int64_t>(
          n, [&](int64_t* out) { kernels::CmpI64(op, a.data(), b.data(), n, out); },
          &s, &v);
      EXPECT_EQ(s, v) << "op " << CompareOpName(op) << " n " << n;
    }
  }
}

TEST(SimdKernelsTest, CmpF64BothPathsIdenticalIncludingNaN) {
  for (int64_t n = 1; n <= kMaxN; ++n) {
    auto a = EdgyDoubles(n, 17 * static_cast<uint64_t>(n));
    auto b = EdgyDoubles(n, 19 * static_cast<uint64_t>(n));
    for (CompareOp op : AllOps()) {
      std::vector<int64_t> s, v;
      ForBothLevels<int64_t>(
          n, [&](int64_t* out) { kernels::CmpF64(op, a.data(), b.data(), n, out); },
          &s, &v);
      EXPECT_EQ(s, v) << "op " << CompareOpName(op) << " n " << n;
    }
  }
}

// NaN pairs give three-way cmp == 0, so NaN == x is TRUE under the engine
// contract; pin that here so neither path "fixes" it unilaterally.
TEST(SimdKernelsTest, NaNComparesAsEqualOnBothPaths) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> a{nan, nan, 1.0};
  std::vector<double> b{nan, 2.0, nan};
  std::vector<int64_t> s, v;
  ForBothLevels<int64_t>(
      3, [&](int64_t* out) { kernels::CmpF64(CompareOp::kEq, a.data(), b.data(), 3, out); },
      &s, &v);
  EXPECT_EQ(s, (std::vector<int64_t>{1, 1, 1}));
  EXPECT_EQ(v, s);
}

TEST(SimdKernelsTest, ArithI64BothPathsIdenticalWithOverflowAndDivZero) {
  static const ArithOp kOps[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                                 ArithOp::kDiv};
  for (int64_t n = 1; n <= kMaxN; ++n) {
    auto a = EdgyInts(n, 23 * static_cast<uint64_t>(n));
    auto b = EdgyInts(n, 29 * static_cast<uint64_t>(n));
    // Force a few zero and -1 divisors to hit div-by-zero and INT64_MIN/-1.
    for (int64_t i = 0; i < n; i += 3) b[static_cast<size_t>(i)] = 0;
    for (int64_t i = 1; i < n; i += 3) b[static_cast<size_t>(i)] = -1;
    for (ArithOp op : kOps) {
      std::vector<int64_t> sr, vr;
      std::vector<uint8_t> sv, vv;
      simd::ForceLevelForTesting(simd::Level::kScalar);
      sr.assign(static_cast<size_t>(n), 0);
      sv.assign(static_cast<size_t>(n), 1);
      kernels::ArithI64(op, a.data(), b.data(), n, sr.data(), sv.data());
      simd::ForceLevelForTesting(HaveAvx2() ? simd::Level::kAVX2
                                            : simd::Level::kScalar);
      vr.assign(static_cast<size_t>(n), 0);
      vv.assign(static_cast<size_t>(n), 1);
      kernels::ArithI64(op, a.data(), b.data(), n, vr.data(), vv.data());
      simd::ForceLevelForTesting(simd::Detected());
      EXPECT_EQ(sr, vr) << "n " << n;
      EXPECT_EQ(sv, vv) << "n " << n;
    }
  }
}

TEST(SimdKernelsTest, ArithF64BothPathsBitIdentical) {
  static const ArithOp kOps[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                                 ArithOp::kDiv};
  for (int64_t n = 1; n <= kMaxN; ++n) {
    auto a = EdgyDoubles(n, 31 * static_cast<uint64_t>(n));
    auto b = EdgyDoubles(n, 37 * static_cast<uint64_t>(n));
    for (int64_t i = 0; i < n; i += 4) b[static_cast<size_t>(i)] = 0.0;
    for (ArithOp op : kOps) {
      std::vector<double> sr, vr;
      std::vector<uint8_t> sv, vv;
      simd::ForceLevelForTesting(simd::Level::kScalar);
      sr.assign(static_cast<size_t>(n), 0);
      sv.assign(static_cast<size_t>(n), 1);
      kernels::ArithF64(op, a.data(), b.data(), n, sr.data(), sv.data());
      simd::ForceLevelForTesting(HaveAvx2() ? simd::Level::kAVX2
                                            : simd::Level::kScalar);
      vr.assign(static_cast<size_t>(n), 0);
      vv.assign(static_cast<size_t>(n), 1);
      kernels::ArithF64(op, a.data(), b.data(), n, vr.data(), vv.data());
      simd::ForceLevelForTesting(simd::Detected());
      EXPECT_EQ(sv, vv) << "n " << n;
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(sr[static_cast<size_t>(i)]),
                  std::bit_cast<uint64_t>(vr[static_cast<size_t>(i)]))
            << "n " << n << " i " << i;
      }
    }
  }
}

TEST(SimdKernelsTest, BoolKernelsBothPathsIdentical) {
  for (int64_t n = 1; n <= kMaxN; ++n) {
    auto a = EdgyInts(n, 41 * static_cast<uint64_t>(n));
    auto b = EdgyInts(n, 43 * static_cast<uint64_t>(n));
    for (BoolOp op : {BoolOp::kAnd, BoolOp::kOr}) {
      std::vector<int64_t> s, v;
      ForBothLevels<int64_t>(
          n,
          [&](int64_t* out) { kernels::BoolAndOr(op, a.data(), b.data(), n, out); },
          &s, &v);
      EXPECT_EQ(s, v) << "n " << n;
    }
    std::vector<int64_t> s, v;
    ForBothLevels<int64_t>(
        n, [&](int64_t* out) { kernels::BoolNot(a.data(), n, out); }, &s, &v);
    EXPECT_EQ(s, v) << "n " << n;
  }
}

TEST(SimdKernelsTest, ConstMaskKernelsBothPathsIdentical) {
  for (int64_t n = 1; n <= kMaxN; ++n) {
    auto ai = EdgyInts(n, 47 * static_cast<uint64_t>(n));
    auto ad = EdgyDoubles(n, 53 * static_cast<uint64_t>(n));
    for (CompareOp op : AllOps()) {
      std::vector<uint8_t> s, v;
      ForBothLevels<uint8_t>(
          n, [&](uint8_t* out) { kernels::CmpI64ConstMask(op, ai.data(), 7, n, out); },
          &s, &v);
      EXPECT_EQ(s, v) << "int op " << CompareOpName(op) << " n " << n;
      ForBothLevels<uint8_t>(
          n,
          [&](uint8_t* out) { kernels::CmpF64ConstMask(op, ad.data(), 1.5, n, out); },
          &s, &v);
      EXPECT_EQ(s, v) << "dbl op " << CompareOpName(op) << " n " << n;
    }
  }
}

TEST(SimdKernelsTest, AndCodeRangeBothPathsMatchTheFormula) {
  const uint64_t kMaxCode = (uint64_t{1} << 52) - 1;
  struct Range {
    uint64_t lo, hi;
  };
  // Ordinary, one-code, empty, inverted (empty) and full ranges, and
  // ranges at the top of the 52-bit code space.
  const Range ranges[] = {{5, 9},
                          {0, 1},
                          {7, 7},
                          {9, 5},
                          {0, kMaxCode + 1},
                          {kMaxCode, kMaxCode + 1},
                          {1, kMaxCode}};
  Random rng(61);
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(900);
  for (const Range& r : ranges) {
    // Codes at and beside both bounds, the extremes, and random codes.
    const uint64_t picks[] = {r.lo - 1, r.lo, r.hi - 1, r.hi, 0, kMaxCode, 3};
    for (int64_t n : lengths) {
      std::vector<uint64_t> codes(static_cast<size_t>(n));
      std::vector<uint8_t> valid(static_cast<size_t>(n));
      std::vector<uint8_t> active(static_cast<size_t>(n));
      for (size_t i = 0; i < codes.size(); ++i) {
        codes[i] = rng.Uniform(0, 3) == 0 ? rng.Next() & kMaxCode
                                          : picks[rng.Uniform(0, 6)] & kMaxCode;
        valid[i] = rng.Uniform(0, 4) != 0;  // some NULLs
        active[i] = rng.Uniform(0, 5) != 0;
      }
      for (bool negate : {false, true}) {
        std::vector<uint8_t> s = active, v = active;
        simd::ForceLevelForTesting(simd::Level::kScalar);
        kernels::AndCodeRange(codes.data(), valid.data(), r.lo, r.hi, negate,
                              n, s.data());
        simd::ForceLevelForTesting(HaveAvx2() ? simd::Level::kAVX2
                                              : simd::Level::kScalar);
        kernels::AndCodeRange(codes.data(), valid.data(), r.lo, r.hi, negate,
                              n, v.data());
        simd::ForceLevelForTesting(simd::Detected());
        EXPECT_EQ(s, v) << "lo " << r.lo << " hi " << r.hi << " n " << n;
        for (size_t i = 0; i < codes.size(); ++i) {
          const bool inside = r.lo <= codes[i] && codes[i] < r.hi;
          EXPECT_EQ(s[i], active[i] & valid[i] & (inside != negate))
              << "lo " << r.lo << " hi " << r.hi << " code " << codes[i];
        }
      }
    }
  }
}

TEST(SimdKernelsTest, HashCombineColumnMatchesScalarFormulaAndBothPaths) {
  for (int64_t n = 1; n <= kMaxN; ++n) {
    auto a = EdgyInts(n, 59 * static_cast<uint64_t>(n));
    const uint64_t* bits = reinterpret_cast<const uint64_t*>(a.data());
    std::vector<uint8_t> valid(static_cast<size_t>(n), 1);
    // Mix of null lanes, plus one all-NULL batch per size.
    for (int64_t i = 0; i < n; i += 5) valid[static_cast<size_t>(i)] = 0;
    const uint64_t kTag = 0x9ae16a3b2f90404fULL;
    const uint64_t kSeed = 0x51ed270b;
    auto run = [&](uint64_t* out) {
      kernels::FillU64(kSeed, n, out);
      kernels::HashCombineColumn(bits, valid.data(), kTag, n, out);
    };
    std::vector<uint64_t> s, v;
    ForBothLevels<uint64_t>(n, run, &s, &v);
    EXPECT_EQ(s, v) << "n " << n;
    // Golden reference: the exact scalar formula.
    for (int64_t i = 0; i < n; ++i) {
      uint64_t expect = HashCombine(
          kSeed, valid[static_cast<size_t>(i)]
                     ? HashInt64(bits[i])
                     : kTag);
      EXPECT_EQ(s[static_cast<size_t>(i)], expect) << "n " << n << " i " << i;
    }
    std::fill(valid.begin(), valid.end(), uint8_t{0});  // all-NULL batch
    ForBothLevels<uint64_t>(n, run, &s, &v);
    EXPECT_EQ(s, v);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(s[static_cast<size_t>(i)], HashCombine(kSeed, kTag));
    }
  }
}

TEST(SimdKernelsTest, BitUnpackBothPathsMatchRandomAccessAllWidths) {
  Random rng(7);
  for (int bw = 1; bw <= 64; ++bw) {
    const int64_t n = 133;  // odd size: vector body + scalar tail
    std::vector<uint64_t> values(static_cast<size_t>(n));
    const uint64_t mask =
        bw == 64 ? ~uint64_t{0} : (uint64_t{1} << bw) - 1;
    for (auto& v : values) v = rng.Next() & mask;
    auto packed = BitPacker::Pack(values.data(), n, bw);
    for (int64_t start : {int64_t{0}, int64_t{1}, int64_t{37}}) {
      const int64_t count = n - start;
      std::vector<uint64_t> s, v;
      ForBothLevels<uint64_t>(
          count,
          [&](uint64_t* out) {
            BitPacker::Unpack(packed.data(), bw, start, count, out);
          },
          &s, &v);
      EXPECT_EQ(s, v) << "bw " << bw << " start " << start;
      for (int64_t i = 0; i < count; ++i) {
        EXPECT_EQ(s[static_cast<size_t>(i)],
                  BitPacker::Get(packed.data(), bw, start + i))
            << "bw " << bw << " start " << start << " i " << i;
        EXPECT_EQ(s[static_cast<size_t>(i)],
                  values[static_cast<size_t>(start + i)]);
      }
    }
  }
}

TEST(SimdKernelsTest, BitGatherBothPathsMatchRandomAccessAllWidths) {
  Random rng(9);
  for (int bw = 0; bw <= 64; ++bw) {
    const int64_t n = 301;
    std::vector<uint64_t> values(static_cast<size_t>(n));
    const uint64_t mask =
        bw == 64 ? ~uint64_t{0} : (uint64_t{1} << bw) - 1;
    for (auto& v : values) v = rng.Next() & mask;
    auto packed = BitPacker::Pack(values.data(), n, bw);
    // Ascending with repeats, then random order, with the last value (read
    // through the buffer's slack) in both; odd counts leave a scalar tail.
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < n; i += rng.Uniform(0, 3)) indices.push_back(i);
    for (int i = 0; i < 99; ++i) indices.push_back(rng.Uniform(0, n - 1));
    indices.push_back(n - 1);
    const int64_t m = static_cast<int64_t>(indices.size());
    std::vector<uint64_t> s, v;
    ForBothLevels<uint64_t>(
        m,
        [&](uint64_t* out) {
          BitPacker::Gather(packed.data(), bw, indices.data(), m, out);
        },
        &s, &v);
    EXPECT_EQ(s, v) << "bw " << bw;
    for (int64_t i = 0; i < m; ++i) {
      const int64_t index = indices[static_cast<size_t>(i)];
      ASSERT_EQ(s[static_cast<size_t>(i)],
                BitPacker::Get(packed.data(), bw, index))
          << "bw " << bw << " index " << index;
      ASSERT_EQ(s[static_cast<size_t>(i)], values[static_cast<size_t>(index)]);
    }
  }
}

TEST(SimdKernelsTest, WidenScaledCodesBothPathsBitIdentical) {
  // Each code widens to DecodeDoubleCode's double, bit for bit, on both
  // paths: scales 10^0-10^6, negative and positive bases, and bases at
  // +-2^51, where some codes leave the AVX2 body's exact range and the
  // whole call must fall back to the scalar loop.
  constexpr int64_t k51 = int64_t{1} << 51;
  struct Case {
    int64_t base;
    int bit_width;
  };
  const Case cases[] = {{0, 20},          {-1000000, 24}, {-7, 3},
                        {123456789, 30},  {-k51 + 1, 12}, {k51 - 4096, 12},
                        {k51 - 4095, 12}, {-k51, 12},     {k51, 8},
                        {-k51 - 5, 40},   {0, 51},        {1, 51},
                        {-(k51 >> 1), 50}};
  Random rng(10);
  for (int scale = 0; scale <= 6; ++scale) {
    for (const Case& c : cases) {
      ValueEncoding venc;
      venc.code_kind = CodeKind::kValueScaled;
      venc.scale = scale;
      venc.base = c.base;
      venc.dbl_pow10 = std::pow(10.0, scale);
      const int64_t n = 203;
      const uint64_t mask = (uint64_t{1} << c.bit_width) - 1;
      std::vector<uint64_t> codes(static_cast<size_t>(n));
      for (auto& code : codes) code = rng.Next() & mask;
      codes[0] = 0;
      codes[1] = mask;  // the largest code the width holds
      std::vector<uint64_t> s, v;
      ForBothLevels<uint64_t>(
          n,
          [&](uint64_t* out) {
            std::copy(codes.begin(), codes.end(), out);
            WidenScaledCodes(venc, c.bit_width, n,
                             reinterpret_cast<double*>(out));
          },
          &s, &v);
      EXPECT_EQ(s, v) << "scale " << scale << " base " << c.base;
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(s[static_cast<size_t>(i)],
                  std::bit_cast<uint64_t>(DecodeDoubleCode(
                      codes[static_cast<size_t>(i)], venc)))
            << "scale " << scale << " base " << c.base << " i " << i;
      }
    }
  }
}

TEST(SimdKernelsTest, EvalPredicateOnRunsMatchesDecodedCompare) {
  // Runs sized so they straddle the 900-row batch boundary: 7 values in
  // runs of 700 rows each — run 1 spans rows 0..699, batch 1 ends at 899
  // mid-run-2, etc.
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 7; ++v) {
    values.insert(values.end(), 700, v * 3 - 5);
  }
  const int64_t n = static_cast<int64_t>(values.size());
  ColumnData col = IntColumn(values);
  auto seg = SegmentBuilder::Build(col, 0, n, nullptr, nullptr,
                                   SegmentBuilder::Options{});
  ASSERT_EQ(seg->encoding(), EncodingKind::kRle);

  std::vector<int64_t> decoded(static_cast<size_t>(n));
  seg->DecodeInt64(0, n, decoded.data());
  for (CompareOp op : AllOps()) {
    const Value target = Value::Int64(7);
    // Walk in batch-sized windows, including a ragged final window.
    for (int64_t start = 0; start < n; start += 900) {
      const int64_t count = std::min<int64_t>(900, n - start);
      std::vector<uint8_t> verdict(static_cast<size_t>(count), 0xee);
      seg->EvalPredicateOnRuns(op, target, start, count, verdict.data());
      for (int64_t i = 0; i < count; ++i) {
        int64_t v = decoded[static_cast<size_t>(start + i)];
        uint8_t expect = ApplyCompare(op, (v > 7) - (v < 7)) ? 1 : 0;
        EXPECT_EQ(verdict[static_cast<size_t>(i)], expect)
            << CompareOpName(op) << " start " << start << " i " << i;
      }
    }
  }
}

TEST(SimdKernelsTest, ForceLevelRoundTrips) {
  simd::ForceLevelForTesting(simd::Level::kScalar);
  EXPECT_EQ(simd::Active(), simd::Level::kScalar);
  simd::ForceLevelForTesting(simd::Detected());
  EXPECT_EQ(simd::Active(), simd::Detected());
}

}  // namespace
}  // namespace vstore
