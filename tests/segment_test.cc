#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/random.h"
#include "exec/expr_kernels.h"
#include "storage/segment.h"
#include "test_util.h"

namespace vstore {
namespace {

using testing_util::DoubleColumn;
using testing_util::IntColumn;
using testing_util::StringColumn;

SegmentBuilder::Options DefaultOptions() { return SegmentBuilder::Options{}; }

std::unique_ptr<ColumnSegment> BuildInt(const std::vector<int64_t>& values,
                                        DataType type = DataType::kInt64) {
  ColumnData col = IntColumn(values, type);
  return SegmentBuilder::Build(col, 0, col.size(), nullptr, nullptr,
                               DefaultOptions());
}

TEST(SegmentTest, IntRoundTripAndStats) {
  auto seg = BuildInt({5, 3, 9, 3, 7});
  EXPECT_EQ(seg->num_rows(), 5);
  EXPECT_EQ(seg->stats().min_i64, 3);
  EXPECT_EQ(seg->stats().max_i64, 9);
  EXPECT_EQ(seg->stats().null_count, 0);
  std::vector<int64_t> out(5);
  seg->DecodeInt64(0, 5, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{5, 3, 9, 3, 7}));
}

TEST(SegmentTest, PartialDecode) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 1000; ++i) values.push_back(i * 2);
  auto seg = BuildInt(values);
  std::vector<int64_t> out(10);
  seg->DecodeInt64(500, 10, out.data());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], (500 + i) * 2);
}

TEST(SegmentTest, NullsPreserved) {
  ColumnData col(DataType::kInt64);
  col.AppendInt64(1);
  col.AppendNull();
  col.AppendInt64(3);
  auto seg = SegmentBuilder::Build(col, 0, 3, nullptr, nullptr,
                                   DefaultOptions());
  EXPECT_EQ(seg->stats().null_count, 1);
  EXPECT_TRUE(seg->has_nulls());
  uint8_t validity[3];
  seg->DecodeValidity(0, 3, validity);
  EXPECT_EQ(validity[0], 1);
  EXPECT_EQ(validity[1], 0);
  EXPECT_EQ(validity[2], 1);
  EXPECT_TRUE(seg->GetValue(1).is_null());
  EXPECT_EQ(seg->GetValue(2).int64(), 3);
}

TEST(SegmentTest, AllNullSegment) {
  ColumnData col(DataType::kInt64);
  col.AppendNull();
  col.AppendNull();
  auto seg = SegmentBuilder::Build(col, 0, 2, nullptr, nullptr,
                                   DefaultOptions());
  EXPECT_FALSE(seg->stats().has_values);
  // No predicate can match an all-null segment.
  EXPECT_FALSE(seg->MayMatch(CompareOp::kEq, Value::Int64(0)));
}

TEST(SegmentTest, ConstantColumnEncodesToZeroBits) {
  // All-equal values: base offsetting yields code 0 everywhere, so a 0-bit
  // pack beats even RLE.
  std::vector<int64_t> values(10000, 7);
  auto seg = BuildInt(values);
  EXPECT_EQ(seg->encoding(), EncodingKind::kBitPack);
  EXPECT_EQ(seg->bit_width(), 0);
  EXPECT_LT(seg->EncodedBytes(), 16);
  std::vector<int64_t> out(10000);
  seg->DecodeInt64(0, 10000, out.data());
  EXPECT_EQ(out, values);
}

TEST(SegmentTest, RleChosenForRunHeavyData) {
  // Long runs over a multi-valued domain: RLE beats 4-bit packing.
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 10; ++v) {
    values.insert(values.end(), 2000, v);
  }
  auto seg = BuildInt(values);
  EXPECT_EQ(seg->encoding(), EncodingKind::kRle);
  EXPECT_LT(seg->EncodedBytes(), 128);
  std::vector<int64_t> out(values.size());
  seg->DecodeInt64(0, static_cast<int64_t>(values.size()), out.data());
  EXPECT_EQ(out, values);
}

TEST(SegmentTest, BitPackChosenForHighEntropyData) {
  Random rng(1);
  std::vector<int64_t> values;
  for (int i = 0; i < 10000; ++i) values.push_back(rng.Uniform(0, 1 << 20));
  auto seg = BuildInt(values);
  EXPECT_EQ(seg->encoding(), EncodingKind::kBitPack);
  std::vector<int64_t> out(10000);
  seg->DecodeInt64(0, 10000, out.data());
  EXPECT_EQ(out, values);
}

TEST(SegmentTest, DoubleScaledRoundTrip) {
  ColumnData col = DoubleColumn({1.25, 3.50, 0.75, 99.00});
  auto seg = SegmentBuilder::Build(col, 0, 4, nullptr, nullptr,
                                   DefaultOptions());
  EXPECT_EQ(seg->code_kind(), CodeKind::kValueScaled);
  std::vector<double> out(4);
  seg->DecodeDouble(0, 4, out.data());
  EXPECT_EQ(out, (std::vector<double>{1.25, 3.50, 0.75, 99.00}));
  EXPECT_DOUBLE_EQ(seg->stats().min_d, 0.75);
  EXPECT_DOUBLE_EQ(seg->stats().max_d, 99.0);
}

TEST(SegmentTest, DoubleRawRoundTrip) {
  ColumnData col = DoubleColumn({0.1234567890123, 7.77777777777});
  auto seg = SegmentBuilder::Build(col, 0, 2, nullptr, nullptr,
                                   DefaultOptions());
  EXPECT_EQ(seg->code_kind(), CodeKind::kRawDouble);
  std::vector<double> out(2);
  seg->DecodeDouble(0, 2, out.data());
  EXPECT_DOUBLE_EQ(out[0], 0.1234567890123);
  EXPECT_DOUBLE_EQ(out[1], 7.77777777777);
}

TEST(SegmentTest, StringDictionaryRoundTrip) {
  auto dict = std::make_shared<StringDictionary>();
  ColumnData col = StringColumn({"red", "green", "red", "blue", "green"});
  auto seg =
      SegmentBuilder::Build(col, 0, 5, nullptr, dict, DefaultOptions());
  EXPECT_EQ(seg->code_kind(), CodeKind::kDictionary);
  std::vector<uint64_t> codes(5);
  std::vector<std::string_view> out(5);
  seg->DecodeCodes(0, 5, codes.data());
  seg->CodesToStrings(codes.data(), 5, out.data());
  EXPECT_EQ(out[0], "red");
  EXPECT_EQ(out[3], "blue");
  EXPECT_EQ(seg->stats().min_s, "blue");
  EXPECT_EQ(seg->stats().max_s, "red");
  EXPECT_EQ(dict->size(), 3);
}

TEST(SegmentTest, LocalDictionaryOverflow) {
  auto dict = std::make_shared<StringDictionary>();
  SegmentBuilder::Options options;
  options.primary_dict_capacity = 2;
  ColumnData col = StringColumn({"a", "b", "c", "d", "a", "c"});
  auto seg = SegmentBuilder::Build(col, 0, 6, nullptr, dict, options);
  EXPECT_EQ(dict->size(), 2);  // primary capped
  std::vector<uint64_t> codes(6);
  std::vector<std::string_view> out(6);
  seg->DecodeCodes(0, 6, codes.data());
  seg->CodesToStrings(codes.data(), 6, out.data());
  EXPECT_EQ(out[2], "c");
  EXPECT_EQ(out[3], "d");
  EXPECT_EQ(out[5], "c");
  // ValueToCode resolves both primary and local values.
  uint64_t code;
  EXPECT_TRUE(seg->ValueToCode(Value::String("a"), &code));
  EXPECT_TRUE(seg->ValueToCode(Value::String("d"), &code));
  EXPECT_FALSE(seg->ValueToCode(Value::String("zzz"), &code));
}

TEST(SegmentTest, SharedPrimaryDictAcrossSegments) {
  auto dict = std::make_shared<StringDictionary>();
  ColumnData col1 = StringColumn({"x", "y"});
  ColumnData col2 = StringColumn({"y", "z"});
  auto seg1 =
      SegmentBuilder::Build(col1, 0, 2, nullptr, dict, DefaultOptions());
  auto seg2 =
      SegmentBuilder::Build(col2, 0, 2, nullptr, dict, DefaultOptions());
  EXPECT_EQ(dict->size(), 3);  // x, y, z shared
  std::vector<uint64_t> codes(2);
  std::vector<std::string_view> out(2);
  seg1->DecodeCodes(0, 2, codes.data());
  seg1->CodesToStrings(codes.data(), 2, out.data());
  EXPECT_EQ(out[1], "y");
  seg2->DecodeCodes(0, 2, codes.data());
  seg2->CodesToStrings(codes.data(), 2, out.data());
  EXPECT_EQ(out[0], "y");
  EXPECT_EQ(out[1], "z");
}

TEST(SegmentTest, RowOrderPermutationApplied) {
  ColumnData col = IntColumn({10, 30, 20});
  int64_t order[] = {2, 0, 1};  // store as 20, 10, 30
  auto seg =
      SegmentBuilder::Build(col, 0, 3, order, nullptr, DefaultOptions());
  std::vector<int64_t> out(3);
  seg->DecodeInt64(0, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{20, 10, 30}));
}

TEST(SegmentTest, MayMatchEliminationMatrix) {
  auto seg = BuildInt({10, 20, 30});
  // Eq
  EXPECT_TRUE(seg->MayMatch(CompareOp::kEq, Value::Int64(20)));
  EXPECT_FALSE(seg->MayMatch(CompareOp::kEq, Value::Int64(5)));
  EXPECT_FALSE(seg->MayMatch(CompareOp::kEq, Value::Int64(35)));
  // Lt / Le
  EXPECT_FALSE(seg->MayMatch(CompareOp::kLt, Value::Int64(10)));
  EXPECT_TRUE(seg->MayMatch(CompareOp::kLe, Value::Int64(10)));
  // Gt / Ge
  EXPECT_FALSE(seg->MayMatch(CompareOp::kGt, Value::Int64(30)));
  EXPECT_TRUE(seg->MayMatch(CompareOp::kGe, Value::Int64(30)));
  // Ne only eliminated for constant segments.
  EXPECT_TRUE(seg->MayMatch(CompareOp::kNe, Value::Int64(20)));
  auto constant = BuildInt({7, 7, 7});
  EXPECT_FALSE(constant->MayMatch(CompareOp::kNe, Value::Int64(7)));
  // NULL literals never match.
  EXPECT_FALSE(seg->MayMatch(CompareOp::kEq, Value::Null(DataType::kInt64)));
}

TEST(SegmentTest, MayMatchIntColumnAgainstDoubleConstant) {
  // Every integer 10..49. A DOUBLE constant compares in double space, as
  // the row-by-row compares do, never as a truncated integer.
  std::vector<int64_t> values;
  for (int64_t v = 10; v <= 49; ++v) values.push_back(v);
  auto seg = BuildInt(values);
  const std::vector<CompareOp> ops = {CompareOp::kEq, CompareOp::kNe,
                                      CompareOp::kLt, CompareOp::kLe,
                                      CompareOp::kGt, CompareOp::kGe};
  // Below, at the minimum, inside between two values, equal to an inner
  // integer, at the maximum and above.
  for (double t : {-3.5, 0.0, 5.5, 10.0, 24.5, 24.0, 49.0, 49.5, 60.0}) {
    for (CompareOp op : ops) {
      bool any = false;
      for (int64_t v : values) {
        const double d = static_cast<double>(v);
        any = any || ApplyCompare(op, (d > t) - (d < t));
      }
      // Equality on a value between two integers is the one case the
      // min/max bounds cannot rule out.
      const bool conservative = op == CompareOp::kEq && t == 24.5;
      EXPECT_EQ(seg->MayMatch(op, Value::Double(t)), any || conservative)
          << CompareOpName(op) << " " << t;
    }
  }
}

TEST(SegmentTest, MayMatchStrings) {
  auto dict = std::make_shared<StringDictionary>();
  ColumnData col = StringColumn({"banana", "cherry", "date"});
  auto seg =
      SegmentBuilder::Build(col, 0, 3, nullptr, dict, DefaultOptions());
  EXPECT_TRUE(seg->MayMatch(CompareOp::kEq, Value::String("cherry")));
  EXPECT_FALSE(seg->MayMatch(CompareOp::kEq, Value::String("apple")));
  EXPECT_FALSE(seg->MayMatch(CompareOp::kGt, Value::String("date")));
}

TEST(SegmentTest, ValueToCodeIntScale) {
  auto seg = BuildInt({100, 200, 300});
  uint64_t code;
  ASSERT_TRUE(seg->ValueToCode(Value::Int64(200), &code));
  std::vector<uint64_t> codes(3);
  seg->DecodeCodes(0, 3, codes.data());
  EXPECT_EQ(code, codes[1]);
  EXPECT_FALSE(seg->ValueToCode(Value::Int64(150), &code));
}

TEST(SegmentTest, ArchiveRoundTrip) {
  Random rng(2);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) values.push_back(rng.Uniform(0, 100));
  auto seg = BuildInt(values);
  int64_t plain_bytes = seg->EncodedBytes();
  ASSERT_TRUE(seg->Archive().ok());
  EXPECT_TRUE(seg->is_archived());
  EXPECT_FALSE(seg->is_resident());
  EXPECT_GT(seg->ArchivedBytes(), 0);
  // Sizes account the original encoded size even when evicted.
  EXPECT_EQ(seg->EncodedBytes(), plain_bytes);

  // Decoding transparently makes it resident again.
  std::vector<int64_t> out(20000);
  seg->DecodeInt64(0, 20000, out.data());
  EXPECT_EQ(out, values);
  EXPECT_TRUE(seg->is_resident());

  // Evict and decode again.
  seg->Evict();
  EXPECT_FALSE(seg->is_resident());
  seg->DecodeInt64(0, 20000, out.data());
  EXPECT_EQ(out, values);
}

TEST(SegmentTest, ArchiveRleSegment) {
  std::vector<int64_t> values(50000, 3);
  for (size_t i = 0; i < values.size(); i += 100) values[i] = 9;
  auto seg = BuildInt(values);
  ASSERT_EQ(seg->encoding(), EncodingKind::kRle);
  ASSERT_TRUE(seg->Archive().ok());
  std::vector<int64_t> out(values.size());
  seg->DecodeInt64(0, static_cast<int64_t>(values.size()), out.data());
  EXPECT_EQ(out, values);
}

TEST(SegmentTest, GetValueAllTypes) {
  auto int_seg = BuildInt({42}, DataType::kInt32);
  EXPECT_EQ(int_seg->GetValue(0), Value::Int32(42));

  auto date_seg = BuildInt({9000}, DataType::kDate32);
  EXPECT_EQ(date_seg->GetValue(0), Value::Date32(9000));

  auto bool_seg = BuildInt({1}, DataType::kBool);
  EXPECT_EQ(bool_seg->GetValue(0), Value::Bool(true));

  ColumnData dcol = DoubleColumn({1.5});
  auto dseg = SegmentBuilder::Build(dcol, 0, 1, nullptr, nullptr,
                                    DefaultOptions());
  EXPECT_EQ(dseg->GetValue(0), Value::Double(1.5));

  auto dict = std::make_shared<StringDictionary>();
  ColumnData scol = StringColumn({"hi"});
  auto sseg = SegmentBuilder::Build(scol, 0, 1, nullptr, dict,
                                    DefaultOptions());
  EXPECT_EQ(sseg->GetValue(0), Value::String("hi"));
}

}  // namespace
}  // namespace vstore

namespace vstore {
namespace {

TEST(SegmentGatherTest, BitPackGatherMatchesDecode) {
  Random rng(7);
  std::vector<int64_t> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.Uniform(0, 1 << 18));
  auto seg = BuildInt(values);
  ASSERT_EQ(seg->encoding(), EncodingKind::kBitPack);
  std::vector<int64_t> rows = {0, 1, 17, 900, 901, 2500, 4999};
  std::vector<int64_t> out(rows.size());
  seg->GatherInt64(rows.data(), static_cast<int64_t>(rows.size()), out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], values[static_cast<size_t>(rows[i])]);
  }
}

TEST(SegmentGatherTest, RleGatherMatchesDecode) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 50; ++v) values.insert(values.end(), 100, v * 7);
  auto seg = BuildInt(values);
  ASSERT_EQ(seg->encoding(), EncodingKind::kRle);
  // Ascending rows crossing many run boundaries, including repeats within
  // a run.
  std::vector<int64_t> rows;
  for (int64_t r = 3; r < 5000; r += 37) rows.push_back(r);
  std::vector<int64_t> out(rows.size());
  seg->GatherInt64(rows.data(), static_cast<int64_t>(rows.size()), out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], values[static_cast<size_t>(rows[i])]) << rows[i];
  }
}

// Runs of 1-7 rows over 0..2999, with a NULL (nullopt) inside some runs.
std::vector<std::optional<int64_t>> ShortRunValues(uint64_t seed,
                                                   int64_t runs) {
  Random rng(seed);
  std::vector<std::optional<int64_t>> values;
  for (int64_t r = 0; r < runs; ++r) {
    const int64_t value = rng.Uniform(0, 2999);
    for (int64_t i = rng.Uniform(1, 7); i > 0; --i) {
      values.push_back(rng.Uniform(0, 19) == 0 ? std::nullopt
                                               : std::optional(value));
    }
  }
  return values;
}

std::unique_ptr<ColumnSegment> BuildNullableInt(
    const std::vector<std::optional<int64_t>>& values) {
  ColumnData col(DataType::kInt64);
  for (const auto& v : values) {
    if (v.has_value()) {
      col.AppendInt64(*v);
    } else {
      col.AppendNull();
    }
  }
  return SegmentBuilder::Build(col, 0, col.size(), nullptr, nullptr,
                               DefaultOptions());
}

TEST(SegmentGatherTest, RleGatherEqualsDecodeOnRandomRowSets) {
  const auto values = ShortRunValues(31, 2000);
  auto seg = BuildNullableInt(values);
  ASSERT_EQ(seg->encoding(), EncodingKind::kRle);
  ASSERT_TRUE(seg->has_nulls());
  const int64_t n = seg->num_rows();
  std::vector<uint64_t> all(static_cast<size_t>(n));
  seg->DecodeCodes(0, n, all.data());
  Random rng(32);
  for (int trial = 0; trial < 200; ++trial) {
    // Ascending rows with repeats; sparse sets step over whole runs.
    const int64_t step = rng.Uniform(0, 3) == 0 ? 40 : 6;
    std::vector<int64_t> rows;
    for (int64_t r = rng.Uniform(0, 20); r < n; r += rng.Uniform(0, step)) {
      rows.push_back(r);
    }
    std::vector<uint64_t> codes(rows.size());
    seg->GatherCodes(rows.data(), static_cast<int64_t>(rows.size()),
                     codes.data());
    std::vector<int64_t> ints(rows.size());
    seg->GatherInt64(rows.data(), static_cast<int64_t>(rows.size()),
                     ints.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t row = static_cast<size_t>(rows[i]);
      ASSERT_EQ(codes[i], all[row]) << "trial " << trial << " row " << row;
      if (values[row].has_value()) {
        ASSERT_EQ(ints[i], *values[row]) << "row " << row;
      }
    }
  }
}

TEST(SegmentGatherTest, DecodeRunsGivesTheRunsOfAWindow) {
  auto seg = BuildNullableInt(ShortRunValues(33, 300));
  ASSERT_EQ(seg->encoding(), EncodingKind::kRle);
  const int64_t n = seg->num_rows();
  std::vector<uint64_t> all(static_cast<size_t>(n));
  seg->DecodeCodes(0, n, all.data());
  Random rng(34);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t start = rng.Uniform(0, n - 1);
    const int64_t count = rng.Uniform(1, std::min<int64_t>(n - start, 300));
    std::vector<uint64_t> codes(static_cast<size_t>(count));
    std::vector<int64_t> ends(static_cast<size_t>(count));
    const int64_t runs =
        seg->DecodeRuns(start, count, codes.data(), ends.data());
    ASSERT_GE(runs, 1);
    ASSERT_EQ(ends[static_cast<size_t>(runs - 1)], count);
    int64_t from = 0;
    for (int64_t r = 0; r < runs; ++r) {
      const int64_t end = ends[static_cast<size_t>(r)];
      ASSERT_GT(end, from);
      for (int64_t i = from; i < end; ++i) {
        ASSERT_EQ(all[static_cast<size_t>(start + i)],
                  codes[static_cast<size_t>(r)]);
      }
      // Adjacent runs hold different codes (one run of the stream each),
      // so every run boundary inside the window is a code change.
      if (r > 0) {
        ASSERT_NE(codes[static_cast<size_t>(r)],
                  codes[static_cast<size_t>(r - 1)]);
      }
      from = end;
    }
  }
}

TEST(SegmentGatherTest, GatherValidityAndStrings) {
  auto dict = std::make_shared<StringDictionary>();
  ColumnData col(DataType::kString);
  for (int i = 0; i < 100; ++i) {
    if (i % 10 == 3) {
      col.AppendNull();
    } else {
      col.AppendString(i % 2 == 0 ? "even" : "odd");
    }
  }
  auto seg = SegmentBuilder::Build(col, 0, 100, nullptr, dict,
                                   SegmentBuilder::Options{});
  std::vector<int64_t> rows = {2, 3, 13, 50, 99};
  std::vector<uint64_t> codes(rows.size());
  std::vector<std::string_view> strs(rows.size());
  std::vector<uint8_t> validity(rows.size());
  seg->GatherCodes(rows.data(), static_cast<int64_t>(rows.size()),
                   codes.data());
  seg->CodesToStrings(codes.data(), static_cast<int64_t>(rows.size()),
                      strs.data());
  seg->GatherValidity(rows.data(), static_cast<int64_t>(rows.size()),
                      validity.data());
  EXPECT_EQ(validity[0], 1);
  EXPECT_EQ(strs[0], "even");
  EXPECT_EQ(validity[1], 0);  // row 3 null
  EXPECT_EQ(validity[2], 0);  // row 13 null
  EXPECT_EQ(validity[3], 1);
  EXPECT_EQ(strs[3], "even");
  EXPECT_EQ(strs[4], "odd");
}

TEST(SegmentGatherTest, GatherAfterArchiveEvict)
{
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 20; ++v) values.insert(values.end(), 500, v);
  auto seg = BuildInt(values);
  seg->Archive().CheckOK();
  seg->Evict();
  std::vector<int64_t> rows = {0, 999, 5000, 9999};
  std::vector<int64_t> out(rows.size());
  seg->GatherInt64(rows.data(), 4, out.data());
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], 10);
  EXPECT_EQ(out[3], 19);
}

// --- Code ranges for pushed predicates ---------------------------------------

const CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};

// The decoded path's verdicts: CmpI64ConstMask / CmpF64ConstMask over
// DecodeInt64 / DecodeDouble, and an int column against a double constant
// compared in double space.
std::vector<uint8_t> DecodedVerdicts(const ColumnSegment& seg, CompareOp op,
                                     const Value& constant) {
  const int64_t n = seg.num_rows();
  std::vector<uint8_t> verdict(static_cast<size_t>(n));
  if (seg.type() == DataType::kDouble) {
    std::vector<double> values(static_cast<size_t>(n));
    seg.DecodeDouble(0, n, values.data());
    kernels::CmpF64ConstMask(op, values.data(), constant.AsDouble(), n,
                             verdict.data());
    return verdict;
  }
  std::vector<int64_t> values(static_cast<size_t>(n));
  seg.DecodeInt64(0, n, values.data());
  if (constant.type() == DataType::kDouble) {
    const double t = constant.AsDouble();
    for (int64_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(values[static_cast<size_t>(i)]);
      verdict[static_cast<size_t>(i)] = ApplyCompare(op, (v > t) - (v < t));
    }
  } else {
    kernels::CmpI64ConstMask(op, values.data(), constant.int64(), n,
                             verdict.data());
  }
  return verdict;
}

// For every operator and constant, the code range passes exactly the
// non-NULL rows the decoded compare passes.
void ExpectRangesMatchDecoded(const ColumnSegment& seg,
                              const std::vector<Value>& constants) {
  const int64_t n = seg.num_rows();
  std::vector<uint64_t> codes(static_cast<size_t>(n));
  std::vector<uint8_t> valid(static_cast<size_t>(n));
  seg.DecodeCodes(0, n, codes.data());
  seg.DecodeValidity(0, n, valid.data());
  for (const Value& constant : constants) {
    for (CompareOp op : kAllOps) {
      CodeRange range;
      ASSERT_TRUE(seg.PredicateCodeRange(op, constant, &range))
          << CompareOpName(op) << " " << constant.ToString();
      const std::vector<uint8_t> expect = DecodedVerdicts(seg, op, constant);
      for (int64_t i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(i);
        if (!valid[r]) continue;
        const bool pass =
            (range.lo <= codes[r] && codes[r] < range.hi) != range.negate;
        ASSERT_EQ(pass, expect[r] != 0)
            << CompareOpName(op) << " " << constant.ToString() << " row " << i
            << " code " << codes[r];
      }
    }
  }
}

// Constants that probe an int column holding `present`: every value, its
// neighbours, a value between two present ones, values below the minimum
// and above the maximum, and double constants (NaN, infinities, fractions,
// magnitudes beyond int64) compared in double space.
std::vector<Value> IntProbes(std::vector<int64_t> present, DataType type) {
  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end()), present.end());
  auto make = [type](int64_t v) {
    return type == DataType::kDate32 ? Value::Date32(static_cast<int32_t>(v))
                                     : Value::Int64(v);
  };
  std::vector<Value> probes;
  for (size_t i = 0; i < present.size(); ++i) {
    for (int64_t d : {-1, 0, 1}) probes.push_back(make(present[i] + d));
    if (i + 1 < present.size()) {
      probes.push_back(make(present[i] + (present[i + 1] - present[i]) / 2));
    }
  }
  probes.push_back(make(present.front() - 1000));
  probes.push_back(make(present.back() + 1000));
  const double inf = std::numeric_limits<double>::infinity();
  for (double d : {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 2.5,
                   -2.5, 1e300, -1e300,
                   static_cast<double>(present.front()) + 0.5,
                   static_cast<double>(present.back())}) {
    probes.push_back(Value::Double(d));
  }
  return probes;
}

// Builds a segment of `values` with every `null_every`-th row NULL.
std::unique_ptr<ColumnSegment> BuildWithNulls(DataType type,
                                              const std::vector<double>& values,
                                              int null_every) {
  ColumnData col(type);
  for (size_t i = 0; i < values.size(); ++i) {
    if (i % static_cast<size_t>(null_every) == 3) {
      col.AppendNull();
    } else if (type == DataType::kDouble) {
      col.AppendDouble(values[i]);
    } else {
      col.AppendInt64(static_cast<int64_t>(values[i]));
    }
  }
  return SegmentBuilder::Build(col, 0, col.size(), nullptr, nullptr,
                               DefaultOptions());
}

TEST(SegmentCodeRangeTest, PredicateCodeRangeMatchesDecodedCompare) {
  Random rng(2501);
  {
    SCOPED_TRACE("int64, common power of ten, negative base");
    std::vector<double> values;
    std::vector<int64_t> present;
    for (int i = 0; i < 300; ++i) {
      const int64_t v = rng.Uniform(-50, 150) * 1000;
      values.push_back(static_cast<double>(v));
      if (i % 7 != 3) present.push_back(v);
    }
    auto seg = BuildWithNulls(DataType::kInt64, values, 7);
    ASSERT_EQ(seg->value_encoding().int_pow10, 1000);
    ASSERT_LT(seg->value_encoding().base, 0);
    ExpectRangesMatchDecoded(*seg, IntProbes(present, DataType::kInt64));
  }
  {
    SCOPED_TRACE("DATE32");
    std::vector<double> values;
    std::vector<int64_t> present;
    for (int i = 0; i < 300; ++i) {
      const int64_t v = rng.Uniform(8035, 10591);
      values.push_back(static_cast<double>(v));
      if (i % 5 != 3) present.push_back(v);
    }
    auto seg = BuildWithNulls(DataType::kDate32, values, 5);
    ASSERT_EQ(seg->value_encoding().int_pow10, 1);
    ExpectRangesMatchDecoded(*seg, IntProbes(present, DataType::kDate32));
  }
  for (int scale = 0; scale <= 4; ++scale) {
    SCOPED_TRACE("double at scale " + std::to_string(scale));
    const double factor = std::pow(10.0, scale);
    std::vector<double> values;
    std::vector<double> present;
    for (int i = 0; i < 200; ++i) {
      // An odd numerator needs the full scale.
      const double v = static_cast<double>(rng.Uniform(-2500, 2500) * 2 + 1) /
                       factor;
      values.push_back(v);
      if (i % 6 != 3) present.push_back(v);
    }
    auto seg = BuildWithNulls(DataType::kDouble, values, 6);
    ASSERT_EQ(seg->code_kind(), CodeKind::kValueScaled);
    ASSERT_EQ(seg->value_encoding().scale, scale);
    std::sort(present.begin(), present.end());
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<Value> probes;
    for (size_t i = 0; i < present.size(); ++i) {
      probes.push_back(Value::Double(present[i]));
      probes.push_back(Value::Double(std::nextafter(present[i], inf)));
      probes.push_back(Value::Double(std::nextafter(present[i], -inf)));
      if (i + 1 < present.size()) {
        probes.push_back(Value::Double((present[i] + present[i + 1]) / 2));
      }
    }
    for (double d : {present.front() - 1, present.back() + 1,
                     std::numeric_limits<double>::quiet_NaN(), inf, -inf,
                     0.0, -0.0}) {
      probes.push_back(Value::Double(d));
    }
    for (int64_t v : {int64_t{-3}, int64_t{0}, int64_t{1}}) {
      probes.push_back(Value::Int64(v));
    }
    ExpectRangesMatchDecoded(*seg, probes);
  }
  {
    SCOPED_TRACE("0-bit constant segment");
    auto seg = BuildWithNulls(DataType::kInt64, std::vector<double>(50, 7.0),
                              4);
    ASSERT_EQ(seg->bit_width(), 0);
    ExpectRangesMatchDecoded(*seg, IntProbes({7}, DataType::kInt64));
  }
}

TEST(SegmentCodeRangeTest, DictionaryEqualityOnPrimaryLocalAndAbsentValues) {
  auto dict = std::make_shared<StringDictionary>();
  SegmentBuilder::Options options;
  options.primary_dict_capacity = 2;  // "a" and "b" primary, the rest local
  ColumnData col(DataType::kString);
  const char* names[] = {"a", "b", "c", "d"};
  for (int i = 0; i < 100; ++i) {
    if (i % 9 == 4) {
      col.AppendNull();
    } else {
      col.AppendString(names[(i * 7) % 4]);
    }
  }
  auto seg = SegmentBuilder::Build(col, 0, col.size(), nullptr, dict, options);
  ASSERT_NE(seg->local_dictionary(), nullptr);
  const int64_t n = seg->num_rows();
  std::vector<uint64_t> codes(static_cast<size_t>(n));
  std::vector<std::string_view> strings(static_cast<size_t>(n));
  std::vector<uint8_t> valid(static_cast<size_t>(n));
  seg->DecodeCodes(0, n, codes.data());
  seg->CodesToStrings(codes.data(), n, strings.data());
  seg->DecodeValidity(0, n, valid.data());
  for (const char* target : {"a", "c", "zzz"}) {
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe}) {
      CodeRange range;
      ASSERT_TRUE(seg->PredicateCodeRange(op, Value::String(target), &range));
      for (int64_t i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(i);
        if (!valid[r]) continue;
        const int c = strings[r].compare(target);
        EXPECT_EQ((range.lo <= codes[r] && codes[r] < range.hi) != range.negate,
                  ApplyCompare(op, (c > 0) - (c < 0)))
            << CompareOpName(op) << " " << target << " row " << i;
      }
    }
  }
  // The dictionary is not sorted, so order compares keep the decoded path.
  CodeRange range;
  EXPECT_FALSE(seg->PredicateCodeRange(CompareOp::kLt, Value::String("b"),
                                       &range));
}

TEST(SegmentCodeRangeTest, NoRangeWhereCodesCannotDecide) {
  CodeRange range;
  // Raw IEEE doubles.
  auto raw = SegmentBuilder::Build(DoubleColumn({0.1 / 3, 1e-300, 7.5}), 0, 3,
                                   nullptr, nullptr, DefaultOptions());
  ASSERT_EQ(raw->code_kind(), CodeKind::kRawDouble);
  EXPECT_FALSE(raw->PredicateCodeRange(CompareOp::kLt, Value::Double(1.0),
                                       &range));
  // Codes wider than 52 bits.
  auto wide = BuildInt({0, int64_t{1} << 60, 3});
  ASSERT_GT(wide->bit_width(), 52);
  EXPECT_FALSE(
      wide->PredicateCodeRange(CompareOp::kEq, Value::Int64(3), &range));
  // A NULL constant.
  auto ints = BuildInt({1, 2, 3});
  EXPECT_FALSE(ints->PredicateCodeRange(CompareOp::kEq,
                                        Value::Null(DataType::kInt64), &range));
}

TEST(SegmentTest, AllNullStringSegmentMapsCodesToEmptyViews) {
  // The null rows' code 0 is not in the still-empty primary dictionary.
  auto dict = std::make_shared<StringDictionary>();
  ColumnData col(DataType::kString);
  for (int i = 0; i < 20; ++i) col.AppendNull();
  auto seg = SegmentBuilder::Build(col, 0, 20, nullptr, dict, DefaultOptions());
  ASSERT_EQ(dict->size(), 0);
  std::vector<uint64_t> codes(20);
  std::vector<std::string_view> out(20, std::string_view("x"));
  seg->DecodeCodes(0, 20, codes.data());
  seg->CodesToStrings(codes.data(), 20, out.data());
  for (std::string_view s : out) EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace vstore
