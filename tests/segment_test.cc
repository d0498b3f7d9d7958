#include <gtest/gtest.h>

#include "common/random.h"
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

}  // namespace
}  // namespace vstore
