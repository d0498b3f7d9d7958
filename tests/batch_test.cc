#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <memory>
#include <string>

#include "exec/batch.h"
#include "exec/operator.h"

namespace vstore {
namespace {

Schema TwoColSchema() {
  return Schema({{"a", DataType::kInt64, true},
                 {"s", DataType::kString, true}});
}

TEST(ColumnVectorTest, TypedStorageAndValidity) {
  ColumnVector v(DataType::kInt64, 10);
  v.mutable_ints()[0] = 42;
  v.mutable_validity()[1] = 0;
  EXPECT_EQ(v.GetValue(0), Value::Int64(42));
  EXPECT_TRUE(v.GetValue(1).is_null());
}

TEST(ColumnVectorTest, SetValueWithArena) {
  Arena arena;
  ColumnVector v(DataType::kString, 4);
  v.SetValue(0, Value::String("hello"), &arena);
  v.SetValue(1, Value::Null(DataType::kString), &arena);
  EXPECT_EQ(v.GetValue(0), Value::String("hello"));
  EXPECT_TRUE(v.GetValue(1).is_null());
}

TEST(ColumnVectorTest, ResetTypeWithinPhysicalFamily) {
  ColumnVector v(DataType::kInt64, 4);
  v.ResetType(DataType::kDate32);
  EXPECT_EQ(v.type(), DataType::kDate32);
  v.mutable_ints()[0] = 100;
  EXPECT_EQ(v.GetValue(0), Value::Date32(100));
}

TEST(BatchTest, ActivateAndRecount) {
  Batch batch(TwoColSchema(), 16);
  batch.set_num_rows(5);
  batch.ActivateAll();
  EXPECT_EQ(batch.active_count(), 5);
  batch.mutable_active()[2] = 0;
  batch.RecountActive();
  EXPECT_EQ(batch.active_count(), 4);
}

TEST(BatchTest, ResetClearsRowsAndArena) {
  Batch batch(TwoColSchema(), 8);
  batch.set_num_rows(3);
  batch.ActivateAll();
  batch.arena()->CopyString("payload");
  batch.Reset();
  EXPECT_EQ(batch.num_rows(), 0);
  EXPECT_EQ(batch.active_count(), 0);
  EXPECT_EQ(batch.arena()->bytes_allocated(), 0u);
}

TEST(BatchTest, GetActiveRowMaterializesValues) {
  Batch batch(TwoColSchema(), 4);
  batch.column(0).mutable_ints()[0] = 9;
  batch.column(1).mutable_strings()[0] = "str";
  batch.set_num_rows(1);
  batch.ActivateAll();
  std::vector<Value> row = batch.GetActiveRow(0);
  EXPECT_EQ(row[0], Value::Int64(9));
  EXPECT_EQ(row[1], Value::String("str"));
}

TEST(AppendActiveRowsTest, CompactsAndReanchorsStrings) {
  Schema schema = TwoColSchema();
  Batch src(schema, 8);
  for (int i = 0; i < 6; ++i) {
    src.column(0).mutable_ints()[i] = i;
    std::string payload = "v" + std::to_string(i);
    src.column(1).mutable_strings()[i] = src.arena()->CopyString(payload);
  }
  src.set_num_rows(6);
  src.ActivateAll();
  src.mutable_active()[1] = 0;
  src.mutable_active()[4] = 0;
  src.set_active_count(4);

  Batch dst(schema, 8);
  int64_t copied = AppendActiveRows(src, &dst);
  EXPECT_EQ(copied, 4);
  EXPECT_EQ(dst.num_rows(), 4);
  EXPECT_EQ(dst.active_count(), 4);
  EXPECT_EQ(dst.column(0).ints()[0], 0);
  EXPECT_EQ(dst.column(0).ints()[1], 2);
  EXPECT_EQ(dst.column(0).ints()[2], 3);
  EXPECT_EQ(dst.column(0).ints()[3], 5);
  // Source arena reuse must not corrupt dst strings.
  src.Reset();
  src.arena()->CopyString(std::string(1000, 'X'));
  EXPECT_EQ(dst.column(1).strings()[3], "v5");
}

TEST(AppendActiveRowsTest, AppendsAfterExistingRows) {
  Schema schema({{"a", DataType::kInt64, true}});
  Batch src(schema, 4);
  src.column(0).mutable_ints()[0] = 7;
  src.set_num_rows(1);
  src.ActivateAll();

  Batch dst(schema, 8);
  dst.column(0).mutable_ints()[0] = 1;
  dst.set_num_rows(1);
  dst.ActivateAll();

  AppendActiveRows(src, &dst);
  EXPECT_EQ(dst.num_rows(), 2);
  EXPECT_EQ(dst.column(0).ints()[1], 7);
  EXPECT_EQ(dst.active_count(), 2);
}

TEST(AppendActiveRowsTest, PreservesNulls) {
  Schema schema({{"a", DataType::kInt64, true}});
  Batch src(schema, 4);
  src.column(0).mutable_ints()[0] = 1;
  src.column(0).mutable_validity()[1] = 0;
  src.set_num_rows(2);
  src.ActivateAll();
  Batch dst(schema, 4);
  AppendActiveRows(src, &dst);
  EXPECT_EQ(dst.column(0).validity()[0], 1);
  EXPECT_EQ(dst.column(0).validity()[1], 0);
}

// The columnar result sink appends exactly what the old row path did:
// out->AppendRow(batch.GetActiveRow(i)) for each active row.
TEST(MaterializeActiveRowsTest, EqualsTheRowPathForEveryType) {
  Schema schema({{"b", DataType::kBool, true},
                 {"i32", DataType::kInt32, true},
                 {"i64", DataType::kInt64, true},
                 {"dt", DataType::kDate32, true},
                 {"f", DataType::kDouble, true},
                 {"s", DataType::kString, true}});
  TableData columnar(schema);
  TableData by_row(schema);
  for (int round = 0; round < 2; ++round) {
    auto batch = std::make_unique<Batch>(schema, 16);
    const int64_t n = 13;
    for (int64_t i = 0; i < n; ++i) {
      // Unnormalized bools and int32/date32 slots holding wide values: the
      // sink must store what GetValue makes of them.
      batch->column(0).mutable_ints()[i] = i % 3 == 0 ? 0 : i * 7 - 40;
      batch->column(1).mutable_ints()[i] = (int64_t{1} << 33) + i - 6;
      batch->column(2).mutable_ints()[i] = i * 1000003 - round;
      batch->column(3).mutable_ints()[i] = 19000 + i - (int64_t{1} << 40);
      batch->column(4).mutable_doubles()[i] =
          i == 4 ? std::numeric_limits<double>::quiet_NaN()
                 : (i == 5 ? -0.0 : 0.25 * static_cast<double>(i));
      batch->column(5).mutable_strings()[i] = batch->arena()->CopyString(
          i == 6 ? "" : "row" + std::to_string(i) + "r" +
                            std::to_string(round));
      for (int c = 0; c < 6; ++c) {
        batch->column(c).mutable_validity()[i] = (i + c) % 5 != 0;
      }
    }
    batch->set_num_rows(n);
    batch->ActivateAll();
    for (int64_t i : {1, 8, 12}) batch->mutable_active()[i] = 0;
    batch->RecountActive();

    MaterializeActiveRows(*batch, &columnar);
    for (int64_t i = 0; i < n; ++i) {
      if (batch->active()[i]) by_row.AppendRow(batch->GetActiveRow(i));
    }
    // The strings must outlive the batch and its arena.
    batch->Reset();
    batch->arena()->CopyString(std::string(256, 'x'));
    batch.reset();
  }

  ASSERT_EQ(columnar.num_rows(), 20);
  ASSERT_EQ(by_row.num_rows(), 20);
  for (int c = 0; c < 6; ++c) {
    SCOPED_TRACE(c);
    const ColumnData& got = columnar.column(c);
    const ColumnData& want = by_row.column(c);
    EXPECT_EQ(got.size(), want.size());
    EXPECT_GT(want.null_count(), 0);
    EXPECT_EQ(got.null_count(), want.null_count());
    EXPECT_EQ(got.ints(), want.ints());
    EXPECT_EQ(got.strings(), want.strings());
    ASSERT_EQ(got.doubles().size(), want.doubles().size());
    for (size_t i = 0; i < got.doubles().size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.doubles()[i]),
                std::bit_cast<uint64_t>(want.doubles()[i]));
    }
    for (int64_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got.IsNull(r), want.IsNull(r));
    }
  }
  EXPECT_EQ(columnar.column(0).ints()[1], 1);  // batch row 2 held -26
}

}  // namespace
}  // namespace vstore
