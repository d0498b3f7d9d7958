#include <gtest/gtest.h>

#include <utility>

#include "exec/hash_aggregate.h"
#include "exec/row/row_operator.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::DrainOperator;
using testing_util::ExpectBitIdentical;
using testing_util::MakeTestTable;
using testing_util::SortRows;
using testing_util::TableSourceOperator;

std::vector<std::vector<Value>> DrainRows(RowOperator* op) {
  op->Open().CheckOK();
  std::vector<std::vector<Value>> rows;
  std::vector<Value> row;
  for (;;) {
    auto more = op->Next(&row);
    more.status().CheckOK();
    if (!more.value()) break;
    rows.push_back(row);
  }
  op->Close();
  return rows;
}

std::unique_ptr<RowStoreTable> MakeRowStore(int64_t rows) {
  TableData data = MakeTestTable(rows);
  auto table = std::make_unique<RowStoreTable>("t", data.schema());
  table->Append(data).CheckOK();
  return table;
}

TEST(RowScanTest, ScansEveryRow) {
  auto table = MakeRowStore(300);
  RowStoreScanOperator scan(table.get());
  EXPECT_EQ(DrainRows(&scan).size(), 300u);
}

TEST(ColumnStoreRowScanTest, DecodesCompressedAndDeltaRows) {
  TableData data = MakeTestTable(1200);
  ColumnStoreTable::Options options;
  options.row_group_size = 500;
  options.min_compress_rows = 50;
  ColumnStoreTable table("t", data.schema(), options);
  table.BulkLoad(data).CheckOK();
  table
      .Insert({Value::Int64(5000), Value::Int64(0), Value::String("d"),
               Value::Double(0.0)})
      .ValueOrDie();
  table.Delete(MakeCompressedRowId(0, 0)).CheckOK();

  ColumnStoreRowScanOperator scan(&table);
  auto rows = DrainRows(&scan);
  EXPECT_EQ(rows.size(), 1200u);  // 1200 - 1 deleted + 1 delta
}

TEST(RowFilterTest, AppliesPredicate) {
  auto table = MakeRowStore(200);
  auto scan = std::make_unique<RowStoreScanOperator>(table.get());
  ExprPtr pred = expr::Lt(expr::Column(table->schema(), "id"),
                          expr::Lit(Value::Int64(50)));
  RowFilterOperator filter(std::move(scan), pred);
  EXPECT_EQ(DrainRows(&filter).size(), 50u);
}

TEST(RowProjectTest, ComputesExpressions) {
  auto table = MakeRowStore(10);
  auto scan = std::make_unique<RowStoreScanOperator>(table.get());
  RowProjectOperator project(
      std::move(scan),
      {expr::Add(expr::Column(table->schema(), "id"),
                 expr::Lit(Value::Int64(1)))},
      {"id1"});
  auto rows = DrainRows(&project);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[9][0], Value::Int64(10));
}

TEST(RowHashJoinTest, AllJoinTypes) {
  Schema ls({{"k", DataType::kInt64, true}, {"p", DataType::kString, true}});
  Schema rs({{"j", DataType::kInt64, true}, {"b", DataType::kString, true}});
  RowStoreTable left("l", ls), right("r", rs);
  left.Insert({Value::Int64(1), Value::String("p1")}).CheckOK();
  left.Insert({Value::Int64(2), Value::String("p2")}).CheckOK();
  left.Insert({Value::Null(DataType::kInt64), Value::String("pn")}).CheckOK();
  right.Insert({Value::Int64(2), Value::String("b2")}).CheckOK();
  right.Insert({Value::Int64(2), Value::String("b2x")}).CheckOK();
  right.Insert({Value::Int64(3), Value::String("b3")}).CheckOK();

  auto run = [&](JoinType jt) {
    RowHashJoinOperator::Options options;
    options.join_type = jt;
    options.probe_keys = {0};
    options.build_keys = {0};
    RowHashJoinOperator join(std::make_unique<RowStoreScanOperator>(&left),
                             std::make_unique<RowStoreScanOperator>(&right),
                             options);
    auto rows = DrainRows(&join);
    SortRows(&rows);
    return rows;
  };

  auto inner = run(JoinType::kInner);
  EXPECT_EQ(inner.size(), 2u);  // key 2 matches two build rows

  auto louter = run(JoinType::kLeftOuter);
  EXPECT_EQ(louter.size(), 4u);  // 2 matches + key1 + null-key row

  auto semi = run(JoinType::kLeftSemi);
  ASSERT_EQ(semi.size(), 1u);
  EXPECT_EQ(semi[0][0], Value::Int64(2));

  auto anti = run(JoinType::kLeftAnti);
  EXPECT_EQ(anti.size(), 2u);  // key 1 and the null-key row
}

// ("a\0", "b") and ("a", "\0b") are different two-column keys: the row
// engine's keys carry each string's length, so the columns cannot run
// together.
TEST(RowHashJoinTest, TwoStringKeyColumnsDoNotRunTogether) {
  using namespace std::string_literals;
  Schema schema({{"x", DataType::kString, true},
                 {"y", DataType::kString, true}});
  RowStoreTable probe("p", schema), build("b", schema);
  probe.Insert({Value::String("a\0"s), Value::String("b")}).CheckOK();
  probe.Insert({Value::String("k"), Value::String("v")}).CheckOK();
  build.Insert({Value::String("a"), Value::String("\0b"s)}).CheckOK();
  build.Insert({Value::String("k"), Value::String("v")}).CheckOK();
  RowHashJoinOperator::Options options;
  options.join_type = JoinType::kInner;
  options.probe_keys = {0, 1};
  options.build_keys = {0, 1};
  RowHashJoinOperator join(std::make_unique<RowStoreScanOperator>(&probe),
                           std::make_unique<RowStoreScanOperator>(&build),
                           options);
  auto rows = DrainRows(&join);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::String("k"));
}

TEST(RowHashAggregateTest, TwoStringKeyColumnsDoNotRunTogether) {
  using namespace std::string_literals;
  Schema schema({{"x", DataType::kString, true},
                 {"y", DataType::kString, true}});
  RowStoreTable table("t", schema);
  table.Insert({Value::String("a\0"s), Value::String("b")}).CheckOK();
  table.Insert({Value::String("a"), Value::String("\0b"s)}).CheckOK();
  table.Insert({Value::String("a"), Value::String("\0b"s)}).CheckOK();
  RowHashAggregateOperator::Options options;
  options.group_by = {0, 1};
  options.aggregates = {{AggFn::kCountStar, -1, "cnt"}};
  RowHashAggregateOperator agg(std::make_unique<RowStoreScanOperator>(&table),
                               options);
  auto rows = DrainRows(&agg);
  SortRows(&rows);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::String("a"));
  EXPECT_EQ(rows[0][2], Value::Int64(2));
  EXPECT_EQ(rows[1][0], Value::String("a\0"s));
  EXPECT_EQ(rows[1][2], Value::Int64(1));
}

// 2^53 + 1 and 2^53 round to the same double: MIN/MAX must still order
// them, and agree with the batch aggregate, which compares int64 values.
TEST(RowHashAggregateTest, MinMaxOrderInt64ValuesAboveTwoTo53) {
  const int64_t kTwo53 = int64_t{1} << 53;
  Schema schema({{"g", DataType::kInt64, false},
                 {"v", DataType::kInt64, false}});
  TableData data(schema);
  // Group 0 sees the larger value first, group 1 the smaller one.
  for (auto [g, v] : {std::pair{0, kTwo53 + 1}, std::pair{0, kTwo53},
                      std::pair{1, kTwo53}, std::pair{1, kTwo53 + 1}}) {
    data.AppendRow({Value::Int64(g), Value::Int64(v)});
  }
  RowHashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kMin, 1, "lo"}, {AggFn::kMax, 1, "hi"}};
  RowStoreTable table("t", schema);
  table.Append(data).CheckOK();
  RowHashAggregateOperator row_agg(
      std::make_unique<RowStoreScanOperator>(&table), options);
  auto rows = DrainRows(&row_agg);
  SortRows(&rows);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_EQ(row[1], Value::Int64(kTwo53)) << "group " << row[0].int64();
    EXPECT_EQ(row[2], Value::Int64(kTwo53 + 1)) << "group " << row[0].int64();
  }

  ExecContext ctx;
  HashAggregateOperator::Options batch_options;
  batch_options.group_by = options.group_by;
  batch_options.aggregates = options.aggregates;
  HashAggregateOperator batch_agg(
      std::make_unique<TableSourceOperator>(&data, &ctx), batch_options, &ctx);
  auto batch_rows = DrainOperator(&batch_agg);
  SortRows(&batch_rows);
  ExpectBitIdentical(batch_rows, rows);
}

TEST(RowHashAggregateTest, GroupsAndAggregates) {
  auto table = MakeRowStore(1000);
  RowHashAggregateOperator::Options options;
  options.group_by = {1};  // bucket 0..9
  options.aggregates = {{AggFn::kCountStar, -1, "cnt"},
                        {AggFn::kSum, 0, "sum_id"},
                        {AggFn::kAvg, 3, "avg_amount"},
                        {AggFn::kMin, 2, "min_name"}};
  RowHashAggregateOperator agg(std::make_unique<RowStoreScanOperator>(table.get()),
                               options);
  auto rows = DrainRows(&agg);
  EXPECT_EQ(rows.size(), 10u);
  int64_t total = 0;
  for (const auto& row : rows) total += row[1].int64();
  EXPECT_EQ(total, 1000);
}

TEST(RowSortTest, SortsWithLimit) {
  auto table = MakeRowStore(100);
  RowSortOperator sort(std::make_unique<RowStoreScanOperator>(table.get()),
                       {{0, false}}, 5);
  auto rows = DrainRows(&sort);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0], Value::Int64(99));
  EXPECT_EQ(rows[4][0], Value::Int64(95));
}

TEST(AdapterTest, BatchToRowFlattens) {
  TableData data = MakeTestTable(100);
  ExecContext ctx;
  ctx.batch_size = 16;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  BatchToRowAdapter adapter(std::move(source));
  auto rows = DrainRows(&adapter);
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[42][0], Value::Int64(42));
}

TEST(AdapterTest, BatchToRowSkipsInactive) {
  TableData data = MakeTestTable(100);
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  ExprPtr pred = expr::Eq(expr::Column(data.schema(), "id"),
                          expr::Lit(Value::Int64(7)));
  auto filter =
      std::make_unique<FilterOperator>(std::move(source), pred, &ctx);
  BatchToRowAdapter adapter(std::move(filter));
  auto rows = DrainRows(&adapter);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(7));
}

TEST(AdapterTest, RowToBatchBuildsFullBatches) {
  auto table = MakeRowStore(250);
  ExecContext ctx;
  ctx.batch_size = 100;
  RowToBatchAdapter adapter(std::make_unique<RowStoreScanOperator>(table.get()),
                            &ctx);
  adapter.Open().CheckOK();
  Batch* b1 = adapter.Next().ValueOrDie();
  ASSERT_NE(b1, nullptr);
  EXPECT_EQ(b1->num_rows(), 100);
  Batch* b2 = adapter.Next().ValueOrDie();
  EXPECT_EQ(b2->num_rows(), 100);
  Batch* b3 = adapter.Next().ValueOrDie();
  EXPECT_EQ(b3->num_rows(), 50);
  EXPECT_EQ(adapter.Next().ValueOrDie(), nullptr);
  adapter.Close();
}

TEST(AdapterTest, MixedModeRoundTrip) {
  // Row scan -> batch filter -> row sink: the paper's mixed-mode shape.
  auto table = MakeRowStore(500);
  ExecContext ctx;
  auto row_scan = std::make_unique<RowStoreScanOperator>(table.get());
  auto to_batch =
      std::make_unique<RowToBatchAdapter>(std::move(row_scan), &ctx);
  ExprPtr pred = expr::Lt(expr::Column(table->schema(), "id"),
                          expr::Lit(Value::Int64(20)));
  auto filter =
      std::make_unique<FilterOperator>(std::move(to_batch), pred, &ctx);
  BatchToRowAdapter to_row(std::move(filter));
  EXPECT_EQ(DrainRows(&to_row).size(), 20u);
}

}  // namespace
}  // namespace vstore
