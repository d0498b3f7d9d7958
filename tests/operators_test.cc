#include <gtest/gtest.h>

#include <cstring>

#include "exec/exchange.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/union_all.h"
#include "storage/dictionary.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::DrainOperator;
using testing_util::MakeTestTable;
using testing_util::TableSourceOperator;

TEST(FilterOperatorTest, MarksRowsInactive) {
  TableData data = MakeTestTable(500);
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  ExprPtr pred = expr::Lt(expr::Column(data.schema(), "id"),
                          expr::Lit(Value::Int64(100)));
  FilterOperator filter(std::move(source), pred, &ctx);
  auto rows = DrainOperator(&filter);
  EXPECT_EQ(rows.size(), 100u);
}

TEST(FilterOperatorTest, NullPredicateResultDoesNotQualify) {
  Schema schema({{"a", DataType::kInt64, true}});
  TableData data(schema);
  data.AppendRow({Value::Int64(1)});
  data.AppendRow({Value::Null(DataType::kInt64)});
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  ExprPtr pred =
      expr::Ge(expr::Column(schema, "a"), expr::Lit(Value::Int64(0)));
  FilterOperator filter(std::move(source), pred, &ctx);
  EXPECT_EQ(DrainOperator(&filter).size(), 1u);
}

// id = lo OR id = lo + 1 OR ... OR id = hi - 1, as a balanced tree of ORs.
ExprPtr BalancedOrOfEqualities(const Schema& schema, int64_t lo, int64_t hi) {
  if (hi - lo == 1) {
    return expr::Eq(expr::Column(schema, "id"), expr::Lit(Value::Int64(lo)));
  }
  const int64_t mid = lo + (hi - lo) / 2;
  return expr::Or(BalancedOrOfEqualities(schema, lo, mid),
                  BalancedOrOfEqualities(schema, mid, hi));
}

// 22,000 distinct equalities need 66,000 registers (a literal, a compare
// and an OR each, plus the column), above the program's 65,535: Filter's
// and Project's Open() return the compile error, and the cache keeps no
// entry for it.
TEST(FilterOperatorTest, ProgramAboveTheRegisterCapFailsOpen) {
  TableData data = MakeTestTable(10);
  ExecContext ctx;
  ExprPtr pred = BalancedOrOfEqualities(data.schema(), 0, 22000);
  const int64_t cached = ExprProgramCache::Global().size();
  FilterOperator filter(std::make_unique<TableSourceOperator>(&data, &ctx),
                        pred, &ctx);
  Status status = filter.Open();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  filter.Close();
  ProjectOperator project(std::make_unique<TableSourceOperator>(&data, &ctx),
                          {pred}, {"hit"}, &ctx);
  EXPECT_EQ(project.Open().code(), StatusCode::kInvalidArgument);
  project.Close();
  EXPECT_EQ(ExprProgramCache::Global().size(), cached);

  // Below the cap the same shape compiles and filters.
  FilterOperator small(std::make_unique<TableSourceOperator>(&data, &ctx),
                       BalancedOrOfEqualities(data.schema(), 0, 3), &ctx);
  EXPECT_EQ(DrainOperator(&small).size(), 3u);
}

TEST(FilterOperatorTest, EmptyResultReturnsEos) {
  TableData data = MakeTestTable(100);
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  ExprPtr pred = expr::Lt(expr::Column(data.schema(), "id"),
                          expr::Lit(Value::Int64(-1)));
  FilterOperator filter(std::move(source), pred, &ctx);
  EXPECT_TRUE(DrainOperator(&filter).empty());
}

// Passes its input's batches through and remembers the last one, so a test
// can compare an operator's output with the batch it was computed from.
class TapOperator final : public BatchOperator {
 public:
  explicit TapOperator(BatchOperatorPtr input) : input_(std::move(input)) {}

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "Tap"; }
  const Batch* last() const { return last_; }

 protected:
  Status OpenImpl() override { return input_->Open(); }
  Result<Batch*> NextImpl() override {
    VSTORE_ASSIGN_OR_RETURN(last_, input_->Next());
    return last_;
  }
  void CloseImpl() override { input_->Close(); }

 private:
  BatchOperatorPtr input_;
  Batch* last_ = nullptr;
};

// Project does not compact: its output keeps the Filter's width and mask,
// shows the input's own vector for a column reference and the frame's
// register for a computed column.
TEST(ProjectOperatorTest, ComputesExpressionsOverActiveRows) {
  TableData data = MakeTestTable(50);
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  ExprPtr pred = expr::Lt(expr::Column(data.schema(), "id"),
                          expr::Lit(Value::Int64(10)));
  auto filter =
      std::make_unique<FilterOperator>(std::move(source), pred, &ctx);
  auto tap = std::make_unique<TapOperator>(std::move(filter));
  const TapOperator* filtered = tap.get();
  ExprPtr doubled = expr::Mul(expr::Column(data.schema(), "id"),
                              expr::Lit(Value::Int64(2)));
  ProjectOperator project(std::move(tap),
                          {doubled, expr::Column(data.schema(), "id")},
                          {"id2", "id"}, &ctx);
  EXPECT_EQ(project.output_schema().field(0).name, "id2");

  project.Open().CheckOK();
  std::vector<std::vector<Value>> rows;
  for (;;) {
    Batch* batch = project.Next().ValueOrDie();
    if (batch == nullptr) break;
    const Batch& in = *filtered->last();
    ASSERT_EQ(batch->num_rows(), in.num_rows());
    ASSERT_EQ(batch->active_count(), in.active_count());
    EXPECT_GT(batch->num_rows(), batch->active_count());
    EXPECT_EQ(std::memcmp(batch->active(), in.active(),
                          static_cast<size_t>(in.num_rows())),
              0);
    EXPECT_EQ(batch->column(1).ints(), in.column(0).ints());
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (!batch->active()[i]) continue;
      Value want;
      ASSERT_TRUE(doubled->EvalRow(in.GetActiveRow(i), &want).ok());
      EXPECT_EQ(batch->column(0).GetValue(i), want) << i;
      rows.push_back(batch->GetActiveRow(i));
    }
  }
  project.Close();
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].int64() % 2, 0);
  }

  // A Limit above the Project clears bits in Project's copy of the mask
  // and cuts exactly.
  LimitOperator limit(
      std::make_unique<ProjectOperator>(
          std::make_unique<FilterOperator>(
              std::make_unique<TableSourceOperator>(&data, &ctx), pred, &ctx),
          std::vector<ExprPtr>{doubled}, std::vector<std::string>{"id2"},
          &ctx),
      7, &ctx);
  auto limited = DrainOperator(&limit);
  ASSERT_EQ(limited.size(), 7u);
  for (size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i][0], Value::Int64(2 * static_cast<int64_t>(i)));
  }
}

// A string column passed through unchanged is the scan's own vector, so
// it keeps the code lane; a constant string column carries none. Only
// active rows count: Project keeps the Filter's mask.
TEST(ProjectOperatorTest, PassThroughStringKeepsCodeLane) {
  TableData data = MakeTestTable(3000);
  ColumnStoreTable::Options options;
  options.row_group_size = 1000;
  options.min_compress_rows = 100;
  ColumnStoreTable table("t", data.schema(), options);
  table.BulkLoad(data).CheckOK();
  ExecContext ctx;
  auto scan = std::make_unique<ColumnStoreScanOperator>(
      &table, ColumnStoreScanOperator::Options(), &ctx);
  ExprPtr pred = expr::Lt(expr::Column(data.schema(), "bucket"),
                          expr::Lit(Value::Int64(3)));
  auto filter = std::make_unique<FilterOperator>(std::move(scan), pred, &ctx);
  ProjectOperator project(
      std::move(filter),
      {expr::Column(data.schema(), "name"), expr::Column(data.schema(), "id"),
       expr::Lit(Value::String("x"))},
      {"name", "id", "x"}, &ctx);
  project.Open().CheckOK();
  int64_t rows = 0;
  for (;;) {
    Batch* batch = project.Next().ValueOrDie();
    if (batch == nullptr) break;
    const ColumnVector& name = batch->column(0);
    ASSERT_NE(name.dictionary(), nullptr);
    EXPECT_EQ(batch->column(2).dictionary(), nullptr);
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (!batch->active()[i]) continue;
      const int64_t id = batch->column(1).ints()[i];
      EXPECT_EQ(name.strings()[i], data.column(2).GetString(id));
      EXPECT_EQ(name.dictionary()->Get(static_cast<int64_t>(name.codes()[i])),
                name.strings()[i]);
      ++rows;
    }
  }
  project.Close();
  EXPECT_GT(rows, 0);
  EXPECT_LT(rows, 3000);
}

TEST(LimitOperatorTest, CutsExactly) {
  TableData data = MakeTestTable(100);
  ExecContext ctx;
  ctx.batch_size = 16;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  LimitOperator limit(std::move(source), 37, &ctx);
  EXPECT_EQ(DrainOperator(&limit).size(), 37u);
}

TEST(LimitOperatorTest, LimitBeyondInputReturnsAll) {
  TableData data = MakeTestTable(10);
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  LimitOperator limit(std::move(source), 100, &ctx);
  EXPECT_EQ(DrainOperator(&limit).size(), 10u);
}

TEST(SortOperatorTest, SortsAscendingAndDescending) {
  Schema schema({{"k", DataType::kInt64, true},
                 {"v", DataType::kString, true}});
  TableData data(schema);
  data.AppendRow({Value::Int64(3), Value::String("c")});
  data.AppendRow({Value::Int64(1), Value::String("a")});
  data.AppendRow({Value::Int64(2), Value::String("b")});
  ExecContext ctx;
  {
    auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
    SortOperator sort(std::move(source), {{0, true}}, -1, &ctx);
    auto rows = DrainOperator(&sort);
    EXPECT_EQ(rows[0][0], Value::Int64(1));
    EXPECT_EQ(rows[2][0], Value::Int64(3));
  }
  {
    auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
    SortOperator sort(std::move(source), {{0, false}}, -1, &ctx);
    auto rows = DrainOperator(&sort);
    EXPECT_EQ(rows[0][0], Value::Int64(3));
  }
}

TEST(SortOperatorTest, NullsSortFirst) {
  Schema schema({{"k", DataType::kInt64, true}});
  TableData data(schema);
  data.AppendRow({Value::Int64(5)});
  data.AppendRow({Value::Null(DataType::kInt64)});
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  SortOperator sort(std::move(source), {{0, true}}, -1, &ctx);
  auto rows = DrainOperator(&sort);
  EXPECT_TRUE(rows[0][0].is_null());
}

TEST(SortOperatorTest, TopNKeepsSmallest) {
  TableData data = MakeTestTable(5000, /*seed=*/7);
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  SortOperator sort(std::move(source), {{0, true}}, 10, &ctx);
  auto rows = DrainOperator(&sort);
  ASSERT_EQ(rows.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rows[static_cast<size_t>(i)][0], Value::Int64(i));
  }
}

TEST(SortOperatorTest, SecondaryKeyBreaksTies) {
  Schema schema({{"k", DataType::kInt64, true},
                 {"t", DataType::kInt64, true}});
  TableData data(schema);
  data.AppendRow({Value::Int64(1), Value::Int64(9)});
  data.AppendRow({Value::Int64(1), Value::Int64(3)});
  data.AppendRow({Value::Int64(0), Value::Int64(5)});
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  SortOperator sort(std::move(source), {{0, true}, {1, true}}, -1, &ctx);
  auto rows = DrainOperator(&sort);
  EXPECT_EQ(rows[0][1], Value::Int64(5));
  EXPECT_EQ(rows[1][1], Value::Int64(3));
  EXPECT_EQ(rows[2][1], Value::Int64(9));
}

TEST(UnionAllTest, ConcatenatesChildren) {
  TableData a = MakeTestTable(30, 1);
  TableData b = MakeTestTable(20, 2);
  ExecContext ctx;
  std::vector<BatchOperatorPtr> children;
  children.push_back(std::make_unique<TableSourceOperator>(&a, &ctx));
  children.push_back(std::make_unique<TableSourceOperator>(&b, &ctx));
  UnionAllOperator u(std::move(children), &ctx);
  EXPECT_EQ(DrainOperator(&u).size(), 50u);
}

TEST(ExchangeTest, ParallelFragmentsDeliverEverything) {
  // 4 fragments each produce a disjoint range; union must be complete.
  Schema schema({{"x", DataType::kInt64, true}});
  std::vector<TableData> shards;
  for (int f = 0; f < 4; ++f) {
    TableData shard(schema);
    for (int64_t i = 0; i < 250; ++i) {
      shard.AppendRow({Value::Int64(f * 250 + i)});
    }
    shards.push_back(std::move(shard));
  }
  ExecContext ctx;
  ExchangeOperator exchange(
      schema,
      [&shards](int fragment, ExecContext* fctx) -> Result<BatchOperatorPtr> {
        return BatchOperatorPtr(std::make_unique<TableSourceOperator>(
            &shards[static_cast<size_t>(fragment)], fctx));
      },
      4, &ctx);
  auto rows = DrainOperator(&exchange);
  ASSERT_EQ(rows.size(), 1000u);
  std::vector<bool> seen(1000, false);
  for (const auto& row : rows) {
    seen[static_cast<size_t>(row[0].int64())] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(ExchangeTest, FragmentErrorPropagates) {
  Schema schema({{"x", DataType::kInt64, true}});
  ExecContext ctx;
  ExchangeOperator exchange(
      schema,
      [](int, ExecContext*) -> Result<BatchOperatorPtr> {
        return Status::Internal("fragment failed");
      },
      2, &ctx);
  exchange.Open().CheckOK();
  auto result = exchange.Next();
  EXPECT_FALSE(result.ok());
  exchange.Close();
}

TEST(ExchangeTest, EarlyCloseDoesNotHang) {
  Schema schema({{"x", DataType::kInt64, true}});
  TableData big(schema);
  for (int64_t i = 0; i < 100000; ++i) big.AppendRow({Value::Int64(i)});
  ExecContext ctx;
  ExchangeOperator exchange(
      schema,
      [&big](int, ExecContext* fctx) -> Result<BatchOperatorPtr> {
        return BatchOperatorPtr(
            std::make_unique<TableSourceOperator>(&big, fctx));
      },
      2, &ctx);
  exchange.Open().CheckOK();
  // Consume one batch then abandon: Close must unblock producers.
  Batch* batch = exchange.Next().ValueOrDie();
  ASSERT_NE(batch, nullptr);
  exchange.Close();
}

}  // namespace
}  // namespace vstore
