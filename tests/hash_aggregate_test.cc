#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <tuple>

#include "common/random.h"
#include "exec/hash_aggregate.h"
#include "exec/row/row_operator.h"
#include "exec/scan.h"
#include "exec/union_all.h"
#include "storage/column_store.h"
#include "storage/dictionary.h"
#include "storage/row_store.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::DrainOperator;
using testing_util::ExpectBitIdentical;
using testing_util::SortRows;
using testing_util::TableSourceOperator;

Schema InSchema() {
  return Schema({{"g", DataType::kInt64, true},
                 {"name", DataType::kString, true},
                 {"v", DataType::kInt64, true},
                 {"d", DataType::kDouble, true}});
}

std::vector<std::vector<Value>> RunAgg(const TableData& data,
                                       HashAggregateOperator::Options options,
                                       ExecContext* ctx) {
  auto source = std::make_unique<TableSourceOperator>(&data, ctx);
  HashAggregateOperator agg(std::move(source), std::move(options), ctx);
  auto rows = DrainOperator(&agg);
  SortRows(&rows);
  return rows;
}

TEST(HashAggregateTest, SumCountMinMaxAvg) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(1), Value::String("a"), Value::Int64(10),
                  Value::Double(1.5)});
  data.AppendRow({Value::Int64(1), Value::String("b"), Value::Int64(20),
                  Value::Double(2.5)});
  data.AppendRow({Value::Int64(2), Value::String("c"), Value::Int64(5),
                  Value::Double(4.0)});

  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kSum, 2, "sum_v"},
                        {AggFn::kCount, 2, "cnt_v"},
                        {AggFn::kMin, 2, "min_v"},
                        {AggFn::kMax, 2, "max_v"},
                        {AggFn::kAvg, 3, "avg_d"},
                        {AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  // Group 1.
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[0][1], Value::Int64(30));
  EXPECT_EQ(rows[0][2], Value::Int64(2));
  EXPECT_EQ(rows[0][3], Value::Int64(10));
  EXPECT_EQ(rows[0][4], Value::Int64(20));
  EXPECT_EQ(rows[0][5], Value::Double(2.0));
  EXPECT_EQ(rows[0][6], Value::Int64(2));
  // Group 2.
  EXPECT_EQ(rows[1][1], Value::Int64(5));
}

TEST(HashAggregateTest, StringGroupKeysAndMinMax) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(0), Value::String("x"), Value::Int64(1),
                  Value::Double(0)});
  data.AppendRow({Value::Int64(0), Value::String("x"), Value::Int64(2),
                  Value::Double(0)});
  data.AppendRow({Value::Int64(0), Value::String("y"), Value::Int64(3),
                  Value::Double(0)});

  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {1};
  options.aggregates = {{AggFn::kMin, 1, "min_name"},
                        {AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::String("x"));
  EXPECT_EQ(rows[0][1], Value::String("x"));
  EXPECT_EQ(rows[0][2], Value::Int64(2));
  EXPECT_EQ(rows[1][0], Value::String("y"));
}

TEST(HashAggregateTest, NullKeysFormOneGroup) {
  TableData data(InSchema());
  data.AppendRow({Value::Null(DataType::kInt64), Value::String("a"),
                  Value::Int64(1), Value::Double(0)});
  data.AppendRow({Value::Null(DataType::kInt64), Value::String("b"),
                  Value::Int64(2), Value::Double(0)});
  data.AppendRow({Value::Int64(1), Value::String("c"), Value::Int64(3),
                  Value::Double(0)});

  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  // SortRows places the null group first (nulls sort as "\1").
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[0][1], Value::Int64(2));
}

TEST(HashAggregateTest, NullInputsSkippedByAggregates) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(1), Value::String("a"), Value::Int64(5),
                  Value::Double(0)});
  data.AppendRow({Value::Int64(1), Value::String("a"),
                  Value::Null(DataType::kInt64), Value::Double(0)});

  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kSum, 2, "sum"},
                        {AggFn::kCount, 2, "cnt"},
                        {AggFn::kCountStar, -1, "star"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Int64(5));
  EXPECT_EQ(rows[0][2], Value::Int64(1));  // COUNT(col) skips null
  EXPECT_EQ(rows[0][3], Value::Int64(2));  // COUNT(*) does not
}

TEST(HashAggregateTest, AllNullGroupProducesNullAggregates) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(1), Value::String("a"),
                  Value::Null(DataType::kInt64), Value::Double(0)});
  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kSum, 2, "sum"}, {AggFn::kMin, 2, "min"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_TRUE(rows[0][2].is_null());
}

TEST(HashAggregateTest, EmptyInputProducesNoGroups) {
  TableData data(InSchema());
  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kCountStar, -1, "cnt"}};
  EXPECT_TRUE(RunAgg(data, options, &ctx).empty());
}

// Randomized aggregation vs a std::map reference, with and without a
// spill-inducing memory budget.
class HashAggSpillTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(HashAggSpillTest, MatchesReference) {
  Random rng(77);
  TableData data(InSchema());
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    data.AppendRow({Value::Int64(rng.Uniform(0, 499)),
                    Value::String("s" + std::to_string(rng.Uniform(0, 9))),
                    Value::Int64(rng.Uniform(-100, 100)),
                    Value::Double(static_cast<double>(rng.Uniform(0, 1000)) /
                                  4.0)});
  }

  struct Ref {
    int64_t sum = 0;
    int64_t count = 0;
    int64_t min = 0;
    double dsum = 0;
  };
  std::map<std::pair<int64_t, std::string>, Ref> reference;
  for (int64_t i = 0; i < n; ++i) {
    auto key = std::make_pair(data.column(0).GetInt64(i),
                              data.column(1).GetString(i));
    Ref& ref = reference[key];
    int64_t v = data.column(2).GetInt64(i);
    if (ref.count == 0 || v < ref.min) ref.min = v;
    ref.sum += v;
    ref.dsum += data.column(3).GetDouble(i);
    ++ref.count;
  }

  ExecContext ctx;
  ctx.operator_memory_budget = GetParam();
  HashAggregateOperator::Options options;
  options.group_by = {0, 1};
  options.aggregates = {{AggFn::kSum, 2, "sum"},
                        {AggFn::kMin, 2, "min"},
                        {AggFn::kAvg, 3, "avg"},
                        {AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), reference.size());
  for (const auto& row : rows) {
    auto key = std::make_pair(row[0].int64(), row[1].str());
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(row[2].int64(), it->second.sum);
    EXPECT_EQ(row[3].int64(), it->second.min);
    EXPECT_NEAR(row[4].dbl(),
                it->second.dsum / static_cast<double>(it->second.count),
                1e-9);
    EXPECT_EQ(row[5].int64(), it->second.count);
  }
  if (GetParam() > 0) {
    EXPECT_GT(ctx.stats.build_rows_spilled, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, HashAggSpillTest,
                         ::testing::Values(0, 64 * 1024, 16 * 1024));

// --- Scalar aggregation ------------------------------------------------------
// No GROUP BY: a zero-key HashAggregateOperator (one group, found on an
// empty code index).

TEST(ScalarAggregateTest, BasicFold) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(1), Value::String("a"), Value::Int64(4),
                  Value::Double(1.0)});
  data.AppendRow({Value::Int64(2), Value::String("b"), Value::Int64(6),
                  Value::Double(3.0)});
  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.aggregates = {{AggFn::kSum, 2, "sum"},
                        {AggFn::kAvg, 3, "avg"},
                        {AggFn::kMin, 1, "min_name"},
                        {AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(10));
  EXPECT_EQ(rows[0][1], Value::Double(2.0));
  EXPECT_EQ(rows[0][2], Value::String("a"));
  EXPECT_EQ(rows[0][3], Value::Int64(2));
}

TEST(ScalarAggregateTest, EmptyInputYieldsOneRow) {
  TableData data(InSchema());
  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.aggregates = {{AggFn::kCountStar, -1, "cnt"},
                        {AggFn::kSum, 2, "sum"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(0));
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(AggOutputTypeTest, Matrix) {
  EXPECT_EQ(AggOutputType(AggFn::kSum, DataType::kInt32), DataType::kInt64);
  EXPECT_EQ(AggOutputType(AggFn::kSum, DataType::kDouble), DataType::kDouble);
  EXPECT_EQ(AggOutputType(AggFn::kAvg, DataType::kInt64), DataType::kDouble);
  EXPECT_EQ(AggOutputType(AggFn::kMin, DataType::kString), DataType::kString);
  EXPECT_EQ(AggOutputType(AggFn::kMax, DataType::kDate32), DataType::kDate32);
  EXPECT_EQ(AggOutputType(AggFn::kCountStar, DataType::kInt64),
            DataType::kInt64);
}

}  // namespace
}  // namespace vstore

namespace vstore {
namespace {

// Partial -> final two-stage aggregation must equal single-stage results,
// including AVG (sum+count carried exactly) and min/max type preservation.
TEST(AggPhaseTest, PartialThenFinalEqualsComplete) {
  Random rng(88);
  TableData data(InSchema());
  for (int64_t i = 0; i < 5000; ++i) {
    data.AppendRow({Value::Int64(rng.Uniform(0, 19)),
                    Value::String("s" + std::to_string(rng.Uniform(0, 3))),
                    Value::Int64(rng.Uniform(-50, 50)),
                    Value::Double(static_cast<double>(rng.Uniform(0, 999)) /
                                  8.0)});
  }
  HashAggregateOperator::Options logical;
  logical.group_by = {0};
  logical.aggregates = {{AggFn::kSum, 2, "sum"},
                        {AggFn::kAvg, 3, "avg"},
                        {AggFn::kMin, 1, "min_name"},
                        {AggFn::kMax, 2, "max_v"},
                        {AggFn::kCountStar, -1, "cnt"}};

  ExecContext ctx;
  auto complete_rows = RunAgg(data, logical, &ctx);

  // Two-stage: split the input into halves, partial-aggregate each, union,
  // final-aggregate.
  TableData first(InSchema()), second(InSchema());
  for (int64_t i = 0; i < data.num_rows(); ++i) {
    (i % 2 == 0 ? first : second).AppendRow(data.GetRow(i));
  }
  auto make_partial = [&](const TableData& part) {
    auto source = std::make_unique<TableSourceOperator>(&part, &ctx);
    HashAggregateOperator::Options popts = logical;
    popts.phase = AggPhase::kPartial;
    return std::make_unique<HashAggregateOperator>(std::move(source), popts,
                                                   &ctx);
  };
  auto p1 = make_partial(first);
  auto p2 = make_partial(second);
  // Materialize partials into one staging table.
  TableData partials(p1->output_schema());
  for (auto* p : {p1.get(), p2.get()}) {
    for (const auto& row : DrainOperator(p)) partials.AppendRow(row);
  }

  HashAggregateOperator::Options fopts;
  fopts.phase = AggPhase::kFinal;
  fopts.group_by = {0};
  fopts.aggregates = logical.aggregates;
  for (size_t a = 0; a < fopts.aggregates.size(); ++a) {
    fopts.aggregates[a].column = static_cast<int>(1 + 2 * a);
  }
  auto source = std::make_unique<TableSourceOperator>(&partials, &ctx);
  HashAggregateOperator final_agg(std::move(source), fopts, &ctx);
  auto final_rows = DrainOperator(&final_agg);
  SortRows(&final_rows);

  ASSERT_EQ(final_rows.size(), complete_rows.size());
  for (size_t i = 0; i < final_rows.size(); ++i) {
    ASSERT_EQ(final_rows[i].size(), complete_rows[i].size());
    for (size_t c = 0; c < final_rows[i].size(); ++c) {
      if (final_rows[i][c].type() == DataType::kDouble &&
          !final_rows[i][c].is_null()) {
        EXPECT_NEAR(final_rows[i][c].dbl(), complete_rows[i][c].dbl(), 1e-9);
      } else {
        EXPECT_EQ(final_rows[i][c], complete_rows[i][c]) << i << "," << c;
      }
    }
  }
}

// Every partial state kind through disk: the flushed partial rows are
// written as spill records by the typed partial-row writer and merged back,
// in kComplete and in kPartial -> kFinal. Doubles are multiples of 1/8, so
// every sum is exact however flushes split it, and the results must equal
// the unbudgeted run bit for bit.
Schema EveryKindSchema() {
  return Schema({{"g", DataType::kInt64, true},
                 {"i", DataType::kInt64, true},
                 {"f", DataType::kDouble, true},
                 {"s", DataType::kString, true},
                 {"dt", DataType::kDate32, true},
                 {"i32", DataType::kInt32, true},
                 {"b", DataType::kBool, true}});
}

TableData EveryKindData() {
  Random rng(123);
  TableData data(EveryKindSchema());
  auto maybe = [&rng](Value v) {
    return rng.Uniform(0, 9) == 0 ? Value::Null(v.type()) : v;
  };
  for (int64_t r = 0; r < 6000; ++r) {
    if (r % 1000 == 17) {
      // The all-NULL group: every aggregated column is NULL.
      data.AppendRow({Value::Int64(-1), Value::Null(DataType::kInt64),
                      Value::Null(DataType::kDouble),
                      Value::Null(DataType::kString),
                      Value::Null(DataType::kDate32),
                      Value::Null(DataType::kInt32),
                      Value::Null(DataType::kBool)});
      continue;
    }
    const int64_t n = rng.Uniform(0, 9999);
    data.AppendRow(
        {Value::Int64(rng.Uniform(0, 699)), maybe(Value::Int64(n - 5000)),
         maybe(Value::Double(static_cast<double>(rng.Uniform(-8000, 8000)) /
                             8.0)),
         maybe(Value::String(n % 7 == 0 ? "" : "s" + std::to_string(n))),
         maybe(Value::Date32(static_cast<int32_t>(8000 + n % 3000))),
         maybe(Value::Int32(static_cast<int32_t>(n % 1000 - 500))),
         maybe(Value::Bool(n % 2 == 0))});
  }
  return data;
}

std::vector<AggSpec> EveryKindAggregates() {
  return {{AggFn::kSum, 1, "sum_i"},   {AggFn::kSum, 2, "sum_f"},
          {AggFn::kAvg, 2, "avg_f"},   {AggFn::kMin, 1, "min_i"},
          {AggFn::kMax, 1, "max_i"},   {AggFn::kMin, 2, "min_f"},
          {AggFn::kMax, 2, "max_f"},   {AggFn::kMin, 3, "min_s"},
          {AggFn::kMax, 3, "max_s"},   {AggFn::kCount, 1, "cnt_i"},
          {AggFn::kCountStar, -1, "cnt"}, {AggFn::kMin, 4, "min_dt"},
          {AggFn::kMax, 5, "max_i32"}, {AggFn::kMin, 6, "min_b"},
          {AggFn::kMax, 6, "max_b"}};
}

TEST(AggSpillTest, EveryStateKindThroughDiskIsBitIdentical) {
  const TableData data = EveryKindData();
  HashAggregateOperator::Options logical;
  logical.group_by = {0};
  logical.aggregates = EveryKindAggregates();
  const size_t num_aggs = logical.aggregates.size();

  // kComplete.
  ExecContext plain;
  auto expected = RunAgg(data, logical, &plain);
  ExecContext tiny;
  tiny.operator_memory_budget = 4 * 1024;
  auto complete = RunAgg(data, logical, &tiny);
  EXPECT_GT(tiny.stats.build_rows_spilled, 0);
  ExpectBitIdentical(complete, expected);

  // kPartial -> kFinal, both stages under the same budget.
  auto two_stage = [&](int64_t budget, int64_t* rows_spilled,
                       TableData* partial_out) {
    ExecContext ctx;
    ctx.operator_memory_budget = budget;
    HashAggregateOperator::Options popts = logical;
    popts.phase = AggPhase::kPartial;
    HashAggregateOperator partial(
        std::make_unique<TableSourceOperator>(&data, &ctx), popts, &ctx);
    *partial_out = TableData(partial.output_schema());
    for (const auto& row : DrainOperator(&partial)) partial_out->AppendRow(row);

    HashAggregateOperator::Options fopts;
    fopts.phase = AggPhase::kFinal;
    fopts.group_by = {0};
    fopts.aggregates = logical.aggregates;
    for (size_t a = 0; a < num_aggs; ++a) {
      fopts.aggregates[a].column = static_cast<int>(1 + 2 * a);
    }
    HashAggregateOperator final_agg(
        std::make_unique<TableSourceOperator>(partial_out, &ctx), fopts, &ctx);
    auto rows = DrainOperator(&final_agg);
    SortRows(&rows);
    *rows_spilled = ctx.stats.build_rows_spilled;
    return rows;
  };
  int64_t spilled_plain = 0, spilled_tiny = 0;
  TableData partial_plain(EveryKindSchema()), partial_tiny(EveryKindSchema());
  auto final_plain = two_stage(0, &spilled_plain, &partial_plain);
  auto final_tiny = two_stage(4 * 1024, &spilled_tiny, &partial_tiny);
  EXPECT_EQ(spilled_plain, 0);
  EXPECT_GT(spilled_tiny, 0);
  ExpectBitIdentical(final_tiny, final_plain);
  ExpectBitIdentical(final_tiny, expected);

  // The typed writer keeps the PartialSchema types, and the all-NULL group
  // carries NULL values with zero counts (COUNT(*) counts its rows).
  const Schema& ps = partial_tiny.schema();
  auto value_col = [](size_t agg) { return static_cast<int>(1 + 2 * agg); };
  EXPECT_EQ(ps.field(value_col(11)).type, DataType::kDate32);  // min_dt
  EXPECT_EQ(ps.field(value_col(12)).type, DataType::kInt32);   // max_i32
  EXPECT_EQ(ps.field(value_col(13)).type, DataType::kBool);    // min_b
  EXPECT_EQ(ps.field(value_col(7)).type, DataType::kString);   // min_s
  bool saw_null_group = false;
  for (int64_t r = 0; r < partial_tiny.num_rows(); ++r) {
    std::vector<Value> row = partial_tiny.GetRow(r);
    for (size_t a = 0; a < num_aggs; ++a) {
      const Value& v = row[static_cast<size_t>(value_col(a))];
      if (!v.is_null()) {
        EXPECT_EQ(v.type(), ps.field(value_col(a)).type);
      }
    }
    if (row[0] != Value::Int64(-1)) continue;
    saw_null_group = true;
    for (size_t a = 0; a < num_aggs; ++a) {
      const Value& count = row[static_cast<size_t>(value_col(a) + 1)];
      EXPECT_TRUE(row[static_cast<size_t>(value_col(a))].is_null()) << a;
      if (logical.aggregates[a].fn == AggFn::kCountStar) {
        EXPECT_GT(count.int64(), 0);
      } else {
        EXPECT_EQ(count, Value::Int64(0)) << a;
      }
    }
  }
  EXPECT_TRUE(saw_null_group);
}

TEST(AggPhaseTest, FinalScalarOverEmptyInputEmitsOneRow) {
  TableData data(InSchema());
  ExecContext ctx;
  // Build the partial schema for a scalar COUNT/SUM.
  HashAggregateOperator::Options logical;
  logical.aggregates = {{AggFn::kCountStar, -1, "cnt"},
                        {AggFn::kSum, 2, "sum"}};
  Schema partial_schema = HashAggregateOperator::PartialSchema(
      data.schema(), {}, logical.aggregates);
  TableData empty_partials(partial_schema);

  HashAggregateOperator::Options fopts;
  fopts.phase = AggPhase::kFinal;
  fopts.aggregates = logical.aggregates;
  fopts.aggregates[0].column = 0;
  fopts.aggregates[1].column = 2;
  auto source = std::make_unique<TableSourceOperator>(&empty_partials, &ctx);
  HashAggregateOperator final_agg(std::move(source), fopts, &ctx);
  auto rows = DrainOperator(&final_agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(0));
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(AggPhaseTest, PartialSchemaShape) {
  Schema in = InSchema();
  Schema partial = HashAggregateOperator::PartialSchema(
      in, {0}, {{AggFn::kAvg, 3, "avg"}, {AggFn::kMin, 1, "m"}});
  ASSERT_EQ(partial.num_columns(), 5);
  EXPECT_EQ(partial.field(0).name, "g");
  EXPECT_EQ(partial.field(1).type, DataType::kDouble);  // avg sum
  EXPECT_EQ(partial.field(2).type, DataType::kInt64);   // count
  EXPECT_EQ(partial.field(3).type, DataType::kString);  // min(name)
}

}  // namespace
}  // namespace vstore

// --- Grouping on dictionary codes -------------------------------------------

namespace vstore {
namespace {

using testing_util::DrainOperator;
using testing_util::FillBatch;
using testing_util::SortRows;
using testing_util::TableSourceOperator;

// Emits the rows of a TableData with every fifth row inactive. For batches
// where coded(batch index) holds, each string column gets a code lane from
// its own StringDictionary, which grows as new strings appear. Null and
// inactive rows carry garbage codes, which the aggregate must ignore.
class CodedSourceOperator final : public BatchOperator {
 public:
  CodedSourceOperator(const TableData* data,
                      std::vector<StringDictionary*> dicts,
                      std::function<bool(int64_t)> coded, ExecContext* ctx)
      : data_(data), dicts_(std::move(dicts)), coded_(std::move(coded)),
        ctx_(ctx) {}

  const Schema& output_schema() const override { return data_->schema(); }
  std::string name() const override { return "CodedSource"; }

 protected:
  Status OpenImpl() override {
    pos_ = 0;
    batch_index_ = 0;
    output_ = std::make_unique<Batch>(data_->schema(), ctx_->batch_size);
    return Status::OK();
  }

  Result<Batch*> NextImpl() override {
    if (pos_ >= data_->num_rows()) return static_cast<Batch*>(nullptr);
    const int64_t n =
        std::min<int64_t>(ctx_->batch_size, data_->num_rows() - pos_);
    FillBatch(*data_, pos_, n, output_.get());
    uint8_t* active = output_->mutable_active();
    for (int64_t i = 0; i < n; ++i) {
      if ((pos_ + i) % 5 == 4) active[i] = 0;
    }
    output_->RecountActive();
    if (coded_(batch_index_)) {
      size_t d = 0;
      for (int c = 0; c < output_->num_columns(); ++c) {
        ColumnVector& cv = output_->column(c);
        if (cv.physical_type() != PhysicalType::kString) continue;
        StringDictionary* dict = dicts_[d++];
        uint64_t* codes = cv.mutable_codes();
        for (int64_t i = 0; i < n; ++i) {
          codes[i] = cv.validity()[i] && active[i]
                         ? static_cast<uint64_t>(dict->GetOrInsert(
                               cv.strings()[i], INT64_MAX))
                         : 0xdeadbeef;
        }
        cv.set_dictionary(dict);
      }
    }
    pos_ += n;
    ++batch_index_;
    return output_.get();
  }

 private:
  const TableData* data_;
  std::vector<StringDictionary*> dicts_;
  std::function<bool(int64_t)> coded_;
  ExecContext* ctx_;
  std::unique_ptr<Batch> output_;
  int64_t pos_ = 0;
  int64_t batch_index_ = 0;
};

struct AggRun {
  std::vector<std::vector<Value>> rows;  // sorted
  int64_t rows_aggregated = 0;
  int64_t rows_code_grouped = 0;
};

AggRun RunOver(BatchOperatorPtr source, HashAggregateOperator::Options options,
               ExecContext* ctx) {
  HashAggregateOperator agg(std::move(source), std::move(options), ctx);
  AggRun run;
  run.rows = DrainOperator(&agg);
  SortRows(&run.rows);
  OperatorProfile profile = agg.BuildProfile();
  run.rows_aggregated = profile.Counter("rows_aggregated");
  run.rows_code_grouped = profile.Counter("rows_code_grouped");
  return run;
}

// Runs `options` over `data` through a CodedSourceOperator whose string
// columns carry lanes in the batches `coded` selects.
AggRun RunCoded(const TableData& data, HashAggregateOperator::Options options,
                std::function<bool(int64_t)> coded, ExecContext* ctx) {
  std::vector<std::unique_ptr<StringDictionary>> owned;
  std::vector<StringDictionary*> dicts;
  for (const Field& f : data.schema().fields()) {
    if (f.type != DataType::kString) continue;
    owned.push_back(std::make_unique<StringDictionary>());
    dicts.push_back(owned.back().get());
  }
  return RunOver(std::make_unique<CodedSourceOperator>(
                     &data, dicts, std::move(coded), ctx),
                 std::move(options), ctx);
}

bool Always(int64_t) { return true; }
bool Never(int64_t) { return false; }

// Two low-cardinality string keys with nulls, a string payload for MIN/MAX,
// and an int and a double with fractional parts for SUM/AVG.
Schema CodeSchema() {
  return Schema({{"flag", DataType::kString, true},
                 {"status", DataType::kString, true},
                 {"name", DataType::kString, true},
                 {"v", DataType::kInt64, true},
                 {"d", DataType::kDouble, true}});
}

TableData CodeData(int64_t rows, uint64_t seed) {
  TableData data(CodeSchema());
  Random rng(seed);
  const char* flags[] = {"A", "N", "R"};
  const char* statuses[] = {"F", "O"};
  for (int64_t i = 0; i < rows; ++i) {
    int64_t f = rng.Uniform(0, 3);
    int64_t s = rng.Uniform(0, 2);
    data.AppendRow(
        {f == 3 ? Value::Null(DataType::kString) : Value::String(flags[f]),
         s == 2 ? Value::Null(DataType::kString) : Value::String(statuses[s]),
         Value::String("n" + std::to_string(rng.Uniform(0, 999))),
         Value::Int64(rng.Uniform(-1000, 1000)),
         Value::Double(static_cast<double>(rng.Uniform(1, 100000)) *
                       (1.0 - static_cast<double>(rng.Uniform(0, 10)) / 100.0))});
  }
  return data;
}

HashAggregateOperator::Options CodeOptions() {
  HashAggregateOperator::Options options;
  options.group_by = {0, 1};
  options.aggregates = {{AggFn::kSum, 4, "sum_d"},
                        {AggFn::kAvg, 4, "avg_d"},
                        {AggFn::kSum, 3, "sum_v"},
                        {AggFn::kMin, 2, "min_name"},
                        {AggFn::kMax, 2, "max_name"},
                        {AggFn::kCount, 4, "count_d"},
                        {AggFn::kCountStar, -1, "cnt"}};
  return options;
}

TEST(HashAggregateCodeTest, CodeAndHashGroupingAreBitIdentical) {
  TableData data = CodeData(6000, 3);
  ExecContext ctx;
  ctx.batch_size = 256;
  AggRun coded = RunCoded(data, CodeOptions(), Always, &ctx);
  AggRun hashed = RunCoded(data, CodeOptions(), Never, &ctx);
  // Doubles compare exactly: each accumulator folds its rows in order.
  EXPECT_EQ(coded.rows, hashed.rows);
  // 4 x 3 groups: every flag/status pair, null keys included.
  ASSERT_EQ(coded.rows.size(), 12u);
  EXPECT_TRUE(coded.rows[0][0].is_null() && coded.rows[0][1].is_null());
  EXPECT_EQ(coded.rows_aggregated, 4800);  // every fifth row inactive
  EXPECT_EQ(coded.rows_code_grouped, coded.rows_aggregated);
  EXPECT_EQ(hashed.rows_code_grouped, 0);
}

TEST(HashAggregateCodeTest, CodedAndUncodedBatchesShareGroups) {
  TableData data = CodeData(6000, 4);
  ExecContext ctx;
  ctx.batch_size = 256;
  AggRun mixed = RunCoded(
      data, CodeOptions(), [](int64_t b) { return b % 2 == 0; }, &ctx);
  AggRun hashed = RunCoded(data, CodeOptions(), Never, &ctx);
  EXPECT_EQ(mixed.rows, hashed.rows);
  EXPECT_GT(mixed.rows_code_grouped, 0);
  EXPECT_LT(mixed.rows_code_grouped, mixed.rows_aggregated);
}

TEST(HashAggregateCodeTest, GrowingDictionaryRebuildsTheCache) {
  // New keys keep arriving, so the dictionary (and the key's code domain)
  // grows between batches; past 4095 entries the domain exceeds the code
  // cache and the remaining batches fall back to hashing.
  TableData data(CodeSchema());
  Random rng(5);
  for (int64_t i = 0; i < 12000; ++i) {
    std::string flag = i < 3000 ? "k" + std::to_string(i / 300)
                                : "u" + std::to_string(rng.Uniform(0, 7999));
    data.AppendRow({Value::String(flag), Value::String("s"),
                    Value::String("n" + std::to_string(i % 7)),
                    Value::Int64(i), Value::Double(0.25 * static_cast<double>(i))});
  }
  ExecContext ctx;
  ctx.batch_size = 128;
  AggRun coded = RunCoded(data, CodeOptions(), Always, &ctx);
  AggRun hashed = RunCoded(data, CodeOptions(), Never, &ctx);
  EXPECT_EQ(coded.rows, hashed.rows);
  EXPECT_GT(coded.rows_code_grouped, 0);
  EXPECT_LT(coded.rows_code_grouped, coded.rows_aggregated);
}

TEST(HashAggregateCodeTest, BudgetFlushMidStreamMatchesUnbudgeted) {
  // 60 x 60 string keys fit the code cache (61 * 61 slots) but not a
  // 64 KiB budget, so the operator flushes to partitions mid-stream and
  // must not reuse cache entries that pointed into the flushed state.
  TableData data(CodeSchema());
  Random rng(6);
  for (int64_t i = 0; i < 30000; ++i) {
    data.AppendRow({Value::String("f" + std::to_string(rng.Uniform(0, 59))),
                    Value::String("s" + std::to_string(rng.Uniform(0, 59))),
                    Value::String("n" + std::to_string(rng.Uniform(0, 99))),
                    Value::Int64(rng.Uniform(-100, 100)),
                    // Quarters sum exactly, whatever the flush points.
                    Value::Double(static_cast<double>(rng.Uniform(0, 400)) /
                                  4.0)});
  }
  ExecContext plain;
  AggRun unbudgeted = RunCoded(data, CodeOptions(), Always, &plain);
  ExecContext tiny;
  tiny.operator_memory_budget = 64 * 1024;
  AggRun budgeted = RunCoded(data, CodeOptions(), Always, &tiny);
  EXPECT_EQ(budgeted.rows, unbudgeted.rows);
  EXPECT_GT(tiny.stats.build_rows_spilled, 0);
  EXPECT_EQ(budgeted.rows_code_grouped, budgeted.rows_aggregated);
}

TEST(HashAggregateCodeTest, DictionarySwitchAcrossUnionAll) {
  // Two column stores, each with its own primary dictionary; the second
  // sees the keys in another order (so other codes) plus one of its own.
  ColumnStoreTable::Options store_options;
  store_options.row_group_size = 1000;
  store_options.min_compress_rows = 100;
  TableData first = CodeData(2500, 7);
  TableData second(CodeSchema());
  second.AppendRow({Value::String("X"), Value::String("O"),
                    Value::String("x"), Value::Int64(1), Value::Double(0.5)});
  TableData tail = CodeData(2500, 8);
  for (int64_t i = tail.num_rows() - 1; i >= 0; --i) {
    second.AppendRow(tail.GetRow(i));
  }
  ColumnStoreTable t1("t1", CodeSchema(), store_options);
  ColumnStoreTable t2("t2", CodeSchema(), store_options);
  t1.BulkLoad(first).CheckOK();
  t2.BulkLoad(second).CheckOK();

  ExecContext ctx;
  std::vector<BatchOperatorPtr> scans;
  scans.push_back(std::make_unique<ColumnStoreScanOperator>(
      &t1, ColumnStoreScanOperator::Options(), &ctx));
  scans.push_back(std::make_unique<ColumnStoreScanOperator>(
      &t2, ColumnStoreScanOperator::Options(), &ctx));
  AggRun coded = RunOver(
      std::make_unique<UnionAllOperator>(std::move(scans), &ctx),
      CodeOptions(), &ctx);

  TableData both(CodeSchema());
  for (const TableData* part : {&first, &second}) {
    for (int64_t i = 0; i < part->num_rows(); ++i) {
      both.AppendRow(part->GetRow(i));
    }
  }
  AggRun hashed =
      RunOver(std::make_unique<TableSourceOperator>(&both, &ctx),
              CodeOptions(), &ctx);
  EXPECT_EQ(coded.rows, hashed.rows);
  EXPECT_EQ(coded.rows.size(), 13u);
  EXPECT_EQ(coded.rows_code_grouped, both.num_rows());
}

// --- High-cardinality grouping --------------------------------------------
// The group table at scale and on every key kind, in each way a GROUP BY
// runs: one complete stage; a partial stage per half of the rows merged by
// a final stage; and one complete stage under a budget that flushes to
// spill partitions while the table is still growing.

enum class AggMode { kComplete, kPartialFinal, kBudgeted };

struct ModeRun {
  std::vector<std::vector<Value>> rows;  // sorted
  int64_t spill_flushes = 0;
};

ModeRun RunInMode(const TableData& data,
                  const HashAggregateOperator::Options& logical, AggMode mode,
                  int64_t budget, int64_t batch_size = kDefaultBatchSize) {
  ModeRun run;
  ExecContext ctx;
  ctx.batch_size = batch_size;
  if (mode != AggMode::kPartialFinal) {
    if (mode == AggMode::kBudgeted) ctx.operator_memory_budget = budget;
    HashAggregateOperator agg(std::make_unique<TableSourceOperator>(&data, &ctx),
                              logical, &ctx);
    run.rows = DrainOperator(&agg);
    run.spill_flushes = agg.BuildProfile().Counter("spill_flushes");
    SortRows(&run.rows);
    return run;
  }
  TableData halves[2] = {TableData(data.schema()), TableData(data.schema())};
  for (int64_t i = 0; i < data.num_rows(); ++i) {
    halves[i % 2].AppendRow(data.GetRow(i));
  }
  HashAggregateOperator::Options popts = logical;
  popts.phase = AggPhase::kPartial;
  TableData partials(HashAggregateOperator::PartialSchema(
      data.schema(), logical.group_by, logical.aggregates));
  for (const TableData& half : halves) {
    HashAggregateOperator partial(
        std::make_unique<TableSourceOperator>(&half, &ctx), popts, &ctx);
    for (const auto& row : DrainOperator(&partial)) partials.AppendRow(row);
  }
  HashAggregateOperator::Options fopts;
  fopts.phase = AggPhase::kFinal;
  const int num_keys = static_cast<int>(logical.group_by.size());
  for (int k = 0; k < num_keys; ++k) fopts.group_by.push_back(k);
  fopts.aggregates = logical.aggregates;
  for (size_t a = 0; a < fopts.aggregates.size(); ++a) {
    fopts.aggregates[a].column = num_keys + 2 * static_cast<int>(a);
  }
  HashAggregateOperator final_agg(
      std::make_unique<TableSourceOperator>(&partials, &ctx), fopts, &ctx);
  run.rows = DrainOperator(&final_agg);
  SortRows(&run.rows);
  return run;
}

constexpr AggMode kAllModes[] = {AggMode::kComplete, AggMode::kPartialFinal,
                                 AggMode::kBudgeted};

TEST(GroupTableAggregateTest, ManyShuffledDistinctKeysMatchMapReference) {
  // 200k distinct keys in shuffled order, then 50k repeats of random ones.
  const int64_t distinct = 200000;
  Random rng(2024);
  std::vector<int64_t> keys(static_cast<size_t>(distinct));
  for (int64_t k = 0; k < distinct; ++k) {
    keys[static_cast<size_t>(k)] = (k - distinct / 2) * 2654435761LL;
  }
  for (int64_t k = distinct - 1; k > 0; --k) {
    std::swap(keys[static_cast<size_t>(k)],
              keys[static_cast<size_t>(rng.Uniform(0, k))]);
  }
  for (int64_t r = 0; r < 50000; ++r) {
    keys.push_back(keys[static_cast<size_t>(rng.Uniform(0, distinct - 1))]);
  }
  TableData data(Schema({{"k", DataType::kInt64, false},
                         {"v", DataType::kInt64, false}}));
  struct Ref {
    int64_t sum = 0;
    int64_t min = 0;
    int64_t count = 0;
  };
  std::map<int64_t, Ref> reference;
  for (int64_t key : keys) {
    const int64_t v = rng.Uniform(-1000, 1000);
    data.AppendRow({Value::Int64(key), Value::Int64(v)});
    Ref& ref = reference[key];
    if (ref.count == 0 || v < ref.min) ref.min = v;
    ref.sum += v;
    ++ref.count;
  }
  ASSERT_EQ(reference.size(), static_cast<size_t>(distinct));

  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kSum, 1, "sum"},
                        {AggFn::kMin, 1, "min"},
                        {AggFn::kCountStar, -1, "cnt"}};
  for (AggMode mode : kAllModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    // 1 MiB holds about 11k of these groups: each flush comes after the
    // table has doubled from its first size, long before the 200k groups.
    ModeRun run = RunInMode(data, options, mode, 1 << 20);
    ASSERT_EQ(run.rows.size(), reference.size());
    for (const auto& row : run.rows) {
      auto it = reference.find(row[0].int64());
      ASSERT_NE(it, reference.end());
      ASSERT_EQ(row[1].int64(), it->second.sum);
      ASSERT_EQ(row[2].int64(), it->second.min);
      ASSERT_EQ(row[3].int64(), it->second.count);
    }
    if (mode == AggMode::kBudgeted) {
      EXPECT_GE(run.spill_flushes, 10);
    }
  }
}

TEST(GroupTableAggregateTest, IntStringDoubleKeysWithNullsMatchMapReference) {
  Schema schema({{"g", DataType::kInt64, true},
                 {"s", DataType::kString, true},
                 {"d", DataType::kDouble, true},
                 {"v", DataType::kInt64, false}});
  TableData data(schema);
  using Key = std::tuple<std::optional<int64_t>, std::optional<std::string>,
                         std::optional<double>>;
  struct Ref {
    int64_t sum = 0;
    int64_t count = 0;
  };
  std::map<Key, Ref> reference;
  Random rng(99);
  for (int64_t i = 0; i < 60000; ++i) {
    Key key;
    if (rng.Uniform(0, 19) != 0) std::get<0>(key) = rng.Uniform(0, 199);
    if (rng.Uniform(0, 19) != 0) {
      // "" is a value of its own, not NULL.
      const int64_t s = rng.Uniform(0, 30);
      std::get<1>(key) = s == 30 ? "" : "key" + std::to_string(s);
    }
    if (rng.Uniform(0, 19) != 0) {
      std::get<2>(key) = static_cast<double>(rng.Uniform(-4, 5)) / 4.0;
    }
    const int64_t v = rng.Uniform(0, 1000);
    data.AppendRow(
        {std::get<0>(key) ? Value::Int64(*std::get<0>(key))
                          : Value::Null(DataType::kInt64),
         std::get<1>(key) ? Value::String(*std::get<1>(key))
                          : Value::Null(DataType::kString),
         std::get<2>(key) ? Value::Double(*std::get<2>(key))
                          : Value::Null(DataType::kDouble),
         Value::Int64(v)});
    Ref& ref = reference[key];
    ref.sum += v;
    ++ref.count;
  }

  HashAggregateOperator::Options options;
  options.group_by = {0, 1, 2};
  options.aggregates = {{AggFn::kSum, 3, "sum"},
                        {AggFn::kCountStar, -1, "cnt"}};
  for (AggMode mode : kAllModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ModeRun run = RunInMode(data, options, mode, 256 * 1024);
    ASSERT_EQ(run.rows.size(), reference.size());
    for (const auto& row : run.rows) {
      Key key;
      if (!row[0].is_null()) std::get<0>(key) = row[0].int64();
      if (!row[1].is_null()) std::get<1>(key) = row[1].str();
      if (!row[2].is_null()) std::get<2>(key) = row[2].dbl();
      auto it = reference.find(key);
      ASSERT_NE(it, reference.end());
      ASSERT_EQ(row[3].int64(), it->second.sum);
      ASSERT_EQ(row[4].int64(), it->second.count);
    }
    if (mode == AggMode::kBudgeted) {
      EXPECT_GE(run.spill_flushes, 2);
    }
  }
}

TEST(GroupTableAggregateTest, NaNAndSignedZeroKeysGroupLikeTheRowEngine) {
  // NaN rows form one group (their keys have one bit pattern), -0.0 and
  // 0.0 stay two groups, and NULL is a group of its own: 5 groups.
  Schema schema({{"d", DataType::kDouble, true},
                 {"v", DataType::kInt64, false}});
  std::vector<Value> keys;
  for (int i = 0; i < 150; ++i) {
    keys.push_back(Value::Double(std::numeric_limits<double>::quiet_NaN()));
  }
  for (int i = 0; i < 50; ++i) keys.push_back(Value::Double(-0.0));
  for (int i = 0; i < 50; ++i) keys.push_back(Value::Double(0.0));
  for (int i = 0; i < 100; ++i) keys.push_back(Value::Double(1.5));
  keys.push_back(Value::Null(DataType::kDouble));
  Random rng(7);
  for (size_t k = keys.size() - 1; k > 0; --k) {
    std::swap(keys[k], keys[static_cast<size_t>(
                           rng.Uniform(0, static_cast<int64_t>(k)))]);
  }
  TableData data(schema);
  for (size_t i = 0; i < keys.size(); ++i) {
    data.AppendRow({keys[i], Value::Int64(static_cast<int64_t>(i))});
  }

  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kCountStar, -1, "cnt"},
                        {AggFn::kSum, 1, "sum"}};
  RowStoreTable table("t", schema);
  table.Append(data).CheckOK();
  RowHashAggregateOperator row_agg(
      std::make_unique<RowStoreScanOperator>(&table),
      {options.group_by, options.aggregates});
  std::vector<std::vector<Value>> want;
  row_agg.Open().CheckOK();
  std::vector<Value> row;
  while (row_agg.Next(&row).ValueOrDie()) want.push_back(row);
  row_agg.Close();
  SortRows(&want);
  ASSERT_EQ(want.size(), 5u);

  for (AggMode mode : kAllModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    // Batches of 32 under a 1-byte budget: a flush after every batch, so
    // the NaN group is merged back from many partial rows.
    ModeRun run = RunInMode(data, options, mode, 1, /*batch_size=*/32);
    ExpectBitIdentical(run.rows, want);
    if (mode == AggMode::kBudgeted) {
      EXPECT_GE(run.spill_flushes, 10);
    }
  }
}

}  // namespace
}  // namespace vstore
