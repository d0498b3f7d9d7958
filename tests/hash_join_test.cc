#include <gtest/gtest.h>

#include <limits>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "exec/hash_join.h"
#include "exec/row/row_operator.h"
#include "storage/row_store.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::DrainOperator;
using testing_util::ExpectBitIdentical;
using testing_util::SortRows;
using testing_util::TableSourceOperator;

Schema LeftSchema() {
  return Schema({{"lk", DataType::kInt64, true},
                 {"lv", DataType::kString, true}});
}
Schema RightSchema() {
  return Schema({{"rk", DataType::kInt64, true},
                 {"rv", DataType::kString, true}});
}

TableData LeftRows(std::vector<std::pair<int64_t, std::string>> rows) {
  TableData data(LeftSchema());
  for (auto& [k, v] : rows) {
    data.AppendRow({Value::Int64(k), Value::String(v)});
  }
  return data;
}
TableData RightRows(std::vector<std::pair<int64_t, std::string>> rows) {
  TableData data(RightSchema());
  for (auto& [k, v] : rows) {
    data.AppendRow({Value::Int64(k), Value::String(v)});
  }
  return data;
}

std::vector<std::vector<Value>> RunJoin(const TableData& probe,
                                        const TableData& build,
                                        HashJoinOperator::Options options,
                                        ExecContext* ctx) {
  auto probe_op = std::make_unique<TableSourceOperator>(&probe, ctx);
  auto build_op = std::make_unique<TableSourceOperator>(&build, ctx);
  HashJoinOperator join(std::move(probe_op), std::move(build_op),
                        std::move(options), ctx);
  auto rows = DrainOperator(&join);
  SortRows(&rows);
  return rows;
}

HashJoinOperator::Options InnerOn0() {
  HashJoinOperator::Options options;
  options.join_type = JoinType::kInner;
  options.probe_keys = {0};
  options.build_keys = {0};
  return options;
}

TEST(HashJoinTest, InnerBasic) {
  ExecContext ctx;
  TableData probe = LeftRows({{1, "a"}, {2, "b"}, {3, "c"}});
  TableData build = RightRows({{2, "x"}, {3, "y"}, {4, "z"}});
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(2));
  EXPECT_EQ(rows[0][3], Value::String("x"));
  EXPECT_EQ(rows[1][0], Value::Int64(3));
  EXPECT_EQ(rows[1][3], Value::String("y"));
}

TEST(HashJoinTest, InnerDuplicatesProduceCrossProduct) {
  ExecContext ctx;
  TableData probe = LeftRows({{1, "p1"}, {1, "p2"}});
  TableData build = RightRows({{1, "b1"}, {1, "b2"}, {1, "b3"}});
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  EXPECT_EQ(rows.size(), 6u);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  ExecContext ctx;
  TableData probe(LeftSchema());
  probe.AppendRow({Value::Null(DataType::kInt64), Value::String("pnull")});
  probe.AppendRow({Value::Int64(1), Value::String("p1")});
  TableData build(RightSchema());
  build.AppendRow({Value::Null(DataType::kInt64), Value::String("bnull")});
  build.AppendRow({Value::Int64(1), Value::String("b1")});
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::String("p1"));
}

TEST(HashJoinTest, LeftOuterEmitsUnmatchedNullExtended) {
  ExecContext ctx;
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftOuter;
  TableData probe = LeftRows({{1, "a"}, {2, "b"}});
  TableData build = RightRows({{2, "x"}});
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  // Row with key 1 is null-extended.
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_TRUE(rows[0][2].is_null());
  EXPECT_TRUE(rows[0][3].is_null());
  EXPECT_EQ(rows[1][3], Value::String("x"));
}

TEST(HashJoinTest, LeftOuterNullProbeKeyEmitted) {
  ExecContext ctx;
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftOuter;
  TableData probe(LeftSchema());
  probe.AppendRow({Value::Null(DataType::kInt64), Value::String("pn")});
  TableData build = RightRows({{1, "x"}});
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][2].is_null());
}

TEST(HashJoinTest, LeftSemiEmitsProbeOnceRegardlessOfDuplicates) {
  ExecContext ctx;
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftSemi;
  TableData probe = LeftRows({{1, "a"}, {2, "b"}, {3, "c"}});
  TableData build = RightRows({{1, "x"}, {1, "y"}, {3, "z"}});
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 2u);  // probe columns only
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[1][0], Value::Int64(3));
}

TEST(HashJoinTest, LeftAntiEmitsNonMatching) {
  ExecContext ctx;
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftAnti;
  TableData probe = LeftRows({{1, "a"}, {2, "b"}, {3, "c"}});
  TableData build = RightRows({{2, "x"}});
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[1][0], Value::Int64(3));
}

TEST(HashJoinTest, MultiColumnKeys) {
  Schema ls({{"k1", DataType::kInt64, true},
             {"k2", DataType::kString, true}});
  Schema rs({{"j1", DataType::kInt64, true},
             {"j2", DataType::kString, true},
             {"payload", DataType::kInt64, true}});
  TableData probe(ls);
  probe.AppendRow({Value::Int64(1), Value::String("a")});
  probe.AppendRow({Value::Int64(1), Value::String("b")});
  TableData build(rs);
  build.AppendRow({Value::Int64(1), Value::String("a"), Value::Int64(10)});
  build.AppendRow({Value::Int64(1), Value::String("c"), Value::Int64(20)});

  ExecContext ctx;
  HashJoinOperator::Options options;
  options.probe_keys = {0, 1};
  options.build_keys = {0, 1};
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][4], Value::Int64(10));
}

TEST(HashJoinTest, EmptyBuildSide) {
  ExecContext ctx;
  TableData probe = LeftRows({{1, "a"}});
  TableData build(RightSchema());
  EXPECT_TRUE(RunJoin(probe, build, InnerOn0(), &ctx).empty());
  auto anti = InnerOn0();
  anti.join_type = JoinType::kLeftAnti;
  EXPECT_EQ(RunJoin(probe, build, anti, &ctx).size(), 1u);
}

TEST(HashJoinTest, EmptyProbeSide) {
  ExecContext ctx;
  TableData probe(LeftSchema());
  TableData build = RightRows({{1, "x"}});
  EXPECT_TRUE(RunJoin(probe, build, InnerOn0(), &ctx).empty());
}

TEST(HashJoinTest, BloomFilterPopulatedDuringBuild) {
  ExecContext ctx;
  BloomFilter filter;
  auto options = InnerOn0();
  options.bloom_target = &filter;
  TableData probe = LeftRows({{1, "a"}});
  TableData build = RightRows({{7, "x"}, {9, "y"}});
  auto probe_op = std::make_unique<TableSourceOperator>(&probe, &ctx);
  auto build_op = std::make_unique<TableSourceOperator>(&build, &ctx);
  HashJoinOperator join(std::move(probe_op), std::move(build_op), options,
                        &ctx);
  join.Open().CheckOK();
  // The filter must admit the build keys, hashed as the probe-side scan
  // hashes the values it tests.
  for (int64_t k : {7, 9}) {
    EXPECT_TRUE(
        filter.MayContain(SingleKeyHash(HashInt64(static_cast<uint64_t>(k)))))
        << k;
  }
  join.Close();
  EXPECT_EQ(join.bloom_filter(), &filter);
}

// Large randomized join checked against a reference implementation, with
// and without a spill-inducing budget: results must be identical.
class HashJoinSpillTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(HashJoinSpillTest, MatchesReference) {
  const int64_t budget = GetParam();
  Random rng(33);
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 3000; ++i) {
    probe.AppendRow({Value::Int64(rng.Uniform(0, 499)),
                     Value::String("p" + std::to_string(i))});
  }
  for (int i = 0; i < 1000; ++i) {
    build.AppendRow({Value::Int64(rng.Uniform(0, 799)),
                     Value::String("b" + std::to_string(i))});
  }

  // Reference: nested loops.
  std::vector<std::vector<Value>> expected;
  for (int64_t p = 0; p < probe.num_rows(); ++p) {
    for (int64_t b = 0; b < build.num_rows(); ++b) {
      if (probe.column(0).GetInt64(p) == build.column(0).GetInt64(b)) {
        std::vector<Value> row = probe.GetRow(p);
        std::vector<Value> brow = build.GetRow(b);
        row.insert(row.end(), brow.begin(), brow.end());
        expected.push_back(std::move(row));
      }
    }
  }
  SortRows(&expected);

  ExecContext ctx;
  ctx.operator_memory_budget = budget;
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  ASSERT_EQ(rows.size(), expected.size());
  EXPECT_EQ(rows, expected);
  if (budget > 0) {
    EXPECT_GT(ctx.stats.spill_partitions, 0);
    EXPECT_GT(ctx.stats.build_rows_spilled, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, HashJoinSpillTest,
                         ::testing::Values(0 /* unlimited */, 16 * 1024,
                                           4 * 1024));

TEST(HashJoinTest, SpillingLeftOuterMatchesInMemory) {
  Random rng(44);
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 2000; ++i) {
    probe.AppendRow({Value::Int64(rng.Uniform(0, 999)),
                     Value::String("p" + std::to_string(i))});
  }
  for (int i = 0; i < 500; ++i) {
    build.AppendRow({Value::Int64(rng.Uniform(0, 499)),
                     Value::String("b" + std::to_string(i))});
  }
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftOuter;

  ExecContext mem_ctx;
  auto in_memory = RunJoin(probe, build, options, &mem_ctx);
  ExecContext spill_ctx;
  spill_ctx.operator_memory_budget = 8 * 1024;
  auto spilled = RunJoin(probe, build, options, &spill_ctx);
  EXPECT_GT(spill_ctx.stats.build_rows_spilled, 0);
  EXPECT_EQ(in_memory, spilled);
}

TEST(HashJoinTest, SpillingSemiAndAntiMatchInMemory) {
  Random rng(55);
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 1500; ++i) {
    probe.AppendRow({Value::Int64(rng.Uniform(0, 299)),
                     Value::String("p" + std::to_string(i))});
  }
  for (int i = 0; i < 400; ++i) {
    build.AppendRow({Value::Int64(rng.Uniform(0, 399)),
                     Value::String("b" + std::to_string(i))});
  }
  for (JoinType jt : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    auto options = InnerOn0();
    options.join_type = jt;
    ExecContext mem_ctx;
    auto in_memory = RunJoin(probe, build, options, &mem_ctx);
    ExecContext spill_ctx;
    spill_ctx.operator_memory_budget = 4 * 1024;
    auto spilled = RunJoin(probe, build, options, &spill_ctx);
    EXPECT_EQ(in_memory, spilled) << JoinTypeName(jt);
  }
}

// Probe and build rows with NULL keys and NULL or empty string payloads.
TableData NullableRows(const Schema& schema, int rows, int64_t key_domain,
                       const std::string& prefix, uint64_t seed) {
  Random rng(seed);
  TableData data(schema);
  for (int i = 0; i < rows; ++i) {
    Value key = rng.Uniform(0, 19) == 0
                    ? Value::Null(DataType::kInt64)
                    : Value::Int64(rng.Uniform(0, key_domain));
    Value payload;
    switch (rng.Uniform(0, 5)) {
      case 0:
        payload = Value::Null(DataType::kString);
        break;
      case 1:
        payload = Value::String("");
        break;
      default:
        payload = Value::String(prefix + std::to_string(i));
    }
    data.AppendRow({key, payload});
  }
  return data;
}

TEST(HashJoinTest, SpillingOuterSemiAntiWithNullsMatchInMemory) {
  TableData probe = NullableRows(LeftSchema(), 2000, 399, "p", 66);
  TableData build = NullableRows(RightSchema(), 600, 299, "b", 67);
  int64_t null_probe_keys = 0;
  for (int64_t i = 0; i < probe.num_rows(); ++i) {
    null_probe_keys += probe.column(0).IsNull(i) ? 1 : 0;
  }
  ASSERT_GT(null_probe_keys, 0);
  // 4 KiB spills most partitions; one byte spills every partition that
  // holds a build row, so the drain emits all of the output.
  for (int64_t budget : {int64_t{4 * 1024}, int64_t{1}}) {
    for (JoinType jt : {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      auto options = InnerOn0();
      options.join_type = jt;
      ExecContext mem_ctx;
      auto in_memory = RunJoin(probe, build, options, &mem_ctx);
      ExecContext spill_ctx;
      spill_ctx.operator_memory_budget = budget;
      auto spilled = RunJoin(probe, build, options, &spill_ctx);
      EXPECT_GT(spill_ctx.stats.probe_rows_spilled, 0) << JoinTypeName(jt);
      EXPECT_EQ(in_memory, spilled) << JoinTypeName(jt) << " " << budget;
      if (jt == JoinType::kLeftOuter || jt == JoinType::kLeftAnti) {
        // NULL-key probe rows never match but are still emitted.
        int64_t null_keys_out = 0;
        for (const auto& row : spilled) null_keys_out += row[0].is_null();
        EXPECT_EQ(null_keys_out, null_probe_keys) << JoinTypeName(jt);
      }
    }
  }
}

// The drain holds one spilled partition at a time: a spilling join's
// operator-tracker peak stays well below the unbudgeted join's, whose
// whole build is resident.
TEST(HashJoinTest, SpillDrainReleasesEachPartition) {
  Random rng(99);
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 20000; ++i) {
    probe.AppendRow({Value::Int64(rng.Uniform(0, 59999)),
                     Value::String("p" + std::to_string(i))});
  }
  for (int i = 0; i < 40000; ++i) {
    build.AppendRow({Value::Int64(rng.Uniform(0, 59999)),
                     Value::String("b" + std::to_string(i))});
  }
  auto run = [&](int64_t budget, OperatorProfile* profile) {
    MemoryTracker query("query", "test", nullptr);
    ExecContext ctx;
    ctx.memory_tracker = &query;
    ctx.operator_memory_budget = budget;
    HashJoinOperator join(std::make_unique<TableSourceOperator>(&probe, &ctx),
                          std::make_unique<TableSourceOperator>(&build, &ctx),
                          InnerOn0(), &ctx);
    auto rows = DrainOperator(&join);
    SortRows(&rows);
    *profile = join.BuildProfile();
    if (budget > 0) {
      EXPECT_GT(ctx.stats.spill_partitions, 0);
    }
    return rows;
  };
  OperatorProfile unbudgeted, budgeted;
  auto expected = run(0, &unbudgeted);
  auto rows = run(16 * 1024, &budgeted);
  EXPECT_EQ(rows, expected);
  // peak_memory_bytes is the operator tracker's high-water mark.
  EXPECT_GT(budgeted.peak_memory_bytes, 0);
  EXPECT_LT(budgeted.peak_memory_bytes, unbudgeted.peak_memory_bytes / 2)
      << budgeted.peak_memory_bytes << " vs " << unbudgeted.peak_memory_bytes;
}

TEST(HashJoinTest, OutputSpansManyBatches) {
  // Cross-product bigger than one output batch exercises resumable
  // chain-walk emission.
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 50; ++i) {
    probe.AppendRow({Value::Int64(1), Value::String("p" + std::to_string(i))});
    build.AppendRow({Value::Int64(1), Value::String("b" + std::to_string(i))});
  }
  ExecContext ctx;
  ctx.batch_size = 64;  // 2500 outputs / 64 per batch
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  EXPECT_EQ(rows.size(), 2500u);
}

// Join keys match by the rule GROUP BY uses: doubles by bit pattern. A
// NaN probe key finds the NaN build row, -0.0 finds only -0.0, and 0.0
// only 0.0, as in the row engine. 400 filler build keys let a small budget
// spill the build, so spilled probe rows go through the drain's probe.
TEST(HashJoinTest, NaNAndSignedZeroKeysMatchLikeTheRowEngine) {
  Schema probe_schema({{"pk", DataType::kDouble, true},
                       {"pv", DataType::kInt64, false}});
  Schema build_schema({{"bk", DataType::kDouble, true},
                       {"bv", DataType::kInt64, false}});
  const double special[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                            0.0, 2.5};
  TableData probe(probe_schema);
  TableData build(build_schema);
  int64_t id = 0;
  for (double k : special) {
    build.AppendRow({Value::Double(k), Value::Int64(id++)});
    for (int i = 0; i < 20; ++i) {
      probe.AppendRow({Value::Double(k), Value::Int64(id++)});
    }
  }
  for (int i = 0; i < 400; ++i) {
    build.AppendRow({Value::Double(100.0 + i), Value::Int64(id++)});
  }
  for (int i = 0; i < 50; ++i) {
    probe.AppendRow({Value::Double(100.0 + 7 * i), Value::Int64(id++)});
  }
  for (int i = 0; i < 5; ++i) {
    probe.AppendRow({Value::Double(7.0), Value::Int64(id++)});
  }
  for (int i = 0; i < 3; ++i) {
    probe.AppendRow({Value::Null(DataType::kDouble), Value::Int64(id++)});
  }
  RowStoreTable probe_table("p", probe_schema);
  RowStoreTable build_table("b", build_schema);
  probe_table.Append(probe).CheckOK();
  build_table.Append(build).CheckOK();

  const std::pair<JoinType, size_t> cases[] = {{JoinType::kInner, 130},
                                               {JoinType::kLeftOuter, 138},
                                               {JoinType::kLeftSemi, 130},
                                               {JoinType::kLeftAnti, 8}};
  for (const auto& [type, expected_rows] : cases) {
    SCOPED_TRACE(JoinTypeName(type));
    RowHashJoinOperator row_join(
        std::make_unique<RowStoreScanOperator>(&probe_table),
        std::make_unique<RowStoreScanOperator>(&build_table),
        {type, {0}, {0}});
    std::vector<std::vector<Value>> want;
    row_join.Open().CheckOK();
    std::vector<Value> row;
    while (row_join.Next(&row).ValueOrDie()) want.push_back(row);
    row_join.Close();
    SortRows(&want);
    ASSERT_EQ(want.size(), expected_rows);

    HashJoinOperator::Options options = InnerOn0();
    options.join_type = type;
    for (int64_t budget : {int64_t{0}, int64_t{2048}}) {
      SCOPED_TRACE(budget);
      ExecContext ctx;
      ctx.operator_memory_budget = budget;
      ExpectBitIdentical(RunJoin(probe, build, options, &ctx), want);
      if (budget > 0) {
        EXPECT_GT(ctx.stats.build_rows_spilled, 0);
      }
    }
  }
}

}  // namespace
}  // namespace vstore
