// Differential testing of sharded scatter-gather execution: the same
// seeded data and DML history loaded into an unsharded column store, a
// 1-shard table, and an 8-shard table must answer every query with the
// same multiset of rows. Partition pruning is checked against EXPLAIN
// ANALYZE: a partition-key point query on 8 shards must report 7 shards
// pruned while staying bit-identical to the unsharded plan.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/random.h"
#include "query/executor.h"
#include "storage/sharded_table.h"
#include "test_operators.h"
#include "test_util.h"

namespace vstore {
namespace {

using testing_util::MakeTestTable;
using testing_util::SortRows;

constexpr int64_t kRows = 4000;

ColumnStoreTable::Options StoreOptions() {
  ColumnStoreTable::Options options;
  options.row_group_size = 512;
  options.min_compress_rows = 16;
  return options;
}

// One logical table materialized three ways in one catalog: "flat"
// (unsharded), "s1" (sharded, 1 shard), "s8" (sharded, 8 shards). A
// seeded DML history (inserts, deletes, updates including partition-key
// moves) is replayed identically against all three.
struct ShardedDiffFixture {
  Catalog catalog;
  ColumnStoreTable* flat = nullptr;
  ShardedTable* s1 = nullptr;
  ShardedTable* s8 = nullptr;

  explicit ShardedDiffFixture(uint64_t seed = 17) {
    TableData data = MakeTestTable(kRows, /*seed=*/42);

    auto cs = std::make_unique<ColumnStoreTable>("flat", data.schema(),
                                                 StoreOptions());
    cs->BulkLoad(data).CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
    flat = catalog.GetColumnStore("flat");

    for (int shards : {1, 8}) {
      ShardedTable::Options options;
      options.num_shards = shards;
      options.partition_key = "id";
      options.shard_options = StoreOptions();
      auto st = std::make_unique<ShardedTable>(
          "s" + std::to_string(shards), data.schema(), std::move(options));
      st->BulkLoad(data).CheckOK();
      catalog.AddShardedTable(std::move(st)).CheckOK();
    }
    s1 = catalog.GetShardedTable("s1");
    s8 = catalog.GetShardedTable("s8");

    ReplaySeededDml(seed);
  }

  // The same logical operations against all three tables: trickle inserts
  // (tracked ids), deletes of tracked rows, updates that sometimes move
  // the partition key (cross-shard on s8, plain update elsewhere).
  void ReplaySeededDml(uint64_t seed) {
    Random rng(seed);
    TableData extra = MakeTestTable(600, /*seed=*/seed);
    std::vector<RowId> flat_ids;
    std::vector<ShardRowId> s1_ids;
    std::vector<ShardRowId> s8_ids;
    for (int64_t i = 0; i < 600; ++i) {
      std::vector<Value> row = extra.GetRow(i);
      row[0] = Value::Int64(kRows + i);  // keep ids unique
      flat_ids.push_back(flat->Insert(row).ValueOrDie());
      s1_ids.push_back(s1->Insert(row).ValueOrDie());
      s8_ids.push_back(s8->Insert(row).ValueOrDie());
    }
    // Delete a seeded subset of the trickled rows.
    for (int64_t i = 0; i < 600; ++i) {
      if (rng.Uniform(0, 9) < 2) {
        flat->Delete(flat_ids[static_cast<size_t>(i)]).CheckOK();
        s1->Delete(s1_ids[static_cast<size_t>(i)]).CheckOK();
        s8->Delete(s8_ids[static_cast<size_t>(i)]).CheckOK();
      } else if (rng.Uniform(0, 9) < 3) {
        // Update; every third update moves the partition key, which on s8
        // re-routes the row to a different shard.
        std::vector<Value> row = extra.GetRow(i);
        int64_t new_id = rng.Uniform(0, 2) == 0
                             ? kRows + 1000 + i  // new key: cross-shard move
                             : kRows + i;        // same key: in place
        row[0] = Value::Int64(new_id);
        row[3] = Value::Double(static_cast<double>(rng.Uniform(0, 9999)));
        flat_ids[static_cast<size_t>(i)] =
            flat->Update(flat_ids[static_cast<size_t>(i)], row).ValueOrDie();
        s1_ids[static_cast<size_t>(i)] =
            s1->Update(s1_ids[static_cast<size_t>(i)], row).ValueOrDie();
        s8_ids[static_cast<size_t>(i)] =
            s8->Update(s8_ids[static_cast<size_t>(i)], row).ValueOrDie();
      }
    }
  }

  QueryResult Run(const PlanPtr& plan, int dop = 1,
                  int64_t memory_budget = 0) {
    QueryOptions options;
    options.dop = dop;
    options.query_memory_budget = memory_budget;
    QueryExecutor exec(&catalog, options);
    return exec.Execute(plan).ValueOrDie();
  }
};

std::vector<std::vector<Value>> Rows(const QueryResult& result) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < result.data.num_rows(); ++i) {
    rows.push_back(result.data.GetRow(i));
  }
  SortRows(&rows);
  return rows;
}

// Sum of a counter over every Exchange node in the profile tree.
int64_t ProfileCounter(const OperatorProfile& node, const std::string& name) {
  return node.CounterDeep(name);
}

// Builds the same plan shape against each backing table and requires the
// sorted row multisets to match bit-for-bit.
void ExpectAllBackingsAgree(
    ShardedDiffFixture* f,
    const std::function<PlanPtr(const std::string&)>& make_plan, int dop = 1) {
  QueryResult base = f->Run(make_plan("flat"), dop);
  std::vector<std::vector<Value>> expected = Rows(base);
  for (const std::string& table : {std::string("s1"), std::string("s8")}) {
    QueryResult got = f->Run(make_plan(table), dop);
    EXPECT_EQ(got.rows_returned, base.rows_returned) << table;
    EXPECT_EQ(Rows(got), expected) << table << " diverged from flat";
  }
}

TEST(ShardedDifferentialTest, FullScanIsBitIdentical) {
  ShardedDiffFixture f;
  ExpectAllBackingsAgree(&f, [&](const std::string& t) {
    return PlanBuilder::Scan(f.catalog, t).Build();
  });
}

TEST(ShardedDifferentialTest, FilterOnNonPartitionColumnAgrees) {
  ShardedDiffFixture f;
  ExpectAllBackingsAgree(&f, [&](const std::string& t) {
    PlanBuilder b = PlanBuilder::Scan(f.catalog, t);
    b.Filter(expr::Ge(expr::Column(b.schema(), "bucket"),
                      expr::Lit(Value::Int64(5))));
    return b.Build();
  });
}

TEST(ShardedDifferentialTest, GroupByAggregateAgrees) {
  ShardedDiffFixture f;
  for (int dop : {1, 4}) {
    ExpectAllBackingsAgree(
        &f,
        [&](const std::string& t) {
          PlanBuilder b = PlanBuilder::Scan(f.catalog, t);
          b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                                   {AggFn::kSum, "id", "id_sum"},
                                   {AggFn::kMin, "amount", "lo"},
                                   {AggFn::kMax, "amount", "hi"}});
          return b.Build();
        },
        dop);
  }
}

TEST(ShardedDifferentialTest, JoinAgainstShardedProbeAgrees) {
  ShardedDiffFixture f;
  // A small dimension table joined from each backing of the fact side.
  Schema dim_schema({{"bucket_id", DataType::kInt64, false},
                     {"label", DataType::kString, false}});
  TableData dim(dim_schema);
  for (int64_t i = 0; i < 10; ++i) {
    dim.column(0).AppendInt64(i);
    dim.column(1).AppendString("b" + std::to_string(i));
  }
  auto dim_cs = std::make_unique<ColumnStoreTable>("dim", dim_schema,
                                                   StoreOptions());
  dim_cs->BulkLoad(dim).CheckOK();
  f.catalog.AddColumnStore(std::move(dim_cs)).CheckOK();

  for (int dop : {1, 4}) {
    ExpectAllBackingsAgree(
        &f,
        [&](const std::string& t) {
          PlanBuilder b = PlanBuilder::Scan(f.catalog, t);
          b.Join(JoinType::kInner,
                 PlanBuilder::Scan(f.catalog, "dim").Build(), {"bucket"},
                 {"bucket_id"});
          b.Aggregate({"label"}, {{AggFn::kCountStar, "", "cnt"},
                                  {AggFn::kSum, "id", "id_sum"}});
          return b.Build();
        },
        dop);
  }
}

// The acceptance criterion: a partition-key point query on 8 shards
// prunes 7 of them (visible in EXPLAIN ANALYZE and metrics) and still
// returns exactly what the unsharded plan returns.
TEST(ShardedDifferentialTest, PointQueryPrunesSevenOfEightShards) {
  ShardedDiffFixture f;
  auto make_plan = [&](const std::string& t) {
    PlanBuilder b = PlanBuilder::Scan(f.catalog, t);
    b.Filter(expr::Eq(expr::Column(b.schema(), "id"),
                      expr::Lit(Value::Int64(123))));
    return b.Build();
  };
  QueryResult base = f.Run(make_plan("flat"));
  QueryResult sharded = f.Run(make_plan("s8"));
  EXPECT_EQ(Rows(sharded), Rows(base));
  EXPECT_EQ(ProfileCounter(sharded.profile, "shards_total"), 8);
  EXPECT_EQ(ProfileCounter(sharded.profile, "shards_pruned"), 7);
  // The pruning shows up in rendered EXPLAIN ANALYZE output too.
  std::string text = FormatProfile(sharded.profile);
  EXPECT_NE(text.find("shards_pruned"), std::string::npos) << text;

  // And in the engine-wide metrics.
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* pruned =
      registry.GetCounter("vstore_scan_shards_pruned_total", "table", "s8");
  int64_t before = pruned->Value();
  (void)f.Run(make_plan("s8"));
  EXPECT_EQ(pruned->Value() - before, 7);
}

TEST(ShardedDifferentialTest, InListPrunesToListedShardsOnly) {
  ShardedDiffFixture f;
  std::vector<Value> keys = {Value::Int64(5), Value::Int64(77),
                             Value::Int64(123)};
  auto make_plan = [&](const std::string& t) {
    PlanBuilder b = PlanBuilder::Scan(f.catalog, t);
    b.Filter(expr::In(expr::Column(b.schema(), "id"), keys));
    return b.Build();
  };
  QueryResult base = f.Run(make_plan("flat"));
  ASSERT_EQ(base.rows_returned, 3);
  QueryResult sharded = f.Run(make_plan("s8"));
  EXPECT_EQ(Rows(sharded), Rows(base));
  // At most 3 shards can host the 3 listed keys; the rest are pruned.
  int64_t scanned = ProfileCounter(sharded.profile, "shards_total") -
                    ProfileCounter(sharded.profile, "shards_pruned");
  EXPECT_LE(scanned, 3);
  EXPECT_GE(scanned, 1);
}

TEST(ShardedDifferentialTest, ContradictoryPointPredicatesPruneEverything) {
  ShardedDiffFixture f;
  // id == 5 AND id == 700000 routes to at most two shards but matches no
  // row; an empty scatter must still produce a well-formed empty result.
  auto make_plan = [&](const std::string& t) {
    PlanBuilder b = PlanBuilder::Scan(f.catalog, t);
    b.Filter(expr::And(expr::Eq(expr::Column(b.schema(), "id"),
                                expr::Lit(Value::Int64(5))),
                       expr::Eq(expr::Column(b.schema(), "id"),
                                expr::Lit(Value::Int64(700000)))));
    return b.Build();
  };
  QueryResult base = f.Run(make_plan("flat"));
  QueryResult sharded = f.Run(make_plan("s8"));
  EXPECT_EQ(base.rows_returned, 0);
  EXPECT_EQ(sharded.rows_returned, 0);
}

TEST(ShardedDifferentialTest, RowModeAgreesWithBatchMode) {
  ShardedDiffFixture f;
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "s8");
  b.Filter(expr::Lt(expr::Column(b.schema(), "id"),
                    expr::Lit(Value::Int64(500))));
  PlanPtr plan = b.Build();
  QueryOptions batch_options;
  batch_options.mode = ExecutionMode::kBatch;
  QueryOptions row_options;
  row_options.mode = ExecutionMode::kRow;
  QueryResult batch =
      QueryExecutor(&f.catalog, batch_options).Execute(plan).ValueOrDie();
  QueryResult row =
      QueryExecutor(&f.catalog, row_options).Execute(plan).ValueOrDie();
  EXPECT_EQ(Rows(batch), Rows(row));
  EXPECT_EQ(batch.rows_returned, 500);
}

// Scatter-gather under a tiny per-query budget: the budget crossing fires
// on whichever fragment charges past it, every fragment observes it
// through the tracker hierarchy, and the gathered result must still be
// bit-identical to the unbudgeted unsharded run.
TEST(ShardedDifferentialTest, TinyMemoryBudgetIsBitIdenticalAcrossShards) {
  ShardedDiffFixture f;
  constexpr int64_t kTinyBudget = 64 * 1024;
  int64_t spill_before = GlobalSpillBytes();

  auto join_agg_plan = [&](const std::string& t) {
    PlanBuilder b = PlanBuilder::Scan(f.catalog, t);
    b.Join(JoinType::kInner, PlanBuilder::Scan(f.catalog, "flat").Build(),
           {"bucket"}, {"bucket"});
    b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                             {AggFn::kSum, "id", "id_sum"}});
    return b.Build();
  };
  auto group_plan = [&](const std::string& t) {
    PlanBuilder b = PlanBuilder::Scan(f.catalog, t);
    b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                             {AggFn::kSum, "id", "id_sum"},
                             {AggFn::kMin, "amount", "lo"},
                             {AggFn::kMax, "amount", "hi"}});
    return b.Build();
  };

  for (const auto& make_plan : {std::function<PlanPtr(const std::string&)>(
                                    join_agg_plan),
                                std::function<PlanPtr(const std::string&)>(
                                    group_plan)}) {
    std::vector<std::vector<Value>> expected =
        Rows(f.Run(make_plan("flat"), /*dop=*/1));
    for (const std::string& table : {std::string("s1"), std::string("s8")}) {
      for (int dop : {1, 4}) {
        QueryResult got = f.Run(make_plan(table), dop, kTinyBudget);
        EXPECT_EQ(Rows(got), expected)
            << table << " dop=" << dop << " diverged under budget";
      }
    }
  }
  EXPECT_GT(GlobalSpillBytes(), spill_before)
      << "tiny budget forced no spill in the sharded suite";
}

// A GROUP BY on a string column groups on dictionary codes: every shard
// is a column store with its own primary dictionary, so the gathered
// batches switch dictionaries, and delta-store rows arrive without codes.
// Across DML-history seeds, dops and the tiny budget, the answer must match
// the unsharded one and the code path must have run.
TEST(ShardedDifferentialTest, StringGroupByGroupsOnCodes) {
  constexpr int64_t kTinyBudget = 64 * 1024;
  auto plan = [](ShardedDiffFixture* f, const std::string& t) {
    PlanBuilder b = PlanBuilder::Scan(f->catalog, t);
    b.Aggregate({"name"}, {{AggFn::kCountStar, "", "cnt"},
                           {AggFn::kSum, "id", "id_sum"},
                           {AggFn::kMin, "amount", "lo"},
                           {AggFn::kMax, "name", "hi"}});
    return b.Build();
  };
  for (uint64_t seed : {17, 18, 19}) {
    ShardedDiffFixture f(seed);
    std::vector<std::vector<Value>> expected =
        Rows(f.Run(plan(&f, "flat"), /*dop=*/1));
    for (int64_t budget : {int64_t{0}, kTinyBudget}) {
      int64_t code_grouped = 0;
      for (const std::string& table : {std::string("flat"),
                                       std::string("s1"), std::string("s8")}) {
        for (int dop : {1, 4}) {
          QueryResult got = f.Run(plan(&f, table), dop, budget);
          EXPECT_EQ(Rows(got), expected)
              << table << " dop=" << dop << " budget=" << budget
              << " seed=" << seed;
          code_grouped += ProfileCounter(got.profile, "rows_code_grouped");
        }
      }
      EXPECT_GT(code_grouped, 0) << "budget=" << budget << " seed=" << seed;
    }
  }
}

TEST(ShardedDifferentialTest, SysShardsViewMatchesStorage) {
  ShardedDiffFixture f;
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "sys.shards");
  b.Filter(expr::Eq(expr::Column(b.schema(), "table_name"),
                    expr::Lit(Value::String("s8"))));
  b.Aggregate({}, {{AggFn::kCountStar, "", "shards"},
                   {AggFn::kSum, "rows", "rows"},
                   {AggFn::kSum, "deleted_rows", "deleted"}});
  QueryResult result = f.Run(b.Build());
  ASSERT_EQ(result.rows_returned, 1);
  EXPECT_EQ(result.data.column(0).GetInt64(0), 8);
  EXPECT_EQ(result.data.column(1).GetInt64(0),
            f.s8->num_rows() + f.s8->num_deleted_rows());
  EXPECT_EQ(result.data.column(2).GetInt64(0), f.s8->num_deleted_rows());
}

}  // namespace
}  // namespace vstore
