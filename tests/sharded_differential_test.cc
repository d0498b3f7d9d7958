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

bool HasNode(const OperatorProfile& node, const std::string& prefix) {
  if (node.name.rfind(prefix, 0) == 0) return true;
  for (const OperatorProfile& child : node.children) {
    if (HasNode(child, prefix)) return true;
  }
  return false;
}

bool HasSpan(const QueryTraceSpan& span, const std::string& prefix) {
  if (span.name.rfind(prefix, 0) == 0) return true;
  for (const QueryTraceSpan& child : span.children) {
    if (HasSpan(child, prefix)) return true;
  }
  return false;
}

QueryResult RunAt(const Catalog& catalog, const PlanPtr& plan, int dop) {
  QueryOptions options;
  options.dop = dop;
  return QueryExecutor(&catalog, options).Execute(plan).ValueOrDie();
}

// What the scans of one execution read, summed over the profile: equal at
// every degree when each row group and delta row is read exactly once and
// one scan per table reports the shard pruning.
struct ScanCounts {
  int64_t rows_scanned;
  int64_t groups;  // scanned + eliminated
  int64_t delta_rows;
  int64_t shards_total;
  bool operator==(const ScanCounts&) const = default;
};

ScanCounts CountsOf(const QueryResult& result) {
  const OperatorProfile& p = result.profile;
  return ScanCounts{
      p.CounterDeep("rows_scanned"),
      p.CounterDeep("groups_scanned") + p.CounterDeep("groups_eliminated"),
      p.CounterDeep("delta_rows"), p.CounterDeep("shards_total")};
}

std::string ToString(const ScanCounts& c) {
  return "rows_scanned=" + std::to_string(c.rows_scanned) +
         " groups=" + std::to_string(c.groups) +
         " delta_rows=" + std::to_string(c.delta_rows) +
         " shards_total=" + std::to_string(c.shards_total);
}

// Runs the plan against every table at dop 1, 2, 3, 4 and 8: each answer
// must equal `tables[0]`'s at dop 1, and within a table the scan counts
// must not move with the degree.
void ExpectEveryDopAgrees(
    const Catalog& catalog, const std::vector<std::string>& tables,
    const std::function<PlanPtr(const std::string&)>& make_plan) {
  std::vector<std::vector<Value>> expected =
      Rows(RunAt(catalog, make_plan(tables[0]), 1));
  for (const std::string& table : tables) {
    ScanCounts serial{};
    for (int dop : {1, 2, 3, 4, 8}) {
      QueryResult got = RunAt(catalog, make_plan(table), dop);
      EXPECT_EQ(Rows(got), expected) << table << " dop=" << dop;
      const ScanCounts counts = CountsOf(got);
      if (dop == 1) {
        serial = counts;
        EXPECT_GT(serial.rows_scanned + serial.delta_rows, 0) << table;
      } else {
        // Every table here has row groups to cut: the plan parallelizes.
        EXPECT_TRUE(HasNode(got.profile, "Exchange"))
            << table << " dop=" << dop;
        EXPECT_EQ(counts, serial) << table << " dop=" << dop << ": "
                                  << ToString(counts) << " vs "
                                  << ToString(serial);
      }
    }
  }
}

// A scan, a filtered aggregate and a join under an aggregate.
std::vector<std::function<PlanPtr(const std::string&)>> DopPlans(
    const Catalog& catalog, const std::string& dim) {
  return {
      [&catalog](const std::string& t) {
        return PlanBuilder::Scan(catalog, t).Build();
      },
      [&catalog](const std::string& t) {
        PlanBuilder b = PlanBuilder::Scan(catalog, t);
        b.Filter(expr::Ge(expr::Column(b.schema(), "bucket"),
                          expr::Lit(Value::Int64(3))));
        b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                                 {AggFn::kSum, "id", "id_sum"},
                                 {AggFn::kMin, "amount", "lo"},
                                 {AggFn::kMax, "name", "hi"}});
        return b.Build();
      },
      [&catalog, dim](const std::string& t) {
        PlanBuilder b = PlanBuilder::Scan(catalog, t);
        b.Join(JoinType::kInner, PlanBuilder::Scan(catalog, dim).Build(),
               {"bucket"}, {"bucket_id"});
        b.Aggregate({"label"}, {{AggFn::kCountStar, "", "cnt"},
                                {AggFn::kSum, "id", "id_sum"}});
        return b.Build();
      },
  };
}

// A 10-row dimension (bucket_id 0..9, label "b<id>") for the join plans.
void AddDimTable(Catalog* catalog, const std::string& name) {
  Schema dim_schema({{"bucket_id", DataType::kInt64, false},
                     {"label", DataType::kString, false}});
  TableData dim(dim_schema);
  for (int64_t i = 0; i < 10; ++i) {
    dim.column(0).AppendInt64(i);
    dim.column(1).AppendString("b" + std::to_string(i));
  }
  auto dim_cs =
      std::make_unique<ColumnStoreTable>(name, dim_schema, StoreOptions());
  dim_cs->BulkLoad(dim).CheckOK();
  catalog->AddColumnStore(std::move(dim_cs)).CheckOK();
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
  AddDimTable(&f.catalog, "dim");

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

// One lowering at every degree: a table's scan ranges (one per column
// store, one per unpruned shard) cut into at most dop fragments must give
// the unsharded answer and read every row group and delta row once.
TEST(ShardedDifferentialTest, EveryDopReadsEachGroupAndDeltaRowOnce) {
  ShardedDiffFixture f;
  AddDimTable(&f.catalog, "dim");
  for (const auto& make_plan : DopPlans(f.catalog, "dim")) {
    ExpectEveryDopAgrees(f.catalog, {"flat", "s1", "s8"}, make_plan);
  }
}

// Shards 4-7 hold only delta rows (no row groups) and shards 0-3 hold row
// groups plus a few delta rows: the cut must still hand every shard's
// deltas to exactly one fragment at every degree.
TEST(ShardedDifferentialTest, DeltaOnlyShardsAgreeAtEveryDop) {
  Catalog catalog;
  TableData data = MakeTestTable(kRows, /*seed=*/42);
  ShardedTable::Options options;
  options.num_shards = 8;
  options.partition_key = "id";
  options.shard_options = StoreOptions();
  auto s8 = std::make_unique<ShardedTable>("s8", data.schema(),
                                           std::move(options));
  auto flat =
      std::make_unique<ColumnStoreTable>("flat", data.schema(), StoreOptions());
  TableData bulk(data.schema());
  std::vector<std::vector<Value>> trickle;
  int64_t low_shard_rows = 0;
  for (int64_t i = 0; i < data.num_rows(); ++i) {
    std::vector<Value> row = data.GetRow(i);
    if (s8->ShardFor(row[0]) >= 4 || ++low_shard_rows % 20 == 0) {
      trickle.push_back(std::move(row));
    } else {
      bulk.AppendRow(row);
    }
  }
  s8->BulkLoad(bulk).CheckOK();
  flat->BulkLoad(bulk).CheckOK();
  for (const std::vector<Value>& row : trickle) {
    s8->Insert(row).ValueOrDie();
    flat->Insert(row).ValueOrDie();
  }
  for (int shard = 0; shard < 8; ++shard) {
    TableSnapshot snapshot = s8->shard(shard)->Snapshot();
    EXPECT_EQ(snapshot->num_row_groups() > 0, shard < 4) << shard;
    EXPECT_GT(snapshot->num_delta_stores(), 0) << shard;
  }
  catalog.AddShardedTable(std::move(s8)).CheckOK();
  catalog.AddColumnStore(std::move(flat)).CheckOK();
  AddDimTable(&catalog, "dim");
  for (const auto& make_plan : DopPlans(catalog, "dim")) {
    ExpectEveryDopAgrees(catalog, {"flat", "s8"}, make_plan);
  }
}

// At dop 1 a sharded scan is one scan over its shard ranges on the query's
// thread: no exchange, no fragment span. It still reports the pruning.
TEST(ShardedDifferentialTest, ShardedScanAtDopOneRunsOnTheQueryThread) {
  ShardedDiffFixture f;
  AddDimTable(&f.catalog, "dim");
  for (const auto& make_plan : DopPlans(f.catalog, "dim")) {
    QueryResult result = f.Run(make_plan("s8"), /*dop=*/1);
    EXPECT_FALSE(HasNode(result.profile, "Exchange"))
        << FormatProfile(result.profile);
    ASSERT_TRUE(result.trace.valid);
    EXPECT_FALSE(HasSpan(result.trace.root, "fragment:"));
    EXPECT_EQ(ProfileCounter(result.profile, "shards_total"), 8);
    EXPECT_EQ(ProfileCounter(result.profile, "shards_pruned"), 0);
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
  for (int dop : {1, 4}) {
    QueryResult sharded = f.Run(make_plan("s8"), dop);
    EXPECT_EQ(Rows(sharded), Rows(base)) << "dop " << dop;
    EXPECT_EQ(ProfileCounter(sharded.profile, "shards_total"), 8)
        << "dop " << dop;
    EXPECT_EQ(ProfileCounter(sharded.profile, "shards_pruned"), 7)
        << "dop " << dop;
    // The pruning shows up in rendered EXPLAIN ANALYZE output too.
    std::string text = FormatProfile(sharded.profile);
    EXPECT_NE(text.find("shards_pruned"), std::string::npos) << text;

    // And in the engine-wide metrics.
    MetricsRegistry& registry = MetricsRegistry::Global();
    Counter* pruned =
        registry.GetCounter("vstore_scan_shards_pruned_total", "table", "s8");
    int64_t before = pruned->Value();
    (void)f.Run(make_plan("s8"), dop);
    EXPECT_EQ(pruned->Value() - before, 7) << "dop " << dop;
  }
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
