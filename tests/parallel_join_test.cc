// Differential tests for the parallel batch-mode hash join: a dop-4 plan
// (shared multi-threaded build, fragmented probe through an exchange) must
// return exactly the rows of the dop-1 serial join — across join types,
// with and without spilling — and compose with the parallel-aggregate
// rewrite into a single fragment tree. Also pins the EXPLAIN ANALYZE
// surface: per-fragment build counters on the probe node.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/executor.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::MakeTestTable;
using testing_util::SortRows;

struct JoinFixture {
  Catalog catalog;

  JoinFixture(int64_t fact_rows = 20000, int64_t dim_rows = 10000) {
    AddTable("fact", fact_rows, /*seed=*/42);
    AddTable("dim", dim_rows, /*seed=*/7);
  }

  void AddTable(const std::string& name, int64_t rows, uint64_t seed) {
    TableData data = MakeTestTable(rows, seed);
    ColumnStoreTable::Options options;
    options.row_group_size = 1000;  // many groups -> real fragmentation
    options.min_compress_rows = 10;
    auto cs = std::make_unique<ColumnStoreTable>(name, data.schema(), options);
    cs->BulkLoad(data).CheckOK();
    cs->CompressDeltaStores(true).status().CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
  }
};

// fact join dim on the unique id column; the dim columns are renamed so
// the join output has no duplicate names. fact has twice as many ids as
// dim, so outer/anti joins see unmatched probe rows.
PlanPtr JoinPlan(const Catalog& catalog, JoinType type) {
  PlanBuilder dim = PlanBuilder::Scan(catalog, "dim");
  dim.Select({"id", "amount"});
  PlanBuilder renamed = PlanBuilder::From(dim.Build());
  renamed.Project({expr::Column(renamed.schema(), "id"),
                   expr::Column(renamed.schema(), "amount")},
                  {"did", "damount"});
  PlanBuilder b = PlanBuilder::Scan(catalog, "fact");
  b.Join(type, renamed.Build(), {"id"}, {"did"});
  return b.Build();
}

QueryResult RunQuery(const Catalog& catalog, const PlanPtr& plan, int dop,
                int64_t memory_budget = 0) {
  QueryOptions options;
  options.mode = ExecutionMode::kBatch;
  options.dop = dop;
  options.operator_memory_budget = memory_budget;
  QueryExecutor exec(&catalog, options);
  return exec.Execute(plan).ValueOrDie();
}

// Rows as sorted strings: order-insensitive, null-aware, exact (parallel
// joins reorder rows but must not alter any value).
std::vector<std::string> SortedRowStrings(const QueryResult& result) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < result.data.num_rows(); ++i) {
    rows.push_back(result.data.GetRow(i));
  }
  SortRows(&rows);
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const std::vector<Value>& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.is_null() ? "<null>" : v.ToString();
      s += "|";
    }
    out.push_back(std::move(s));
  }
  return out;
}

const OperatorProfile* FindNode(const OperatorProfile& node,
                                const std::string& prefix) {
  if (node.name.rfind(prefix, 0) == 0) return &node;
  for (const OperatorProfile& child : node.children) {
    const OperatorProfile* found = FindNode(child, prefix);
    if (found != nullptr) return found;
  }
  return nullptr;
}

TEST(ParallelJoinTest, InnerJoinMatchesSerial) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kInner);
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  QueryResult parallel = RunQuery(f.catalog, plan, 4);

  EXPECT_EQ(serial.rows_returned, 10000);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
  // The join region really went through the exchange.
  EXPECT_NE(FindNode(parallel.profile, "Exchange(HashJoin)"), nullptr);
  EXPECT_EQ(FindNode(serial.profile, "Exchange(HashJoin)"), nullptr);
}

TEST(ParallelJoinTest, LeftOuterJoinMatchesSerial) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kLeftOuter);
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  QueryResult parallel = RunQuery(f.catalog, plan, 4);

  EXPECT_EQ(serial.rows_returned, 20000);  // 10000 matched + 10000 extended
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
}

TEST(ParallelJoinTest, SemiAndAntiJoinsMatchSerial) {
  JoinFixture f;
  for (JoinType type : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    PlanPtr plan = JoinPlan(f.catalog, type);
    QueryResult serial = RunQuery(f.catalog, plan, 1);
    QueryResult parallel = RunQuery(f.catalog, plan, 4);
    EXPECT_EQ(serial.rows_returned, 10000) << JoinTypeName(type);
    EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial))
        << JoinTypeName(type);
  }
}

TEST(ParallelJoinTest, InnerJoinWithSpillMatchesSerial) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kInner);
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  // A tiny budget forces most build partitions (and their probe rows) to
  // disk; the last probe fragment drains the partition pairs.
  QueryResult parallel = RunQuery(f.catalog, plan, 4, /*memory_budget=*/32 * 1024);

  EXPECT_GT(parallel.stats.spill_partitions, 0);
  EXPECT_GT(parallel.stats.probe_rows_spilled, 0);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
}

TEST(ParallelJoinTest, LeftOuterJoinWithSpillMatchesSerial) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kLeftOuter);
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  QueryResult parallel = RunQuery(f.catalog, plan, 4, /*memory_budget=*/32 * 1024);

  EXPECT_GT(parallel.stats.spill_partitions, 0);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
}

TEST(ParallelJoinTest, SemiAndAntiJoinsWithSpillMatchSerial) {
  JoinFixture f;
  for (JoinType type : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    PlanPtr plan = JoinPlan(f.catalog, type);
    QueryResult serial = RunQuery(f.catalog, plan, 1);
    QueryResult parallel =
        RunQuery(f.catalog, plan, 4, /*memory_budget=*/32 * 1024);

    EXPECT_GT(parallel.stats.spill_partitions, 0) << JoinTypeName(type);
    EXPECT_GT(parallel.stats.probe_rows_spilled, 0) << JoinTypeName(type);
    EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial))
        << JoinTypeName(type);
  }
}

// The profile reports every build row a parallel join spilled: the
// executor's spill metrics and the Query Store sum the profile.
TEST(ParallelJoinTest, SpillingJoinProfilesBuildRowsSpilled) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kInner);
  QueryResult parallel =
      RunQuery(f.catalog, plan, 4, /*memory_budget=*/32 * 1024);

  ASSERT_NE(FindNode(parallel.profile, "HashJoinProbe"), nullptr);
  EXPECT_GT(parallel.stats.build_rows_spilled, 0);
  EXPECT_EQ(parallel.profile.CounterDeep("build_rows_spilled"),
            parallel.stats.build_rows_spilled);
  EXPECT_EQ(parallel.profile.CounterDeep("probe_rows_spilled"),
            parallel.stats.probe_rows_spilled);
}

// The last probe fragment to close frees the build: nothing the build
// charged is still resident when the profile is taken, at either degree.
TEST(ParallelJoinTest, LastCloseFreesTheBuild) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kInner);
  for (int dop : {1, 4}) {
    QueryResult result =
        RunQuery(f.catalog, plan, dop, /*memory_budget=*/32 * 1024);
    const OperatorProfile* join =
        FindNode(result.profile, dop == 1 ? "HashJoin(" : "HashJoinProbe(");
    ASSERT_NE(join, nullptr) << "dop " << dop;
    EXPECT_GT(result.stats.spill_partitions, 0) << "dop " << dop;
    EXPECT_GT(join->peak_memory_bytes, 0) << "dop " << dop;
    EXPECT_EQ(join->mem_current_bytes, 0) << "dop " << dop;
  }
}

// Build fragments run under the query's settings: with compilation off, no
// Filter or Project of a join plan runs compiled, on either side, serial
// or parallel.
TEST(ParallelJoinTest, BuildFragmentsHonourCompileExpressionsOff) {
  JoinFixture f;
  // amount + 1 > 0 keeps every row and is not pushed into the scan.
  auto filter = [](const Schema& schema) {
    return expr::Gt(expr::Add(expr::Column(schema, "amount"),
                              expr::Lit(Value::Double(1.0))),
                    expr::Lit(Value::Double(0.0)));
  };
  PlanBuilder dim = PlanBuilder::Scan(f.catalog, "dim");
  dim.Filter(filter(dim.schema()));
  dim.Select({"id", "amount"});
  PlanBuilder renamed = PlanBuilder::From(dim.Build());
  renamed.Project({expr::Column(renamed.schema(), "id"),
                   expr::Column(renamed.schema(), "amount")},
                  {"did", "damount"});
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "fact");
  b.Filter(filter(b.schema()));
  b.Join(JoinType::kInner, renamed.Build(), {"id"}, {"did"});
  PlanPtr plan = b.Build();

  for (int dop : {1, 4}) {
    QueryOptions options;
    options.mode = ExecutionMode::kBatch;
    options.dop = dop;
    options.compile_expressions = false;
    QueryExecutor exec(&f.catalog, options);
    QueryResult result = exec.Execute(plan).ValueOrDie();
    EXPECT_EQ(result.rows_returned, 10000);
    int filters = 0;
    int projects = 0;
    std::vector<const OperatorProfile*> stack = {&result.profile};
    while (!stack.empty()) {
      const OperatorProfile* node = stack.back();
      stack.pop_back();
      if (node->name == "Filter" || node->name == "Project") {
        (node->name == "Filter" ? filters : projects) += 1;
        EXPECT_EQ(node->Counter("compiled", -1), 0)
            << node->name << " at dop " << dop;
      }
      for (const OperatorProfile& child : node->children) {
        stack.push_back(&child);
      }
    }
    EXPECT_EQ(filters, 2) << "dop " << dop;
    EXPECT_GE(projects, 1) << "dop " << dop;
  }
}

TEST(ParallelJoinTest, JoinThenAggregateParallelizesAsOneFragmentTree) {
  JoinFixture f;
  PlanBuilder dim = PlanBuilder::Scan(f.catalog, "dim");
  dim.Select({"id"});
  PlanBuilder renamed = PlanBuilder::From(dim.Build());
  renamed.Project({expr::Column(renamed.schema(), "id")}, {"did"});
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "fact");
  b.Join(JoinType::kInner, renamed.Build(), {"id"}, {"did"});
  b.Aggregate({"bucket"},
              {{AggFn::kCountStar, "", "cnt"}, {AggFn::kSum, "id", "total"}});
  PlanPtr plan = b.Build();

  QueryResult serial = RunQuery(f.catalog, plan, 1);
  QueryResult parallel = RunQuery(f.catalog, plan, 4);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));

  // One exchange runs scan -> probe -> partial agg per fragment: the probe
  // operator must sit under the exchange, with no second exchange below.
  const OperatorProfile* exchange = FindNode(parallel.profile, "Exchange");
  ASSERT_NE(exchange, nullptr);
  const OperatorProfile* probe = FindNode(*exchange, "HashJoinProbe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(FindNode(*probe, "Exchange"), nullptr);
  ASSERT_FALSE(exchange->children.empty());
  EXPECT_EQ(exchange->children[0].fragments, 4);
}

TEST(ParallelJoinTest, ExplainAnalyzeShowsPerFragmentBuildCounters) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kInner);
  QueryResult parallel = RunQuery(f.catalog, plan, 4);

  const OperatorProfile* probe = FindNode(parallel.profile, "HashJoinProbe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->Counter("probe_rows"), 20000);
  EXPECT_EQ(probe->Counter("build_rows"), 10000);
  int64_t build_fragments = probe->Counter("build_fragments");
  EXPECT_GE(build_fragments, 2);  // dim has 10 row groups, dop is 4
  // Per-fragment build row counters are present and sum to the total.
  int64_t per_fragment_sum = 0;
  for (int64_t frag = 0; frag < build_fragments; ++frag) {
    int64_t rows =
        probe->Counter("build_rows_f" + std::to_string(frag), /*fallback=*/-1);
    EXPECT_GE(rows, 0) << "missing build_rows_f" << frag;
    per_fragment_sum += rows;
  }
  EXPECT_EQ(per_fragment_sum, 10000);
  // Timing counters for the shared build phases exist.
  EXPECT_GE(probe->Counter("build_ns", -1), 0);
  EXPECT_GE(probe->Counter("table_build_ns", -1), 0);
  EXPECT_GE(probe->Counter("build_lock_wait_ns", -1), 0);
}

}  // namespace
}  // namespace vstore
