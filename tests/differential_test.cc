// Differential testing of the two execution engines (satellite of the
// profiling issue, after Bruno's row/column validation methodology): seeded
// random plans over small TPC-H tables must return the same multiset of
// rows in batch mode (column store, vectorized) and row mode (row store,
// tuple at a time). Any divergence prints the seed for replay.
//
// Aggregates that fold doubles (SUM/AVG over double columns) are excluded:
// floating-point addition is not associative, so the two engines may
// legally differ in the last bits. Everything compared here is exact —
// integer folds, MIN/MAX, raw column values, per-row arithmetic.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "query/executor.h"
#include "test_operators.h"
#include "tpch/dbgen.h"

namespace vstore {
namespace {

using testing_util::SortRows;

constexpr double kScaleFactor = 0.002;  // ~12k lineitem rows
constexpr int kNumSeeds = 120;

struct DiffFixture {
  tpch::Tables tables;
  Catalog catalog;

  DiffFixture() : tables(tpch::Generate(kScaleFactor)) {
    ColumnStoreTable::Options cs_options;
    cs_options.row_group_size = 1024;  // several groups per table
    cs_options.min_compress_rows = 16;
    tpch::LoadIntoCatalog(&catalog, tables, /*column_store=*/true,
                          /*row_store=*/true, cs_options)
        .CheckOK();
  }

  const TableData& data(const std::string& table) const {
    if (table == "lineitem") return tables.lineitem;
    if (table == "orders") return tables.orders;
    return tables.customer;
  }
};

// Columns a random filter may touch (never string-typed except via kEq/kNe,
// and never produced by SUM/AVG unless integer).
struct TableProfile {
  std::string name;
  std::vector<std::string> filter_columns;  // int/date/double
  std::vector<std::string> string_columns;  // eq/ne filters only
  std::vector<std::string> group_columns;   // low cardinality
  std::vector<std::string> int_agg_columns; // SUM-safe
  std::vector<std::string> minmax_columns;  // any type
};

const TableProfile& ProfileFor(const std::string& table) {
  static const TableProfile lineitem = {
      "lineitem",
      {"l_orderkey", "l_partkey", "l_linenumber", "l_quantity",
       "l_extendedprice", "l_discount", "l_shipdate"},
      {"l_returnflag", "l_linestatus"},
      {"l_returnflag", "l_linestatus", "l_linenumber"},
      {"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"},
      {"l_orderkey", "l_quantity", "l_extendedprice", "l_shipdate",
       "l_returnflag"},
  };
  static const TableProfile orders = {
      "orders",
      {"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate",
       "o_shippriority"},
      {"o_orderstatus", "o_orderpriority"},
      {"o_orderstatus", "o_orderpriority"},
      {"o_orderkey", "o_custkey"},
      {"o_orderkey", "o_totalprice", "o_orderdate", "o_orderstatus"},
  };
  static const TableProfile customer = {
      "customer",
      {"c_custkey", "c_acctbal", "c_nationkey"},
      {"c_mktsegment"},
      {"c_mktsegment", "c_nationkey"},
      {"c_custkey", "c_nationkey"},
      {"c_custkey", "c_acctbal", "c_mktsegment"},
  };
  if (table == "lineitem") return lineitem;
  if (table == "orders") return orders;
  return customer;
}

template <typename T>
const T& Pick(Random* rng, const std::vector<T>& from) {
  return from[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(from.size()) - 1))];
}

// A predicate anchored at a value actually present in the table, so the
// selectivity is neither 0 nor 1 in most draws.
ExprPtr RandomFilter(Random* rng, const DiffFixture& f,
                     const std::string& table, const Schema& schema) {
  const TableProfile& profile = ProfileFor(table);
  const TableData& data = f.data(table);
  bool use_string = !profile.string_columns.empty() && rng->Uniform(0, 3) == 0;
  const std::string& column =
      use_string ? Pick(rng, profile.string_columns)
                 : Pick(rng, profile.filter_columns);
  int idx = data.schema().IndexOf(column);
  int64_t row = rng->Uniform(0, data.num_rows() - 1);
  Value anchor = data.column(idx).GetValue(row);
  CompareOp op;
  if (use_string) {
    op = rng->Uniform(0, 1) == 0 ? CompareOp::kEq : CompareOp::kNe;
  } else {
    static const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe,
                                     CompareOp::kEq, CompareOp::kNe};
    op = kOps[rng->Uniform(0, 5)];
  }
  ExprPtr cmp = expr::Cmp(op, expr::Column(schema, column), expr::Lit(anchor));
  if (use_string) return cmp;

  // Half the filters get deeper shapes so the batch engine's bytecode
  // compiler actually folds, simplifies, and CSEs on this corpus: foldable
  // identities (col + 0, col * 1), repeated subexpressions under AND/OR,
  // and negated comparisons. The row engine evaluates the same unoptimized
  // tree, so any rewrite that changes semantics shows up as a mismatch.
  switch (rng->Uniform(0, 7)) {
    case 0: {
      // (col + 0) op anchor — the +0 must simplify away, not change type.
      ExprPtr padded = expr::Add(expr::Column(schema, column),
                                 expr::Lit(Value::Int64(0)));
      if (anchor.type() == DataType::kInt64) {
        return expr::Cmp(op, padded, expr::Lit(anchor));
      }
      return cmp;
    }
    case 1: {
      // (col * 1) op anchor.
      ExprPtr padded = expr::Mul(expr::Column(schema, column),
                                 expr::Lit(Value::Int64(1)));
      if (anchor.type() == DataType::kInt64) {
        return expr::Cmp(op, padded, expr::Lit(anchor));
      }
      return cmp;
    }
    case 2:
      // NOT(cmp) — compiles to the negated compare.
      return expr::Not(cmp);
    case 3:
      // cmp AND cmp — a textbook CSE hit.
      return expr::And(cmp, cmp);
    case 4:
      // (cmp OR cmp) AND (TRUE-literal) — CSE plus the AND-identity rule.
      return expr::And(expr::Or(cmp, cmp), expr::Lit(Value::Bool(true)));
    case 5: {
      // A column-free foldable conjunct: (1 + 1) > 1 folds to TRUE.
      ExprPtr folded = expr::Gt(
          expr::Add(expr::Lit(Value::Int64(1)), expr::Lit(Value::Int64(1))),
          expr::Lit(Value::Int64(1)));
      return expr::And(cmp, folded);
    }
    default:
      return cmp;
  }
}

std::vector<NamedAggSpec> RandomAggregates(Random* rng,
                                           const TableProfile& profile) {
  std::vector<NamedAggSpec> aggs;
  aggs.push_back({AggFn::kCountStar, "", "cnt"});
  int extra = static_cast<int>(rng->Uniform(1, 2));
  for (int a = 0; a < extra; ++a) {
    switch (rng->Uniform(0, 2)) {
      case 0:
        aggs.push_back({AggFn::kSum, Pick(rng, profile.int_agg_columns),
                        "sum" + std::to_string(a)});
        break;
      case 1:
        aggs.push_back({AggFn::kMin, Pick(rng, profile.minmax_columns),
                        "min" + std::to_string(a)});
        break;
      default:
        aggs.push_back({AggFn::kMax, Pick(rng, profile.minmax_columns),
                        "max" + std::to_string(a)});
        break;
    }
  }
  return aggs;
}

// One random plan per seed, drawn from four templates: filtered scan,
// filtered group-by, join, join + aggregation.
PlanPtr RandomPlan(uint64_t seed, const DiffFixture& f) {
  Random rng(seed);
  int64_t shape = rng.Uniform(0, 3);

  if (shape <= 1) {
    const std::string table =
        Pick(&rng, std::vector<std::string>{"lineitem", "orders", "customer"});
    const TableProfile& profile = ProfileFor(table);
    PlanBuilder b = PlanBuilder::Scan(f.catalog, table);
    b.Filter(RandomFilter(&rng, f, table, b.schema()));
    if (shape == 0) {
      // Filtered scan, sometimes with arithmetic projection on top.
      if (table == "lineitem" && rng.Uniform(0, 1) == 0) {
        b.Project({expr::Column(b.schema(), "l_orderkey"),
                   expr::Mul(expr::Column(b.schema(), "l_extendedprice"),
                             expr::Sub(expr::Lit(Value::Double(1.0)),
                                       expr::Column(b.schema(),
                                                    "l_discount")))},
                  {"l_orderkey", "charge"});
      } else if (rng.Uniform(0, 1) == 0) {
        b.Select({profile.int_agg_columns.front(),
                  profile.group_columns.front()});
      }
    } else {
      std::vector<std::string> group_by;
      if (rng.Uniform(0, 4) != 0) {  // empty 1/5 of the time: scalar agg
        group_by.push_back(Pick(&rng, profile.group_columns));
      }
      b.Aggregate(group_by, RandomAggregates(&rng, profile));
    }
    return b.Build();
  }

  // Join templates. Probe side is filtered to bound the output size.
  static const JoinType kJoinTypes[] = {JoinType::kInner, JoinType::kLeftOuter,
                                        JoinType::kLeftSemi,
                                        JoinType::kLeftAnti};
  JoinType join_type = kJoinTypes[rng.Uniform(0, 3)];
  bool orders_lineitem = rng.Uniform(0, 1) == 0;
  const std::string probe_table = orders_lineitem ? "lineitem" : "orders";
  const std::string build_table = orders_lineitem ? "orders" : "customer";
  const std::string probe_key = orders_lineitem ? "l_orderkey" : "o_custkey";
  const std::string build_key = orders_lineitem ? "o_orderkey" : "c_custkey";

  PlanBuilder probe = PlanBuilder::Scan(f.catalog, probe_table);
  probe.Filter(RandomFilter(&rng, f, probe_table, probe.schema()));

  PlanBuilder build = PlanBuilder::Scan(f.catalog, build_table);
  if (rng.Uniform(0, 1) == 0) {
    build.Filter(RandomFilter(&rng, f, build_table, build.schema()));
  }

  probe.Join(join_type, build.Build(), {probe_key}, {build_key});

  if (shape == 3) {
    const TableProfile& profile = ProfileFor(probe_table);
    std::vector<std::string> group_by = {Pick(&rng, profile.group_columns)};
    probe.Aggregate(group_by, RandomAggregates(&rng, profile));
  }
  return probe.Build();
}

// `code_grouped`, when non-null, accumulates the rows hash aggregation
// grouped on dictionary codes (the rows_code_grouped profile counter);
// `code_filtered` the rows a string IN decided on codes
// (rows_code_filtered).
std::vector<std::vector<Value>> RunPlan(const DiffFixture& f,
                                        const PlanPtr& plan,
                                        ExecutionMode mode, uint64_t seed,
                                        int64_t memory_budget = 0,
                                        int64_t* code_grouped = nullptr,
                                        int64_t* code_filtered = nullptr) {
  QueryOptions options;
  options.mode = mode;
  options.query_memory_budget = memory_budget;
  QueryExecutor exec(&f.catalog, options);
  auto result = exec.Execute(plan);
  EXPECT_TRUE(result.ok()) << "seed=" << seed << " mode="
                           << (mode == ExecutionMode::kRow ? "row" : "batch")
                           << ": " << result.status().ToString();
  std::vector<std::vector<Value>> rows;
  if (result.ok()) {
    for (int64_t i = 0; i < result->data.num_rows(); ++i) {
      rows.push_back(result->data.GetRow(i));
    }
    SortRows(&rows);
    if (code_grouped != nullptr) {
      *code_grouped += result->profile.CounterDeep("rows_code_grouped");
    }
    if (code_filtered != nullptr) {
      *code_filtered += result->profile.CounterDeep("rows_code_filtered");
    }
  }
  return rows;
}

std::string RowToString(const std::vector<Value>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].is_null() ? "NULL" : row[i].ToString();
  }
  return out + ")";
}

TEST(DifferentialTest, BatchAndRowModesAgreeOnRandomPlans) {
  DiffFixture f;
  int mismatches = 0;
  int64_t code_grouped = 0;

  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    PlanPtr plan = RandomPlan(seed, f);
    auto batch_rows = RunPlan(f, plan, ExecutionMode::kBatch, seed,
                              /*memory_budget=*/0, &code_grouped);
    auto row_rows = RunPlan(f, plan, ExecutionMode::kRow, seed);

    bool equal = batch_rows.size() == row_rows.size();
    size_t first_bad = 0;
    if (equal) {
      for (size_t i = 0; i < batch_rows.size(); ++i) {
        if (batch_rows[i].size() != row_rows[i].size()) {
          equal = false;
          first_bad = i;
          break;
        }
        for (size_t c = 0; c < batch_rows[i].size(); ++c) {
          const Value& a = batch_rows[i][c];
          const Value& b = row_rows[i][c];
          if (a.is_null() != b.is_null() ||
              (!a.is_null() && !(a == b))) {
            equal = false;
            first_bad = i;
            break;
          }
        }
        if (!equal) break;
      }
    }

    if (!equal) {
      ++mismatches;
      std::fprintf(stderr,
                   "DIFFERENTIAL MISMATCH: replay with seed=%llu\n"
                   "  plan:\n%s"
                   "  batch rows: %zu, row rows: %zu\n",
                   static_cast<unsigned long long>(seed),
                   plan->ToString(4).c_str(), batch_rows.size(),
                   row_rows.size());
      if (batch_rows.size() == row_rows.size() &&
          first_bad < batch_rows.size()) {
        std::fprintf(stderr, "  first differing row %zu:\n    batch: %s\n"
                             "    row:   %s\n",
                     first_bad, RowToString(batch_rows[first_bad]).c_str(),
                     RowToString(row_rows[first_bad]).c_str());
      }
      ADD_FAILURE() << "batch/row divergence at seed " << seed;
    }
  }

  EXPECT_EQ(mismatches, 0) << mismatches << " of " << kNumSeeds
                           << " random plans diverged";
  // String GROUP BY keys scanned from the column store must have taken
  // the dictionary-code grouping path somewhere in the corpus.
  EXPECT_GT(code_grouped, 0) << "no aggregate grouped on dictionary codes";
}

// Budget-driven spill must be pure *policy*: the same random plans under a
// deliberately tiny per-query memory budget (forcing hash join and
// aggregate state to disk) must return exactly the rows the unbudgeted
// runs return. The budget only moves state between memory and spill
// partitions — never through the result.
TEST(DifferentialTest, TinyMemoryBudgetIsBitIdentical) {
  DiffFixture f;
  constexpr int64_t kTinyBudget = 64 * 1024;  // far below any join build
  int64_t spill_before = GlobalSpillBytes();
  int64_t code_grouped = 0;

  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    PlanPtr plan = RandomPlan(seed, f);
    auto normal = RunPlan(f, plan, ExecutionMode::kBatch, seed);
    auto budgeted = RunPlan(f, plan, ExecutionMode::kBatch, seed, kTinyBudget,
                            &code_grouped);

    ASSERT_EQ(budgeted.size(), normal.size())
        << "row count diverged under budget: replay with seed=" << seed
        << "\n" << plan->ToString(4);
    for (size_t i = 0; i < normal.size(); ++i) {
      ASSERT_EQ(budgeted[i].size(), normal[i].size()) << "seed=" << seed;
      for (size_t c = 0; c < normal[i].size(); ++c) {
        const Value& a = normal[i][c];
        const Value& b = budgeted[i][c];
        ASSERT_TRUE(a.is_null() == b.is_null() && (a.is_null() || a == b))
            << "value diverged under budget: replay with seed=" << seed
            << " row=" << i << " col=" << c << "\n    normal:   "
            << RowToString(normal[i]) << "\n    budgeted: "
            << RowToString(budgeted[i]);
      }
    }
  }

  // The budget must have actually forced spilling somewhere in the corpus
  // (otherwise this test degenerates into running the plans twice).
  EXPECT_GT(GlobalSpillBytes(), spill_before)
      << "no plan spilled under a " << kTinyBudget << "-byte budget";
  EXPECT_GT(code_grouped, 0)
      << "no budgeted aggregate grouped on dictionary codes";
}

// String IN filters over the column stores, `string_col IN (anchor,
// other)`: the batch engine decides them on dictionary codes. Drawn from
// their own seeds so RandomPlan's corpus stays as it is. Shapes: filtered
// scan, filtered group-by, and a filtered probe side joined to its build.
PlanPtr StringInPlan(uint64_t seed, const DiffFixture& f) {
  static const std::vector<std::string> kLineitem = {
      "l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"};
  static const std::vector<std::string> kOrders = {"o_orderstatus",
                                                   "o_orderpriority"};
  static const std::vector<std::string> kCustomer = {"c_mktsegment"};
  Random rng(seed);
  const int64_t shape = rng.Uniform(0, 2);
  const std::string table =
      shape == 2 ? "lineitem"
                 : Pick(&rng, std::vector<std::string>{"lineitem", "orders",
                                                       "customer"});
  const std::string& column =
      Pick(&rng, table == "lineitem" ? kLineitem
                 : table == "orders" ? kOrders
                                     : kCustomer);
  const TableData& data = f.data(table);
  const int idx = data.schema().IndexOf(column);
  Value anchor = data.column(idx).GetValue(rng.Uniform(0, data.num_rows() - 1));
  // The second value is another row's (often a second hit) or absent.
  Value other = rng.Uniform(0, 2) == 0
                    ? Value::String("no such value")
                    : data.column(idx).GetValue(
                          rng.Uniform(0, data.num_rows() - 1));

  PlanBuilder b = PlanBuilder::Scan(f.catalog, table);
  b.Filter(expr::In(expr::Column(b.schema(), column), {anchor, other}));
  const TableProfile& profile = ProfileFor(table);
  if (shape == 0) {
    b.Select({profile.int_agg_columns.front(), column});
  } else if (shape == 1) {
    b.Aggregate({Pick(&rng, profile.group_columns)},
                RandomAggregates(&rng, profile));
  } else {
    b.Join(JoinType::kInner, PlanBuilder::Scan(f.catalog, "orders").Build(),
           {"l_orderkey"}, {"o_orderkey"});
    b.Aggregate({column}, RandomAggregates(&rng, profile));
  }
  return b.Build();
}

TEST(DifferentialTest, StringInFiltersOnCodesMatchRowEngine) {
  DiffFixture f;
  constexpr int64_t kTinyBudget = 64 * 1024;
  const int64_t spill_before = GlobalSpillBytes();
  int64_t code_filtered = 0, budgeted_code_filtered = 0;
  for (uint64_t seed = 5001; seed <= 5040; ++seed) {
    PlanPtr plan = StringInPlan(seed, f);
    const auto row_rows = RunPlan(f, plan, ExecutionMode::kRow, seed);
    const auto plain = RunPlan(f, plan, ExecutionMode::kBatch, seed, 0,
                               nullptr, &code_filtered);
    const auto budgeted = RunPlan(f, plan, ExecutionMode::kBatch, seed,
                                  kTinyBudget, nullptr,
                                  &budgeted_code_filtered);
    for (const auto* batch_rows : {&plain, &budgeted}) {
      const char* run = batch_rows == &plain ? "plain" : "64 KiB budget";
      ASSERT_EQ(batch_rows->size(), row_rows.size())
          << run << ": replay with seed=" << seed << "\n"
          << plan->ToString(4);
      for (size_t i = 0; i < row_rows.size(); ++i) {
        ASSERT_EQ((*batch_rows)[i].size(), row_rows[i].size());
        for (size_t c = 0; c < row_rows[i].size(); ++c) {
          const Value& a = (*batch_rows)[i][c];
          const Value& b = row_rows[i][c];
          ASSERT_TRUE(a.is_null() == b.is_null() && (a.is_null() || a == b))
              << run << ": replay with seed=" << seed << " row=" << i
              << "\n    batch: " << RowToString((*batch_rows)[i])
              << "\n    row:   " << RowToString(row_rows[i]) << "\n"
              << plan->ToString(4);
        }
      }
    }
  }
  EXPECT_GT(GlobalSpillBytes(), spill_before)
      << "no plan spilled under a " << kTinyBudget << "-byte budget";
  EXPECT_GT(code_filtered, 0) << "no string IN was decided on codes";
  EXPECT_GT(budgeted_code_filtered, 0)
      << "no budgeted string IN was decided on codes";
}

}  // namespace
}  // namespace vstore
