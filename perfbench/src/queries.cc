#include "queries.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

#include "exec/profile.h"
#include "harness.h"
#include "query/optimizer.h"
#include "query/physical_planner.h"
#include "storage/row_store.h"
#include "tpch/queries.h"

namespace perfbench {

using vstore::ColumnData;
using vstore::OperatorProfile;
using vstore::PlanKind;
using vstore::PlanPtr;
using vstore::TableData;

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// The large-key control: one group per order, so any small-code-domain
// aggregation path is bypassed.
PlanPtr OrderkeyAgg(const vstore::Catalog& catalog) {
  vstore::PlanBuilder b = vstore::PlanBuilder::Scan(catalog, "lineitem");
  b.Aggregate({"l_orderkey"}, {{vstore::AggFn::kSum, "l_quantity", "sum_qty"},
                               {vstore::AggFn::kCountStar, "", "lines"}});
  return b.Build();
}

// Scan-only drain of the columns Q1 reads: the storage decode cost without
// filter or aggregate work above it.
PlanPtr Q1ColumnsScan(const vstore::Catalog& catalog) {
  vstore::PlanBuilder b = vstore::PlanBuilder::Scan(catalog, "lineitem");
  b.Select({"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate"});
  return b.Build();
}

int CompareCells(const ColumnData& col, int64_t a, int64_t b) {
  const bool null_a = col.IsNull(a);
  const bool null_b = col.IsNull(b);
  if (null_a || null_b) return null_a == null_b ? 0 : (null_a ? -1 : 1);
  switch (vstore::PhysicalTypeOf(col.type())) {
    case vstore::PhysicalType::kInt64: {
      const int64_t x = col.GetInt64(a);
      const int64_t y = col.GetInt64(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case vstore::PhysicalType::kDouble: {
      const double x = col.GetDouble(a);
      const double y = col.GetDouble(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default:
      return col.GetString(a).compare(col.GetString(b));
  }
}

// Rows sorted on their exact columns first and their doubles last, so two
// engines whose sums differ in the last bits still line up row for row.
std::vector<int64_t> CanonicalOrder(const TableData& data) {
  std::vector<int> columns;
  for (int pass = 0; pass < 2; ++pass) {
    for (int c = 0; c < data.num_columns(); ++c) {
      const bool is_double = data.column(c).type() == vstore::DataType::kDouble;
      if (is_double == (pass == 1)) columns.push_back(c);
    }
  }
  std::vector<int64_t> order(static_cast<size_t>(data.num_rows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  // A leading integer key without nulls (orderkey_agg's 75k groups) is
  // compared straight from its vector; the general path breaks its ties.
  const std::vector<int64_t>* lead = nullptr;
  if (!columns.empty()) {
    const ColumnData& first = data.column(columns[0]);
    if (vstore::PhysicalTypeOf(first.type()) == vstore::PhysicalType::kInt64 &&
        !first.has_nulls()) {
      lead = &first.ints();
    }
  }
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    if (lead != nullptr) {
      const int64_t x = (*lead)[static_cast<size_t>(a)];
      const int64_t y = (*lead)[static_cast<size_t>(b)];
      if (x != y) return x < y;
    }
    for (int c : columns) {
      const int r = CompareCells(data.column(c), a, b);
      if (r != 0) return r < 0;
    }
    return false;
  });
  return order;
}

bool CellsMatch(const ColumnData& want, int64_t i, const ColumnData& got,
                int64_t j) {
  if (want.IsNull(i) || got.IsNull(j)) return want.IsNull(i) == got.IsNull(j);
  if (want.type() != got.type()) return false;
  switch (vstore::PhysicalTypeOf(want.type())) {
    case vstore::PhysicalType::kInt64:
      return want.GetInt64(i) == got.GetInt64(j);
    case vstore::PhysicalType::kDouble: {
      const double a = want.GetDouble(i);
      const double b = got.GetDouble(j);
      return std::abs(a - b) / std::max(1.0, std::abs(a)) < 1e-9;
    }
    default:
      return want.GetString(i) == got.GetString(j);
  }
}

// --- Per-layer readings from the operator profile --------------------------

// Exclusive time of one operator: its inclusive time minus the children it
// drives on its own thread. A child with fragments > 0 is the merged
// subtree of an exchange's worker threads and is not nested in the parent.
int64_t SelfNs(const OperatorProfile& node) {
  int64_t child_ns = 0;
  for (const OperatorProfile& child : node.children) {
    if (child.fragments > 0) continue;
    child_ns += child.TotalNs();
  }
  return std::max<int64_t>(0, node.TotalNs() - child_ns);
}

struct ProfileFigures {
  int64_t scan_ns = 0;
  int64_t filter_ns = 0;
  int64_t aggregate_ns = 0;
  int64_t build_ns = 0;
  int64_t probe_ns = 0;
  int64_t exchange_ns = 0;
  int64_t groups_scanned = 0;
  int64_t groups_eliminated = 0;
  int64_t bloom_rows_in = 0;
  int64_t bloom_rows_dropped = 0;
};

void Accumulate(const OperatorProfile& node, ProfileFigures* f) {
  const int64_t self = SelfNs(node);
  const std::string& name = node.name;
  if (StartsWith(name, "ColumnStoreScan")) {
    f->scan_ns += self;
    f->groups_scanned += node.Counter("groups_scanned");
    f->groups_eliminated += node.Counter("groups_eliminated");
    const int64_t dropped = node.Counter("bloom_rows_dropped", -1);
    if (dropped >= 0) {
      f->bloom_rows_in += node.Counter("rows_scanned");
      f->bloom_rows_dropped += dropped;
    }
  } else if (name == "Filter") {
    f->filter_ns += self;
  } else if (StartsWith(name, "HashAggregate") || name == "ScalarAggregate") {
    f->aggregate_ns += self;
  } else if (StartsWith(name, "Exchange")) {
    f->exchange_ns += self;
  } else if (StartsWith(name, "HashJoinProbe") && node.children.size() == 2) {
    // The shared build runs once for all fragments and reports its wall
    // time as a counter; the build input's own time is taken out of it.
    // Probe self time, summed over fragments, includes their waits on the
    // shared build.
    const int64_t build = std::max<int64_t>(
        0, node.Counter("build_ns") - node.children[1].TotalNs());
    f->build_ns += build;
    f->probe_ns += self;
  } else if (StartsWith(name, "HashJoin") && node.children.size() == 2) {
    // The serial join builds in Open(), after draining its build input and
    // opening its probe input.
    const int64_t build = std::max<int64_t>(
        0, node.open_ns - node.children[1].TotalNs() -
               node.children[0].open_ns);
    f->build_ns += build;
    f->probe_ns += std::max<int64_t>(0, self - build);
  }
  for (const OperatorProfile& child : node.children) Accumulate(child, f);
}

bool SameOperatorKind(PlanKind kind, const std::string& name) {
  switch (kind) {
    case PlanKind::kScan:
      return StartsWith(name, "ColumnStoreScan");
    case PlanKind::kFilter:
      return name == "Filter";
    case PlanKind::kProject:
      return name == "Project";
    case PlanKind::kJoin:
      return StartsWith(name, "HashJoin");
    case PlanKind::kAggregate:
      return StartsWith(name, "HashAggregate") || name == "ScalarAggregate";
    case PlanKind::kSort:
      return name == "Sort" || name == "TopN";
    case PlanKind::kLimit:
      return name == "Limit";
    case PlanKind::kUnionAll:
      return name == "UnionAll";
  }
  return false;
}

const OperatorProfile* SkipExchanges(const OperatorProfile* node) {
  while (StartsWith(node->name, "Exchange") && !node->children.empty()) {
    node = &node->children[0];
  }
  return node;
}

// Walks the optimized logical plan and the profile tree together and keeps
// the worst ratio between the optimizer's row estimate for a node and the
// rows the matching operator produced. Exchanges and partial aggregates
// exist only physically and are stepped over; a mismatch in shape ends
// the walk on that branch.
void WorstQError(const vstore::Catalog& catalog, const PlanPtr& plan,
                 const OperatorProfile* node, double* worst) {
  node = SkipExchanges(node);
  if (!SameOperatorKind(plan->kind, node->name)) return;
  const double estimate = std::max(1.0, vstore::EstimateRows(catalog, plan));
  const double actual =
      std::max(1.0, static_cast<double>(node->rows_produced));
  *worst = std::max(*worst, std::max(estimate / actual, actual / estimate));
  if (node->name == "HashAggregate(final)" && !node->children.empty()) {
    node = SkipExchanges(&node->children[0]);
    if (node->name != "HashAggregate(partial)") return;
  }
  const size_t n = std::min(plan->children.size(), node->children.size());
  for (size_t i = 0; i < n; ++i) {
    WorstQError(catalog, plan->children[i], &node->children[i], worst);
  }
}

int64_t CpuNs(bool thread_cpu) {
  return thread_cpu ? ThreadCpuNs() : ProcessCpuNs();
}

}  // namespace

std::vector<BenchQuery> QuerySet(const vstore::Catalog& catalog) {
  return {{"q1", vstore::tpch::Q1(catalog)},
          {"q3", vstore::tpch::Q3(catalog)},
          {"q5", vstore::tpch::Q5(catalog)},
          {"q6", vstore::tpch::Q6(catalog)},
          {"q12", vstore::tpch::Q12(catalog)},
          {"orderkey_agg", OrderkeyAgg(catalog)}};
}

Answers::Answers(const vstore::tpch::Tables& tables) {
  vstore::Catalog catalog;
  // The tables the query set reads.
  const std::pair<const char*, const TableData*> read[] = {
      {"region", &tables.region},     {"nation", &tables.nation},
      {"supplier", &tables.supplier}, {"customer", &tables.customer},
      {"orders", &tables.orders},     {"lineitem", &tables.lineitem}};
  for (const auto& [name, data] : read) {
    auto table = std::make_unique<vstore::RowStoreTable>(name, data->schema());
    vstore::Status st = table->Append(*data);
    if (st.ok()) st = catalog.AddRowStore(std::move(table));
    if (!st.ok()) Fail(std::string("row store ") + name + ": " + st.ToString());
  }
  vstore::QueryOptions options;
  options.mode = vstore::ExecutionMode::kRow;
  vstore::QueryExecutor executor(&catalog, options);
  for (const BenchQuery& q : QuerySet(catalog)) {
    auto result = executor.Execute(q.plan);
    if (!result.ok()) {
      Fail("row engine " + q.name + ": " + result.status().ToString());
    }
    Expected e;
    e.data = std::move(result->data);
    e.order = CanonicalOrder(e.data);
    expected_[q.name] = std::move(e);
  }
}

bool Answers::Matches(const std::string& query, const TableData& got) const {
  auto it = expected_.find(query);
  if (it == expected_.end()) return false;
  const TableData& want = it->second.data;
  if (want.num_rows() != got.num_rows() ||
      want.num_columns() != got.num_columns()) {
    return false;
  }
  const std::vector<int64_t> got_order = CanonicalOrder(got);
  for (size_t k = 0; k < got_order.size(); ++k) {
    for (int c = 0; c < want.num_columns(); ++c) {
      if (!CellsMatch(want.column(c), it->second.order[k], got.column(c),
                      got_order[k])) {
        return false;
      }
    }
  }
  return true;
}

const std::vector<LayerMetric>& QueryLayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"query.optimize_ms", "ms"},
      {"query.lower_ms", "ms"},
      {"query.qerror_max", "ratio"},
      {"exec.cpu_ms", "ms"},
      {"exec.offcpu_share", "share"},
      {"exec.scan.self_ms", "ms"},
      {"exec.filter.self_ms", "ms"},
      {"exec.hash_aggregate.self_ms", "ms"},
      {"exec.hash_join.build_ms", "ms"},
      {"exec.hash_join.probe_ms", "ms"},
      {"exec.exchange.self_ms", "ms"},
      {"exec.spill_mb", "MiB"},
      {"exec.peak_mem_mb", "MiB"},
      {"exec.scan.segments_eliminated_share", "share"},
      {"exec.bloom.drop_share", "share"},
      {"common.memory.peak_over_budget", "ratio"},
  };
  return metrics;
}

LoopResult RunQueryLoop(const vstore::Catalog& catalog,
                        const LoopConfig& config,
                        const std::function<bool()>& keep_going) {
  const vstore::QueryOptions& options = config.options;
  const vstore::QueryExecutor executor(&catalog, options);
  std::vector<BenchQuery> queries = QuerySet(catalog);
  const PlanPtr q1cols = Q1ColumnsScan(catalog);
  std::mt19937_64 rng(config.seed);
  LoopResult out;
  std::map<std::string, int64_t> executions;

  // One untimed round first: the first execution of each query pays page
  // faults and allocator growth that later executions do not.
  for (const BenchQuery& q : queries) {
    auto result = executor.Execute(q.plan);
    ++out.attempted;
    if (!result.ok() || (config.answers != nullptr &&
                         !config.answers->Matches(q.name, result->data))) {
      ++out.failed;
      Log("%s failed its warm-up execution", q.name.c_str());
    }
  }

  const auto loop_start = Clock::now();
  while (keep_going()) {
    std::shuffle(queries.begin(), queries.end(), rng);
    if (config.trace) {
      // Scan-only probe; materializing its 300k rows would measure the
      // result buffer, not the scan, so only the row count is kept.
      vstore::QueryOptions scan_options = options;
      scan_options.materialize = false;
      auto start = Clock::now();
      auto scanned =
          vstore::QueryExecutor(&catalog, scan_options).Execute(q1cols);
      out.q1cols_ms.push_back(MsBetween(start, Clock::now()));
      ++out.attempted;
      if (!scanned.ok()) ++out.failed;
    }
    for (const BenchQuery& q : queries) {
      if (!keep_going()) break;
      QuerySamples& samples = out.queries[q.name];
      const bool traced = config.trace && executions[q.name]++ % 2 == 1;
      auto& layers = samples.layers;

      if (traced) {
        if (config.fact != nullptr) {
          out.delta_rows.push_back(
              static_cast<double>(config.fact->DeltaRows()));
        }
        // The two front-end calls Execute makes, timed on their own.
        auto t0 = Clock::now();
        PlanPtr optimized =
            vstore::Optimize(catalog, q.plan, options.optimizer);
        auto t1 = Clock::now();
        vstore::ExecContext ctx;
        vstore::PhysicalPlanOptions lower;
        lower.mode = options.mode;
        lower.dop = options.dop;
        auto physical =
            vstore::CreatePhysicalPlan(catalog, optimized, &ctx, lower);
        auto t2 = Clock::now();
        if (!physical.ok()) {
          Fail("lower " + q.name + ": " + physical.status().ToString());
        }
        layers["query.optimize_ms"].push_back(MsBetween(t0, t1));
        layers["query.lower_ms"].push_back(MsBetween(t1, t2));
      }

      const int64_t cpu0 = CpuNs(config.thread_cpu);
      const auto start = Clock::now();
      auto result = executor.Execute(q.plan);
      const auto end = Clock::now();
      const double cpu_ms =
          static_cast<double>(CpuNs(config.thread_cpu) - cpu0) / 1e6;
      const double wall_ms = MsBetween(start, end);
      ++out.attempted;
      if (!result.ok()) {
        ++out.failed;
        Log("%s failed: %s", q.name.c_str(),
            result.status().ToString().c_str());
        continue;
      }
      samples.spill_bytes.push_back(result->spill_bytes);
      samples.peak_bytes =
          std::max(samples.peak_bytes, result->peak_memory_bytes);

      if (traced) {
        ProfileFigures f;
        Accumulate(result->profile, &f);
        double qerror = 1;
        WorstQError(catalog, result->optimized_plan, &result->profile,
                    &qerror);
        auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
        auto share = [](int64_t part, int64_t whole) {
          return whole > 0
                     ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
        };
        const std::pair<const char*, double> readings[] = {
            {"query.qerror_max", qerror},
            {"exec.cpu_ms", cpu_ms},
            {"exec.offcpu_share", wall_ms > 0 ? 1 - cpu_ms / wall_ms : 0},
            {"exec.scan.self_ms", ms(f.scan_ns)},
            {"exec.filter.self_ms", ms(f.filter_ns)},
            {"exec.hash_aggregate.self_ms", ms(f.aggregate_ns)},
            {"exec.hash_join.build_ms", ms(f.build_ns)},
            {"exec.hash_join.probe_ms", ms(f.probe_ns)},
            {"exec.exchange.self_ms", ms(f.exchange_ns)},
            {"exec.spill_mb", MiB(result->spill_bytes)},
            {"exec.peak_mem_mb", MiB(result->peak_memory_bytes)},
            {"exec.scan.segments_eliminated_share",
             share(f.groups_eliminated,
                   f.groups_scanned + f.groups_eliminated)},
            {"exec.bloom.drop_share",
             share(f.bloom_rows_dropped, f.bloom_rows_in)},
            {"common.memory.peak_over_budget",
             share(result->peak_memory_bytes, options.query_memory_budget)},
        };
        for (const auto& [name, value] : readings) {
          layers[name].push_back(value);
        }
        samples.traced_wall_ms.push_back(wall_ms);
      } else {
        samples.wall_ms.push_back(wall_ms);
        samples.cpu_ms.push_back(cpu_ms);
      }

      const auto check_start = Clock::now();
      if (config.answers != nullptr &&
          !config.answers->Matches(q.name, result->data)) {
        ++out.failed;
        Log("%s returned a different answer than the row engine",
            q.name.c_str());
      }
      out.check_ms += MsBetween(check_start, Clock::now());
    }
  }
  out.loop_ms = MsBetween(loop_start, Clock::now());
  return out;
}

}  // namespace perfbench
