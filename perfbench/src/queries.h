#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

// The read side of every workload: the six queries, the row-engine answers
// they are checked against, and the closed-loop client that runs them and
// (in a traced run) times the calls into each layer.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "database.h"
#include "query/executor.h"
#include "query/logical_plan.h"
#include "tpch/dbgen.h"

namespace perfbench {

struct BenchQuery {
  std::string name;  // metric suffix: q1, q3, q5, q6, q12, orderkey_agg
  vstore::PlanPtr plan;
};

// TPC-H Q1/Q3/Q5/Q6/Q12 plus orderkey_agg (GROUP BY l_orderkey, about
// 75k groups at SF 0.05), planned against `catalog`.
std::vector<BenchQuery> QuerySet(const vstore::Catalog& catalog);

// One answer per query from the row engine over row stores: computed once
// per run, outside every timed region.
class Answers {
 public:
  explicit Answers(const vstore::tpch::Tables& tables);
  // Same multiset of rows (order-insensitive); non-double values equal,
  // doubles within 1e-9 relative, as the batch/row TPC-H tests compare.
  bool Matches(const std::string& query, const vstore::TableData& got) const;

 private:
  struct Expected {
    vstore::TableData data;
    std::vector<int64_t> order;  // canonical row order
  };
  std::map<std::string, Expected> expected_;
};

struct LoopConfig {
  vstore::QueryOptions options;  // defaults except mode, dop and budget
  bool trace = false;
  // Measure the calling thread's CPU instead of the process's: for a
  // dop-1 reader that shares the process with a writer and a mover.
  bool thread_cpu = false;
  const Answers* answers = nullptr;   // null: answers are not checked
  const FactTable* fact = nullptr;    // sampled for delta rows when traced
  uint64_t seed = 0;
};

struct QuerySamples {
  std::vector<double> wall_ms;  // Execute of untraced executions
  std::vector<double> cpu_ms;   // CPU of the same executions
  std::vector<double> traced_wall_ms;  // Execute of traced executions
  // Per-layer readings of traced executions, keyed by metric prefix
  // ("exec.scan.self_ms", "query.optimize_ms", ...).
  std::map<std::string, std::vector<double>> layers;
  std::vector<int64_t> spill_bytes;  // every execution
  int64_t peak_bytes = 0;
};

struct LoopResult {
  std::map<std::string, QuerySamples> queries;
  std::vector<double> q1cols_ms;      // traced runs: scan-only probe
  std::vector<double> delta_rows;     // traced runs: at each traced query
  double loop_ms = 0;   // wall time of the timed rounds
  double check_ms = 0;  // of which comparing answers with the row engine
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Closed loop, one client: each round runs every query once in an order
// shuffled by the seed, until `keep_going` returns false. In a traced run
// executions of each query alternate untraced / traced, so the overhead of
// the benchmark's own layer timing is measured inside the same run.
LoopResult RunQueryLoop(const vstore::Catalog& catalog,
                        const LoopConfig& config,
                        const std::function<bool()>& keep_going);

// Per-layer metrics recorded for every query: `<prefix>.<query>`.
struct LayerMetric {
  const char* prefix;
  const char* unit;
};
const std::vector<LayerMetric>& QueryLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
