#ifndef VSTORE_QUERY_EXECUTOR_H_
#define VSTORE_QUERY_EXECUTOR_H_

#include <string>

#include "common/span_trace.h"
#include "query/optimizer.h"
#include "query/physical_planner.h"
#include "types/table_data.h"

namespace vstore {

// Per-query knobs the benchmarks sweep.
struct QueryOptions {
  ExecutionMode mode = ExecutionMode::kAuto;
  int dop = 1;
  int64_t batch_size = kDefaultBatchSize;
  // Per-operator memory budget before spilling; 0 = unlimited.
  int64_t operator_memory_budget = 0;
  bool optimize = true;
  OptimizerOptions optimizer;
  // Materialize result rows into QueryResult::data (turn off for
  // scan-throughput measurements where only counts matter).
  bool materialize = true;
  // Record a structured span trace (phase/operator/wait spans), register
  // the query in sys.active_queries, and feed the slow-query log. On by
  // default — the cost is one span per operator execution plus a
  // thread-local pointer swap per protocol call; benchmarks gate the
  // overhead at <3%. Turn off for the tightest micro-measurements.
  bool trace = true;
  // Hierarchical memory accounting: a per-query MemoryTracker under the
  // process root, with per-operator / per-fragment children charged by
  // arenas, hash tables, sort runs, exchange queues and expression
  // scratch. Feeds EXPLAIN ANALYZE memory columns, sys.active_queries,
  // sys.query_stats and sys.memory. On by default; the bench gates the
  // overhead at <3%.
  bool track_memory = true;
  // Soft per-query memory budget in bytes (0 = unlimited). The charge that
  // crosses it fires pressure listeners, turning budget excess into
  // policy-driven spill in hash join/aggregate — results are unchanged,
  // only spill placement moves. Requires track_memory.
  int64_t query_memory_budget = 0;
};

struct QueryResult {
  Schema schema;
  TableData data;  // empty when materialize was false
  int64_t rows_returned = 0;
  ExecStats stats;
  double elapsed_ms = 0;
  PlanPtr optimized_plan;  // after rewrite, for EXPLAIN-style inspection
  // Per-operator profile tree mirroring the physical plan (EXPLAIN
  // ANALYZE): render with FormatProfile() or ProfileToJson().
  OperatorProfile profile;
  // Registry id this execution ran under (0 when tracing was off).
  uint64_t query_id = 0;
  // Per-query tracker high-water mark / spill volume (0 when track_memory
  // was off; spill bytes are summed from the operator profiles).
  int64_t peak_memory_bytes = 0;
  int64_t spill_bytes = 0;
  // Span tree + exact wait totals (trace.valid only when tracing was on):
  // render with TraceToChromeJson().
  QueryTrace trace;
};

// Front door of the query layer: optimize, lower, drive to completion.
class QueryExecutor {
 public:
  explicit QueryExecutor(const Catalog* catalog)
      : QueryExecutor(catalog, QueryOptions()) {}
  QueryExecutor(const Catalog* catalog, QueryOptions options)
      : catalog_(catalog), options_(options) {}

  Result<QueryResult> Execute(const PlanPtr& plan) const;

  const QueryOptions& options() const { return options_; }
  QueryOptions* mutable_options() { return &options_; }

 private:
  const Catalog* catalog_;
  QueryOptions options_;
};

// Renders a result as an aligned text table (examples and debugging).
std::string FormatResult(const QueryResult& result, int64_t max_rows = 20);

}  // namespace vstore

#endif  // VSTORE_QUERY_EXECUTOR_H_
