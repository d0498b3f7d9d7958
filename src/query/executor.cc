#include "query/executor.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/span_trace.h"
#include "exec/profile.h"
#include "query/query_store.h"

namespace vstore {

namespace {

// Engine-wide query metrics (unlabeled — they aggregate across tables).
// Handles are resolved once; the registry never frees them.
struct QueryMetrics {
  Counter* queries_total;
  Counter* query_failures_total;
  Counter* rows_returned_total;
  Counter* rows_scanned_total;
  Counter* delta_rows_scanned_total;
  Counter* segments_scanned_total;
  Counter* segments_eliminated_total;
  Counter* bloom_rows_dropped_total;
  Counter* spill_partitions_total;
  Counter* build_rows_spilled_total;
  Counter* probe_rows_spilled_total;
  Gauge* active_queries;
  Histogram* latency_ns;
};

QueryMetrics& GlobalQueryMetrics() {
  static QueryMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* qm = new QueryMetrics();
    qm->queries_total = r.GetCounter("vstore_query_total");
    qm->query_failures_total = r.GetCounter("vstore_query_failures_total");
    qm->rows_returned_total = r.GetCounter("vstore_query_rows_returned_total");
    qm->rows_scanned_total = r.GetCounter("vstore_query_rows_scanned_total");
    qm->delta_rows_scanned_total =
        r.GetCounter("vstore_query_delta_rows_scanned_total");
    qm->segments_scanned_total =
        r.GetCounter("vstore_query_segments_scanned_total");
    qm->segments_eliminated_total =
        r.GetCounter("vstore_query_segments_eliminated_total");
    qm->bloom_rows_dropped_total =
        r.GetCounter("vstore_query_bloom_rows_dropped_total");
    qm->spill_partitions_total =
        r.GetCounter("vstore_query_spill_partitions_total");
    qm->build_rows_spilled_total =
        r.GetCounter("vstore_query_build_rows_spilled_total");
    qm->probe_rows_spilled_total =
        r.GetCounter("vstore_query_probe_rows_spilled_total");
    qm->active_queries = r.GetGauge("vstore_query_active");
    qm->latency_ns = r.GetHistogram("vstore_query_latency_ns");
    return qm;
  }();
  return *m;
}

// Marks a query in flight; counts it as a failure unless Succeeded() runs.
class QueryScope {
 public:
  QueryScope() { GlobalQueryMetrics().active_queries->Add(1); }
  ~QueryScope() {
    QueryMetrics& m = GlobalQueryMetrics();
    m.active_queries->Add(-1);
    m.queries_total->Increment();
    if (!succeeded_) m.query_failures_total->Increment();
  }
  void Succeeded() { succeeded_ = true; }

 private:
  bool succeeded_ = false;
};

// Removes the query from sys.active_queries on every exit path (success,
// error return, exception).
class ActiveQueryHandle {
 public:
  explicit ActiveQueryHandle(bool tracing) {
    if (tracing) query_ = ActiveQueryRegistry::Global().Register();
  }
  ~ActiveQueryHandle() {
    if (query_ != nullptr) {
      ActiveQueryRegistry::Global().Unregister(query_->query_id);
    }
  }
  ActiveQuery* get() const { return query_.get(); }
  void SetPhase(QueryPhase phase) {
    if (query_ != nullptr) {
      query_->phase.store(static_cast<int>(phase), std::memory_order_relaxed);
    }
  }

 private:
  std::shared_ptr<ActiveQuery> query_;
};

}  // namespace

Result<QueryResult> QueryExecutor::Execute(const PlanPtr& plan) const {
  QueryScope scope;
  QueryResult result;

  // Tracing setup: the recorder lives on this frame; the thread-local
  // scope hands it to every operator and wait site below (the exchange
  // re-installs it on fragment worker threads via ExecContext).
  const bool tracing = options_.trace;
  ActiveQueryHandle active(tracing);
  std::unique_ptr<QuerySpanRecorder> recorder;
  if (tracing) {
    recorder = std::make_unique<QuerySpanRecorder>();
    result.query_id = active.get()->query_id;
  }
  QueryTraceScope trace_scope(recorder.get(),
                              recorder != nullptr ? recorder->root() : nullptr,
                              active.get());

  TraceSpan* phase_span =
      recorder != nullptr ? recorder->StartSpan("optimize", "phase", nullptr)
                          : nullptr;
  result.optimized_plan =
      options_.optimize ? Optimize(*catalog_, plan, options_.optimizer)
                        : ClonePlan(plan);
  if (recorder != nullptr) recorder->EndSpan(phase_span);
  result.schema = result.optimized_plan->schema;
  if (options_.materialize) {
    result.data = TableData(result.schema);
  }

  uint64_t fingerprint = 0;
  if (tracing) {
    fingerprint = PlanFingerprint(*result.optimized_plan);
    active.get()->fingerprint.store(fingerprint, std::memory_order_relaxed);
    active.get()->SetPlanSummary(PlanShapeSummary(*result.optimized_plan));
  }

  // Per-query memory tracker under the process root. Declared before the
  // physical plan so every operator (whose child trackers and pressure
  // listeners point here) is destroyed first. The soft budget turns
  // crossings into pressure edges that spilling operators consume at their
  // existing spill decision points.
  std::unique_ptr<MemoryTracker> query_tracker;
  if (options_.track_memory) {
    query_tracker = std::make_unique<MemoryTracker>(
        "query:" + std::to_string(result.query_id), "query",
        MemoryTracker::Process());
    if (options_.query_memory_budget > 0) {
      query_tracker->SetBudget(options_.query_memory_budget);
    }
    if (active.get() != nullptr) {
      active.get()->mem_budget_bytes.store(options_.query_memory_budget,
                                           std::memory_order_relaxed);
    }
  }

  ExecContext ctx;
  ctx.batch_size = options_.batch_size;
  ctx.operator_memory_budget = options_.operator_memory_budget;
  ctx.trace_recorder = recorder.get();
  ctx.active_query = active.get();
  ctx.memory_tracker = query_tracker.get();

  PhysicalPlanOptions planner_options;
  planner_options.mode = options_.mode;
  planner_options.dop = options_.dop;

  auto start = std::chrono::steady_clock::now();
  // The compile phase covers physical planning: snapshot pinning (a table
  // lock-wait site), expression bytecode compilation, operator tree
  // construction. Waits hit here land under the compile span.
  active.SetPhase(QueryPhase::kCompile);
  phase_span = recorder != nullptr
                   ? recorder->StartSpan("compile", "phase", nullptr)
                   : nullptr;
  Result<PhysicalPlan> physical_result = [&] {
    SpanGuard guard(phase_span);
    return CreatePhysicalPlan(*catalog_, result.optimized_plan, &ctx,
                              planner_options);
  }();
  if (recorder != nullptr) recorder->EndSpan(phase_span);
  if (!physical_result.ok()) return physical_result.status();
  PhysicalPlan physical = std::move(physical_result).value();

  active.SetPhase(QueryPhase::kExecute);
  phase_span = recorder != nullptr
                   ? recorder->StartSpan("execute", "phase", nullptr)
                   : nullptr;
  {
    SpanGuard guard(phase_span);
    VSTORE_RETURN_IF_ERROR(physical.root->Open());
    for (;;) {
      VSTORE_ASSIGN_OR_RETURN(Batch * batch, physical.root->Next());
      if (batch == nullptr) break;
      result.rows_returned += batch->active_count();
      if (active.get() != nullptr) {
        active.get()->rows_produced.fetch_add(batch->active_count(),
                                              std::memory_order_relaxed);
        if (query_tracker != nullptr) {
          // Live memory usage for sys.active_queries, refreshed per batch.
          active.get()->mem_current_bytes.store(query_tracker->current(),
                                                std::memory_order_relaxed);
          active.get()->mem_peak_bytes.store(query_tracker->peak(),
                                             std::memory_order_relaxed);
        }
      }
      if (options_.materialize) MaterializeActiveRows(*batch, &result.data);
    }
    physical.root->Close();
  }
  if (recorder != nullptr) recorder->EndSpan(phase_span);
  active.SetPhase(QueryPhase::kDone);
  result.profile = physical.root->BuildProfile();
  if (query_tracker != nullptr) {
    result.peak_memory_bytes = query_tracker->peak();
    if (active.get() != nullptr) {
      active.get()->mem_current_bytes.store(query_tracker->current(),
                                            std::memory_order_relaxed);
      active.get()->mem_peak_bytes.store(result.peak_memory_bytes,
                                         std::memory_order_relaxed);
    }
  }
  result.spill_bytes = result.profile.SpillBytesDeep();
  auto end = std::chrono::steady_clock::now();

  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.stats = ctx.stats;

  // Fold this query into the cumulative engine counters: end-to-end
  // latency, rows out, and the per-operator roll-ups from the finished
  // profile tree (fragment subtrees are already merged node-wise by the
  // exchange, so CounterDeep sums each event exactly once).
  const int64_t segments_scanned = result.profile.CounterDeep("groups_scanned");
  const int64_t segments_eliminated =
      result.profile.CounterDeep("groups_eliminated");
  const int64_t bloom_rows_dropped =
      result.profile.CounterDeep("bloom_rows_dropped");
  const int64_t spill_partitions =
      result.profile.CounterDeep("spill_partitions");
  const int64_t build_rows_spilled =
      result.profile.CounterDeep("build_rows_spilled");
  const int64_t probe_rows_spilled =
      result.profile.CounterDeep("probe_rows_spilled");
  QueryMetrics& m = GlobalQueryMetrics();
  m.latency_ns->Observe(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  m.rows_returned_total->Increment(result.rows_returned);
  m.rows_scanned_total->Increment(result.profile.CounterDeep("rows_scanned"));
  m.delta_rows_scanned_total->Increment(
      result.profile.CounterDeep("delta_rows"));
  m.segments_scanned_total->Increment(segments_scanned);
  m.segments_eliminated_total->Increment(segments_eliminated);
  m.bloom_rows_dropped_total->Increment(bloom_rows_dropped);
  m.spill_partitions_total->Increment(spill_partitions);
  m.build_rows_spilled_total->Increment(build_rows_spilled);
  m.probe_rows_spilled_total->Increment(probe_rows_spilled);
  scope.Succeeded();

  // Seal the span tree into the result. The recorder dies with this
  // frame; Snapshot() deep-copies (all fragment threads joined in Close).
  if (recorder != nullptr) {
    recorder->EndSpan(recorder->root());
    result.trace = recorder->Snapshot();
    result.trace.query_id = result.query_id;
    result.trace.fingerprint = fingerprint;
  }

  const int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count();
  const bool references_system_view =
      PlanReferencesSystemView(*result.optimized_plan);

  // Fold the execution into the Query Store, keyed by plan shape. Queries
  // that read sys.* views are excluded: observing the store must not grow
  // the store.
  if (!references_system_view) {
    QueryStore::ExecutionCounters qc;
    qc.rows_returned = result.rows_returned;
    qc.segments_scanned = segments_scanned;
    qc.segments_eliminated = segments_eliminated;
    qc.bloom_rows_dropped = bloom_rows_dropped;
    qc.spill_partitions = spill_partitions;
    qc.rows_spilled = build_rows_spilled + probe_rows_spilled;
    qc.peak_mem_bytes = result.peak_memory_bytes;
    qc.spill_bytes = result.spill_bytes;
    if (result.trace.valid) {
      qc.wait_queue_us =
          result.trace.wait_ns[static_cast<size_t>(WaitPoint::kQueue)] / 1000;
      qc.wait_fsync_us =
          result.trace.wait_ns[static_cast<size_t>(WaitPoint::kFsync)] / 1000;
      qc.wait_lock_us =
          result.trace.wait_ns[static_cast<size_t>(WaitPoint::kLock)] / 1000;
      qc.wait_reorg_us =
          result.trace.wait_ns[static_cast<size_t>(WaitPoint::kReorgConflict)] /
          1000;
    }
    QueryStore::Global().Record(*result.optimized_plan, elapsed_us, qc);
  }

  // Slow-query capture: over-threshold queries keep their full span tree
  // and EXPLAIN ANALYZE JSON in the bounded ring behind sys.slow_queries.
  // sys.* readers are excluded for the same reason as above.
  if (result.trace.valid && !references_system_view) {
    SlowQueryLog& slow_log = SlowQueryLog::Global();
    const int64_t threshold_us = slow_log.threshold_us();
    if (threshold_us >= 0 && elapsed_us >= threshold_us) {
      SlowQueryLog::Entry entry;
      entry.query_id = result.query_id;
      entry.fingerprint = fingerprint;
      entry.plan_summary = PlanShapeSummary(*result.optimized_plan);
      entry.start_us = result.trace.root.start_us;
      entry.elapsed_us = elapsed_us;
      entry.rows_returned = result.rows_returned;
      for (int p = 0; p < kNumWaitPoints; ++p) {
        entry.wait_us[static_cast<size_t>(p)] =
            result.trace.wait_ns[static_cast<size_t>(p)] / 1000;
      }
      entry.trace_json = TraceToChromeJson(result.trace);
      entry.profile_json = ProfileToJson(result.profile);
      slow_log.Record(std::move(entry));
    }
  }
  return result;
}

std::string FormatResult(const QueryResult& result, int64_t max_rows) {
  std::string out;
  const Schema& schema = result.schema;
  std::vector<size_t> widths;
  for (const Field& f : schema.fields()) {
    widths.push_back(f.name.size());
  }
  int64_t rows = std::min<int64_t>(result.data.num_rows(), max_rows);
  std::vector<std::vector<std::string>> cells;
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < schema.num_columns(); ++c) {
      std::string cell = result.data.column(c).GetValue(r).ToString();
      widths[static_cast<size_t>(c)] =
          std::max(widths[static_cast<size_t>(c)], cell.size());
      row.push_back(std::move(cell));
    }
    cells.push_back(std::move(row));
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  for (int c = 0; c < schema.num_columns(); ++c) {
    out += pad(schema.field(c).name, widths[static_cast<size_t>(c)]) + "  ";
  }
  out += "\n";
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += pad(row[c], widths[c]) + "  ";
    }
    out += "\n";
  }
  if (result.data.num_rows() > rows) {
    out += "... (" + std::to_string(result.data.num_rows() - rows) +
           " more rows)\n";
  }
  return out;
}

}  // namespace vstore
