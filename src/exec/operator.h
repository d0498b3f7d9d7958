#ifndef VSTORE_EXEC_OPERATOR_H_
#define VSTORE_EXEC_OPERATOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/batch.h"
#include "exec/expr_program.h"
#include "exec/expression.h"
#include "exec/profile.h"
#include "types/schema.h"

namespace vstore {

// Counters surfaced to benchmarks and EXPLAIN-style output.
struct ExecStats {
  int64_t rows_scanned = 0;           // rows decoded from compressed groups
  int64_t delta_rows_scanned = 0;     // rows read from delta stores
  int64_t row_groups_scanned = 0;
  int64_t row_groups_eliminated = 0;  // skipped via segment elimination
  int64_t rows_bloom_filtered = 0;    // rows dropped by pushed bitmap filters
  int64_t build_rows_spilled = 0;     // hash join/agg rows written to spill
  int64_t probe_rows_spilled = 0;
  int64_t spill_partitions = 0;

  void MergeFrom(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    delta_rows_scanned += other.delta_rows_scanned;
    row_groups_scanned += other.row_groups_scanned;
    row_groups_eliminated += other.row_groups_eliminated;
    rows_bloom_filtered += other.rows_bloom_filtered;
    build_rows_spilled += other.build_rows_spilled;
    probe_rows_spilled += other.probe_rows_spilled;
    spill_partitions += other.spill_partitions;
  }
};

class QuerySpanRecorder;
class MemoryTracker;
struct ActiveQuery;
struct TraceSpan;

// Shared execution state for one query. Not thread-safe; parallel fragments
// get their own contexts whose stats are merged by the exchange operator.
struct ExecContext {
  int64_t batch_size = kDefaultBatchSize;
  // Memory budget per stateful operator (hash join build side, hash
  // aggregation state) before spilling kicks in. <= 0 means unlimited.
  int64_t operator_memory_budget = 0;
  // Compile Filter/Project expressions to bytecode at build time; off
  // forces the tree-interpreter path (the differential oracle).
  bool compile_expressions = true;
  // Query tracing hooks, null when the query runs untraced. Operators
  // reach the span tree through the thread-local QueryTraceContext; these
  // pointers exist so the exchange can re-install that context on its
  // fragment worker threads and so scans can bump the live progress
  // counters read by sys.active_queries.
  QuerySpanRecorder* trace_recorder = nullptr;
  ActiveQuery* active_query = nullptr;
  // This query's memory tracker (null when tracking is off). Stateful
  // operators hang per-operator child trackers off it and poll its budget
  // pressure at their spill decision points; the exchange threads it into
  // fragment contexts like the trace hooks above.
  MemoryTracker* memory_tracker = nullptr;
  ExecStats stats;
};

// Context of a plan fragment that runs for `parent` (exchange fragments,
// hash join build fragments): the parent's settings and trace hooks, fresh
// stats for the owner to merge, and `tracker` as its memory tracker.
inline ExecContext FragmentContext(const ExecContext& parent,
                                   MemoryTracker* tracker) {
  ExecContext fctx = parent;
  fctx.memory_tracker = tracker;
  fctx.stats = ExecStats();
  return fctx;
}

// Pull-based vectorized operator (paper §5: operators consume and produce
// batches). Protocol: Open() once, then Next() until it yields nullptr,
// then Close(). The returned batch is owned by the operator and valid until
// the following Next()/Close().
//
// The protocol entry points are non-virtual: they wrap the *Impl hooks with
// wall-clock and row accounting that feeds the per-operator profile
// (EXPLAIN ANALYZE). Open() resets the accounting, so a reopened operator
// profiles its latest execution.
class BatchOperator {
 public:
  virtual ~BatchOperator() = default;

  Status Open();
  Result<Batch*> Next();
  void Close();  // idempotent: repeated calls only close once

  virtual const Schema& output_schema() const = 0;
  virtual std::string name() const = 0;

  // Snapshot of the profile subtree rooted at this operator. Complete once
  // Close() has run; safe to call at any point for partial numbers.
  OperatorProfile BuildProfile() const;

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<Batch*> NextImpl() = 0;
  virtual void CloseImpl() {}

  // Inputs reported as children of this node's profile.
  virtual std::vector<const BatchOperator*> ProfileInputs() const {
    return {};
  }
  // Operator-specific counters appended to this node's profile.
  virtual void AppendProfileCounters(OperatorProfile* node) const {}
  // Default child collection from ProfileInputs(); Exchange overrides this
  // to attach its merged fragment subtree instead.
  virtual void AppendProfileChildren(OperatorProfile* node) const;

  // Stateful operators report their memory high-water mark here.
  void RecordPeakMemory(int64_t bytes) {
    profile_peak_memory_ = std::max(profile_peak_memory_, bytes);
  }

  // Folds a tracker snapshot into this node's profile: peak takes the max,
  // mem_current is the latest resident reading. No-op on nullptr.
  void RecordMemoryTracker(const MemoryTracker* tracker);

  // Bytes this operator wrote to spill files (profile spill_bytes column).
  void RecordSpillBytes(int64_t bytes) { profile_spill_bytes_ += bytes; }

  // This operator's span in the current query's trace (opened by Open(),
  // closed by Close(); null when the query runs untraced). The exchange
  // parents its fragment spans here from worker threads.
  TraceSpan* trace_span() const { return trace_span_; }

 private:
  TraceSpan* trace_span_ = nullptr;
  int64_t profile_open_ns_ = 0;
  int64_t profile_next_ns_ = 0;
  int64_t profile_close_ns_ = 0;
  int64_t profile_batches_ = 0;
  int64_t profile_rows_ = 0;
  int64_t profile_peak_memory_ = 0;
  int64_t profile_mem_current_ = 0;
  int64_t profile_spill_bytes_ = 0;
  bool opened_ = false;
};

using BatchOperatorPtr = std::unique_ptr<BatchOperator>;

// --- Filter ----------------------------------------------------------------
// Marks rows inactive when the predicate is false or null; never compacts
// (the paper's qualifying-rows-vector behaviour). A compiled string IN over
// a column with a code lane is decided on dictionary codes.
class FilterOperator final : public BatchOperator {
 public:
  // Compiles the predicate to bytecode at build time (= plan lowering);
  // falls back to the tree interpreter when compilation is unsupported or
  // disabled via ctx->compile_expressions.
  FilterOperator(BatchOperatorPtr input, ExprPtr predicate, ExecContext* ctx);

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "Filter"; }

 protected:
  Status OpenImpl() override {
    rows_in_ = 0;
    rows_dropped_ = 0;
    rows_code_filtered_ = 0;
    return input_->Open();
  }
  Result<Batch*> NextImpl() override;
  void CloseImpl() override { input_->Close(); }
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {input_.get()};
  }
  void AppendProfileCounters(OperatorProfile* node) const override {
    node->counters.push_back({"rows_in", rows_in_});
    node->counters.push_back({"rows_dropped", rows_dropped_});
    node->counters.push_back({"rows_code_filtered", rows_code_filtered_});
    node->counters.push_back({"compiled", program_ != nullptr ? 1 : 0});
  }

 private:
  BatchOperatorPtr input_;
  ExprPtr predicate_;
  ExecContext* ctx_;
  std::shared_ptr<const ExprProgram> program_;  // null -> interpreter path
  std::unique_ptr<ExprFrame> frame_;
  int64_t rows_in_ = 0;
  int64_t rows_dropped_ = 0;
  int64_t rows_code_filtered_ = 0;  // rows a string IN decided on codes
};

// --- Project ---------------------------------------------------------------
// Computes expressions over each input batch into a new batch. Compacts
// active rows (downstream operators after a projection see dense batches).
// String columns passed through unchanged keep their code lane.
class ProjectOperator final : public BatchOperator {
 public:
  ProjectOperator(BatchOperatorPtr input, std::vector<ExprPtr> exprs,
                  std::vector<std::string> names, ExecContext* ctx);

  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "Project"; }

 protected:
  Status OpenImpl() override { return input_->Open(); }
  Result<Batch*> NextImpl() override;
  void CloseImpl() override { input_->Close(); }
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {input_.get()};
  }

 protected:
  void AppendProfileCounters(OperatorProfile* node) const override {
    node->counters.push_back({"compiled", program_ != nullptr ? 1 : 0});
  }

 private:
  BatchOperatorPtr input_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  ExecContext* ctx_;
  // One program for all projection expressions, so CSE spans outputs.
  std::shared_ptr<const ExprProgram> program_;
  std::unique_ptr<ExprFrame> frame_;
  std::unique_ptr<Batch> output_;
  // Per expression: the input column it references, or -1 when computed.
  std::vector<int> column_refs_;
  std::vector<int32_t> sel_;  // active rows of the current input batch
};

// --- Limit -------------------------------------------------------------------
class LimitOperator final : public BatchOperator {
 public:
  LimitOperator(BatchOperatorPtr input, int64_t limit, ExecContext* ctx)
      : input_(std::move(input)), limit_(limit), ctx_(ctx) {}

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "Limit"; }

 protected:
  Status OpenImpl() override {
    remaining_ = limit_;
    return input_->Open();
  }
  Result<Batch*> NextImpl() override;
  void CloseImpl() override { input_->Close(); }
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {input_.get()};
  }

 private:
  BatchOperatorPtr input_;
  int64_t limit_;
  int64_t remaining_ = 0;
  ExecContext* ctx_;
};

// Copies the active rows of `src` into `dst` starting at dst->num_rows(),
// compacting as it goes. Returns rows copied. Both batches must share a
// schema; string payloads are re-anchored in dst's arena.
int64_t AppendActiveRows(const Batch& src, Batch* dst);

}  // namespace vstore

#endif  // VSTORE_EXEC_OPERATOR_H_
