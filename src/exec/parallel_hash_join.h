#ifndef VSTORE_EXEC_PARALLEL_HASH_JOIN_H_
#define VSTORE_EXEC_PARALLEL_HASH_JOIN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/hash_join.h"

namespace vstore {

// Shared build side of a parallel batch-mode hash join (paper §5.3:
// multiple threads build one shared in-memory hash table, then all probe
// threads share the read-only result).
//
// Lifecycle: the physical planner creates one SharedHashJoinBuild per join
// in a parallelized plan region and hands it (via shared_ptr) to every
// probe fragment's HashJoinProbeOperator. The first fragment to Open()
// runs the build inside EnsureBuilt(): `build_dop` threads each lower one
// build-side fragment through `factory` (disjoint row-group stripes when
// the build side is a plain scan chain) and insert rows into
// hash-partitioned shared state under per-partition locks. Joining the
// build threads forms the barrier, after which the per-partition chained
// tables and the pushed-down Bloom filter are constructed in parallel —
// each finalize thread fills a private filter and the results are OR-merged.
// Fragments that call EnsureBuilt() while the build is running block until
// it finishes; afterwards every fragment probes the same tables with no
// synchronization.
//
// Spilling: when the resident build exceeds `memory_budget`, the inserting
// thread flushes the largest resident partition to a SpillFile (spill_mu_
// serializes victim selection so exactly one flush runs at a time). Build
// and probe fragments append the rows of spilled partitions as
// batch-columnar records, one per (input batch, partition), to the shared
// per-partition files under the partition lock, each through its own write
// buffer. The last fragment to finish probing (FinishProbeFragment) drains
// the spilled partition pairs single-threaded, one partition resident at a
// time, through the same JoinProber loop as its probe input.
//
// A SharedHashJoinBuild supports one execution; the executor lowers a
// fresh physical plan per query, so operators over it are never reopened.
class SharedHashJoinBuild {
 public:
  using Options = HashJoinOperator::Options;

  // Creates the operator tree for build fragment `fragment` against the
  // fragment's own context. `resources` may receive an owner for plan
  // resources (nested Bloom filters of joins inside the build subtree)
  // that must stay alive while the returned operator runs.
  using BuildFactory = std::function<Result<BatchOperatorPtr>(
      int fragment, ExecContext* fragment_ctx,
      std::shared_ptr<void>* resources)>;

  struct Partition {
    std::mutex mu;  // guards all mutable fields during build + probe spill
    std::unique_ptr<Arena> arena;
    std::vector<uint8_t*> rows;  // entry pointers (header + payload)
    // Mirror of arena bytes, readable without the partition lock for spill
    // victim selection.
    std::atomic<int64_t> bytes{0};
    bool spilled = false;
    SpillFile build_file;
    SpillFile probe_file;
    // Built at the finalize barrier; read-only once EnsureBuilt returns.
    std::unique_ptr<SerializedRowHashTable> table;
  };

  SharedHashJoinBuild(Schema build_schema, Schema probe_schema,
                      Options options, BuildFactory factory, int build_dop,
                      int expected_probe_fragments, int64_t memory_budget);
  ~SharedHashJoinBuild();
  VSTORE_DISALLOW_COPY_AND_ASSIGN(SharedHashJoinBuild);

  // Runs the parallel build on the first call; concurrent callers block
  // until it completes and all callers see its status. Build-side
  // ExecStats are merged into the first caller's context.
  Status EnsureBuilt(ExecContext* caller_ctx);

  const Schema& build_schema() const { return build_schema_; }
  const Schema& probe_schema() const { return probe_schema_; }
  const Options& options() const { return options_; }
  const RowFormat& build_format() const { return build_format_; }
  const BloomFilter* bloom_target() const { return options_.bloom_target; }

  int num_partitions() const { return options_.num_partitions; }
  int PartitionOf(uint64_t hash) const {
    return static_cast<int>(hash >> partition_shift_);
  }
  // Valid after EnsureBuilt(); partitions are read-only by then (the
  // drain additionally reads the spill files, single-threaded).
  Partition& partition(int p) { return *partitions_[static_cast<size_t>(p)]; }
  bool has_spilled_partitions() const { return spill_partitions_ > 0; }

  // Thread-safe append of rows sel[0..n) of `batch` to spilled partition
  // `p`'s probe file (build file when `build_side`), through the caller's
  // write buffer.
  Status SpillRows(int p, bool build_side, const Batch& batch,
                   const int32_t* sel, int64_t n, SpillBuffer* scratch,
                   ExecContext* fctx);

  // Each probe fragment calls this exactly once when its probe input is
  // exhausted; returns true for the last fragment, which then owns the
  // spill drain (all spill writers are finished by that point).
  bool FinishProbeFragment();

  // Profile attachment, called by fragment 0 only so the Exchange's
  // name-summing counter merge sees one contribution. Appends the merged
  // build-side operator profile as a child of `node` plus the parallel
  // build counters (per-fragment rows, lock/merge wait times).
  void AppendBuildProfile(OperatorProfile* node) const;

  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  int64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  // Non-null once RunBuild has started under a tracking query; fragment 0's
  // probe operator folds its peak into the profile, and the probe
  // fragments charge their spill buffers and drain reloads here.
  MemoryTracker* memory_tracker() const { return mem_.get(); }
  // Rows per spill record (the query's batch size); valid after
  // EnsureBuilt().
  int64_t record_rows() const { return record_rows_; }

 private:
  Status RunBuild(ExecContext* caller_ctx);
  Status BuildFragment(int fragment, ExecContext* fctx);
  // Builds partition tables and a thread-private Bloom filter for the
  // partitions striped to finalize thread `stripe`.
  Status FinalizeStripe(int stripe, int64_t total_rows);
  // Flushes the largest resident partition if still over budget (always
  // when `query_pressure`: the query-level tracker crossed its budget, so
  // shed the largest partition regardless of the local budget).
  Status MaybeSpill(ExecContext* fctx, bool query_pressure);
  // Writes a victim's resident rows to its new build file; the caller
  // holds spill_mu_ (which guards spill_buf_ and spill_batch_) and the
  // partition lock.
  Status SpillPartitionLocked(Partition* part, ExecContext* fctx);
  // Shared + global spill-byte accounting.
  void AddSpillBytes(int64_t bytes);
  // Consumes the budget-crossing edge / polls the query tracker.
  bool QueryMemoryPressure() const;

  Schema build_schema_;
  Schema probe_schema_;
  Options options_;
  BuildFactory factory_;
  int build_dop_;
  int64_t memory_budget_;
  RowFormat build_format_;
  int partition_shift_;

  // Shared build tracker under the query tracker (created in RunBuild when
  // the caller's context carries one); declared before partitions_ so the
  // partition arenas/tables release into a live tracker on destruction.
  std::unique_ptr<MemoryTracker> mem_;
  MemoryTracker* query_tracker_ = nullptr;
  mutable std::atomic<bool> pressure_{false};
  int pressure_listener_ = 0;
  std::atomic<int64_t> spill_bytes_{0};
  int64_t record_rows_ = kDefaultBatchSize;

  std::vector<std::unique_ptr<Partition>> partitions_;
  std::atomic<int64_t> total_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::mutex spill_mu_;  // serializes victim selection + flush
  SpillBuffer spill_buf_;               // guarded by spill_mu_
  std::unique_ptr<Batch> spill_batch_;  // guarded by spill_mu_

  // Build orchestration: first EnsureBuilt caller runs the build while the
  // mutex holds the others; the saved status is returned to all.
  std::mutex build_mu_;
  bool built_ = false;
  Status build_status_;

  // Per-fragment accounting, written under merge_mu_ as build fragments
  // finish; read-only after the build barrier.
  std::mutex merge_mu_;
  OperatorProfile build_profile_;
  int64_t profile_fragments_ = 0;
  std::vector<int64_t> fragment_build_rows_;
  int64_t lock_wait_ns_ = 0;
  int64_t bloom_merge_ns_ = 0;
  int64_t build_ns_ = 0;        // phase 1: parallel scan + insert
  int64_t table_build_ns_ = 0;  // phase 2: table + bloom finalize
  int64_t build_rows_ = 0;
  int64_t spill_partitions_ = 0;

  // Probe-side coordination (guarded by merge_mu_).
  int active_probe_fragments_;
};

// Probe-side operator of a parallel hash join: one per exchange fragment,
// all sharing one SharedHashJoinBuild. Open() triggers (or waits for) the
// shared build, then streams the fragment's probe chain against the shared
// read-only tables with the same JoinProber as HashJoinOperator, with
// spilled probe rows routed to the shared partition files and the spill
// drain executed by whichever fragment finishes probing last.
class HashJoinProbeOperator final : public BatchOperator {
 public:
  HashJoinProbeOperator(BatchOperatorPtr probe,
                        std::shared_ptr<SharedHashJoinBuild> shared,
                        int fragment, ExecContext* ctx);
  ~HashJoinProbeOperator() override;

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override;

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {probe_.get()};
  }
  void AppendProfileCounters(OperatorProfile* node) const override;
  void AppendProfileChildren(OperatorProfile* node) const override;

 private:
  Result<bool> PumpProbe();
  Result<bool> PumpDrain();
  // Counts the probe batch's active rows and writes those of spilled
  // partitions to the shared probe files.
  Status SpillProbeRows(const Batch& batch);

  BatchOperatorPtr probe_;
  std::shared_ptr<SharedHashJoinBuild> shared_;
  int fragment_;
  ExecContext* ctx_;

  Schema output_schema_;
  JoinProber prober_;

  std::unique_ptr<Batch> output_;
  int64_t out_rows_ = 0;

  enum class Phase { kInit, kProbe, kSpillDrain, kDone };
  Phase phase_ = Phase::kInit;
  bool finish_reported_ = false;

  // Spill scratch (one record each): write_buf_ and spill_sel_ route probe
  // rows to the shared files; the drain reads records through read_buf_
  // into build_batch_ and drain_batch_. Buffers charge the shared build's
  // tracker.
  SpillBuffer write_buf_;
  SpillBuffer read_buf_;
  std::vector<std::vector<int32_t>> spill_sel_;
  std::unique_ptr<Batch> build_batch_;
  std::unique_ptr<Batch> drain_batch_;
  std::vector<uint64_t> build_hashes_;

  // Spill-drain state (only used by the draining fragment); the drained
  // build rows live in local storage so shared partitions stay read-only.
  int drain_partition_ = 0;
  bool drain_loaded_ = false;
  std::unique_ptr<SerializedRowHashTable> drain_table_;
  Arena drain_build_arena_;

  int64_t probe_rows_ = 0;
  int64_t probe_rows_spilled_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_PARALLEL_HASH_JOIN_H_
