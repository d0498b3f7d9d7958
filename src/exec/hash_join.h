#ifndef VSTORE_EXEC_HASH_JOIN_H_
#define VSTORE_EXEC_HASH_JOIN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/bloom_filter.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/spill.h"

namespace vstore {

enum class JoinType {
  kInner,
  kLeftOuter,  // all probe rows; unmatched ones null-extended
  kLeftSemi,   // probe rows with at least one match (probe columns only)
  kLeftAnti,   // probe rows with no match (probe columns only)
};

const char* JoinTypeName(JoinType type);

// True when the join's output carries build-side columns (inner/outer).
inline bool JoinEmitsBuildColumns(JoinType type) {
  return type == JoinType::kInner || type == JoinType::kLeftOuter;
}

// Output schema of a batch hash join: probe columns, then (for inner/outer
// joins) the build columns marked nullable for null-extension.
Schema HashJoinOutputSchema(const Schema& probe, const Schema& build,
                            JoinType type);

// The batch probe loop of every hash join probe fragment, used both for
// probe input and for probe records read back in a spill drain. Start()
// hashes a probe batch's keys and resolves its key columns (BatchKeys)
// once; Run() walks each active row's bucket chain and writes output rows
// (the probe columns, then the build row's columns or nulls) into an
// accumulating output batch, pausing mid-row when that batch fills.
class JoinProber {
 public:
  JoinProber(JoinType type, const RowFormat* build_format,
             const std::vector<int>* build_keys,
             const std::vector<int>* probe_keys)
      : type_(type),
        build_format_(build_format),
        build_keys_(build_keys),
        probe_keys_(probe_keys),
        emit_build_columns_(JoinEmitsBuildColumns(type)) {}

  // Starts probing `batch`, which must stay valid until Run() returns
  // false or Clear() is called.
  void Start(const Batch* batch);
  void Clear() { batch_ = nullptr; }
  bool has_batch() const { return batch_ != nullptr; }
  // Key hashes of the started batch (valid for its active rows).
  const uint64_t* hashes() const { return hashes_.data(); }

  // Probes the rest of the started batch, writing output row *out_rows
  // onwards. `table_of(hash)` returns the table a row with that key hash
  // probes, or null to skip the row (its partition is on disk). Returns
  // true when `output` is full (call again to resume) and false once the
  // batch is done.
  template <typename TableOf>
  bool Run(TableOf table_of, Batch* output, int64_t* out_rows);

 private:
  void Emit(Batch* output, const Batch& probe, int64_t row,
            const uint8_t* build_row, int64_t out_row) const;

  JoinType type_;
  const RowFormat* build_format_;
  const std::vector<int>* build_keys_;
  const std::vector<int>* probe_keys_;
  bool emit_build_columns_;

  const Batch* batch_ = nullptr;
  BatchKeys keys_;  // the started batch's probe keys
  std::vector<uint64_t> hashes_;
  int64_t row_ = 0;
  const uint8_t* chain_ = nullptr;  // resume point within a bucket chain
  bool matched_ = false;            // for outer/semi/anti bookkeeping
};

template <typename TableOf>
bool JoinProber::Run(TableOf table_of, Batch* output, int64_t* out_rows) {
  const Batch& probe = *batch_;
  const uint8_t* active = probe.active();
  const uint64_t* hashes = hashes_.data();
  const int64_t n = probe.num_rows();
  const int64_t capacity = output->capacity();
  // The resume state lives in locals while the loop runs (output stores
  // cannot clobber them) and goes back to the members when it pauses.
  int64_t row = row_;
  const uint8_t* chain = chain_;
  bool matched = matched_;
  int64_t out = *out_rows;
  auto pause = [&] {
    row_ = row;
    chain_ = chain;
    matched_ = matched;
    *out_rows = out;
    return true;
  };
  for (; row < n; ++row, chain = nullptr, matched = false) {
    if (!active[row]) continue;
    const uint64_t hash = hashes[row];
    const SerializedRowHashTable* table = table_of(hash);
    if (table == nullptr) continue;
    if (chain == nullptr && !matched) chain = table->ChainHead(hash);
    while (chain != nullptr) {
      if (out == capacity) return pause();
      const uint8_t* entry = chain;
      const uint8_t* payload = SerializedRowHashTable::EntryPayload(entry);
      if (SerializedRowHashTable::EntryHash(entry) == hash &&
          keys_.JoinKeysEqual(payload, row)) {
        matched = true;
        if (!emit_build_columns_) break;  // semi/anti need only existence
        Emit(output, probe, row, payload, out++);
      }
      chain = SerializedRowHashTable::ChainNext(entry);
    }
    chain = nullptr;

    // Chain exhausted: row epilogue.
    const bool emit_probe_only = (type_ == JoinType::kLeftSemi && matched) ||
                                 (type_ == JoinType::kLeftAnti && !matched);
    const bool emit_null_extended = type_ == JoinType::kLeftOuter && !matched;
    if (emit_probe_only || emit_null_extended) {
      if (out == capacity) return pause();
      Emit(output, probe, row, nullptr, out++);
    }
  }
  *out_rows = out;
  batch_ = nullptr;
  return false;
}

class SharedHashJoinBuild;

// Batch-mode hash join (paper §5.3). A join is one SharedHashJoinBuild plus
// one HashJoinOperator per probe fragment: a serial join is the pair with
// one build fragment and one probe fragment, a parallel join has one probe
// operator per exchange fragment, all probing the same build.
//
// Open() runs the shared build (or waits for it; the build runs inline on
// the first fragment to arrive), then opens the probe input, so a pushed
// Bloom filter is populated before the probe-side scan reads it. Probe
// batches run through JoinProber against the build's read-only partition
// tables. Probe rows of spilled partitions go to those partitions' probe
// files as batch-columnar records, one per (batch, partition). The last
// fragment to exhaust its probe input drains the spilled partition pairs
// (grace hash join): a partition's build records are read back into a
// hash table, its probe records run through the same JoinProber, and the
// partition's table, rows and files are freed before the next one loads,
// so at most one spilled partition is resident during the drain. One
// level of partitioning is applied; a spilled partition is assumed to fit
// in memory during its drain. The last fragment to close frees whatever
// the build still holds.
//
// A join whose build serves one probe fragment is named HashJoin(<type>)
// and profiles its build input as its second child; parallel fragments
// are HashJoinProbe(<type>), and fragment 0 carries the build's counters.
//
// Output schema: probe columns followed by build columns (probe columns
// only for semi/anti joins).
class HashJoinOperator final : public BatchOperator {
 public:
  struct Options {
    JoinType join_type = JoinType::kInner;
    std::vector<int> probe_keys;  // column indices in the probe schema
    std::vector<int> build_keys;  // column indices in the build schema
    // If non-null, the build Init()s and populates this externally-owned
    // Bloom filter over the build keys. The planner hands the same object
    // to the probe-side scan (which only reads it after the join's Open(),
    // i.e. after the build completed). Only valid for inner/semi joins
    // (outer/anti joins must see every probe row).
    BloomFilter* bloom_target = nullptr;
    int num_partitions = 16;  // power of two
  };

  // A serial join over an existing build operator: a degree-1 build that
  // drains `build` inline when this operator opens.
  HashJoinOperator(BatchOperatorPtr probe, BatchOperatorPtr build,
                   Options options, ExecContext* ctx);
  // Probe fragment `fragment` of the join `shared` builds.
  HashJoinOperator(BatchOperatorPtr probe,
                   std::shared_ptr<SharedHashJoinBuild> shared, int fragment,
                   ExecContext* ctx);
  ~HashJoinOperator() override;

  // Non-null iff options.bloom_target was set; populated once Open() returns.
  const BloomFilter* bloom_filter() const;

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
  // Probe-streaming phase; returns true when a full/final batch is ready.
  Result<bool> PumpProbe();
  // Spill-drain phase; returns true when a batch is ready, false at EOS.
  Result<bool> PumpSpillDrain();
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

  // Spill-drain state (only used by the draining fragment): the partition
  // being drained and whether its build side is loaded.
  int drain_partition_ = 0;
  bool drain_loaded_ = false;

  int64_t probe_rows_ = 0;
  int64_t probe_rows_spilled_ = 0;
};

// Build side of a hash join, shared by its probe fragments (paper §5.3:
// multiple threads build one shared in-memory hash table, then all probe
// threads share the read-only result).
//
// Lifecycle: the physical planner creates one SharedHashJoinBuild per join
// and hands it (via shared_ptr) to every probe fragment's HashJoinOperator.
// The first fragment to Open() runs the build inside EnsureBuilt():
// `build_dop` build fragments each lower one operator tree through
// `factory` (disjoint row-group stripes when the build side is a plain scan
// chain) and insert its rows into hash-partitioned shared state. At degree
// 1 the one build fragment runs inline on the calling thread; otherwise
// each runs on its own thread and joining them forms the barrier. Then the
// per-partition chained tables and the pushed-down Bloom filter are built,
// striped across the same degree (above degree 1 each stripe fills a
// private filter and the results are OR-merged). Fragments that call EnsureBuilt() while the
// build is running block until it finishes; afterwards every fragment
// probes the same tables with no synchronization.
//
// Inserts go a batch at a time: a build fragment hashes the batch and
// splits its rows into per-partition selections, then per partition takes
// the partition lock once, appends the rows (or writes them as one spill
// record when the partition is on disk), adds the growth to the shared
// byte counters once, and checks the budget.
//
// Spilling: when the resident build exceeds the operator budget (or the
// query tracker crosses its budget), the inserting fragment flushes the
// largest resident partition to a SpillFile (spill_mu_ serializes victim
// selection so exactly one flush runs at a time). Later build and probe
// rows of spilled partitions follow it there, appended under the partition
// lock through each fragment's own write buffer.
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
    // Built at the finalize barrier; read-only once EnsureBuilt returns
    // (for a spilled partition, the drain loads it).
    std::unique_ptr<SerializedRowHashTable> table;
  };

  SharedHashJoinBuild(Schema build_schema, Options options,
                      BuildFactory factory, int build_dop,
                      int probe_fragments);
  ~SharedHashJoinBuild();
  VSTORE_DISALLOW_COPY_AND_ASSIGN(SharedHashJoinBuild);

  // Runs the build on the first call; concurrent callers block until it
  // completes and all callers see its status. Build-side ExecStats are
  // merged into the first caller's context.
  Status EnsureBuilt(ExecContext* caller_ctx);

  const Schema& build_schema() const { return build_schema_; }
  const Options& options() const { return options_; }
  const RowFormat& build_format() const { return build_format_; }
  const BloomFilter* bloom_target() const { return options_.bloom_target; }
  int probe_fragments() const { return probe_fragments_; }

  int num_partitions() const { return options_.num_partitions; }
  int PartitionOf(uint64_t hash) const {
    return static_cast<int>(hash >> partition_shift_);
  }
  // Valid after EnsureBuilt() until the last probe fragment closes;
  // partitions are read-only while fragments probe (the drain, which runs
  // after every fragment finished probing, loads and frees them).
  Partition& partition(int p) { return *partitions_[static_cast<size_t>(p)]; }
  bool has_spilled_partitions() const { return spill_partitions_ > 0; }

  // Thread-safe append of rows sel[0..n) of `batch` to spilled partition
  // `p`'s probe file, through the caller's write buffer.
  Status AppendProbeRecord(int p, const Batch& batch, const int32_t* sel,
                           int64_t n, SpillBuffer* scratch,
                           ExecContext* fctx);

  // Each probe fragment calls this exactly once when its probe input is
  // exhausted; returns true for the last fragment, which then owns the
  // spill drain (all spill writers are finished by that point).
  bool FinishProbeFragment();
  // Each probe fragment that opened calls this once when it closes. The
  // last one frees the partitions (arenas, tables and spill files) and
  // gets true back.
  bool CloseProbeFragment();

  // Profile attachment, called by fragment 0 only so the exchange's
  // name-summing counter merge sees one contribution. Appends the build
  // counters and the build-side operator profile as a child of `node`.
  void AppendBuildProfile(OperatorProfile* node) const;

  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  int64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  // Non-null once RunBuild has started under a tracking query; the probe
  // operators fold its peak into the profile and charge their spill
  // buffers and drain reloads here.
  MemoryTracker* memory_tracker() const { return mem_.get(); }
  // Rows per spill record (the query's batch size); valid after
  // EnsureBuilt().
  int64_t record_rows() const { return record_rows_; }

 private:
  // One build fragment's scratch: key hashes and per-partition row
  // selections of the current batch, plus its own spill write buffer.
  struct FragmentScratch {
    explicit FragmentScratch(MemoryTracker* tracker) : write_buf(tracker) {}
    std::vector<uint64_t> hashes;
    std::vector<const uint8_t*> key_validity;
    std::vector<std::vector<int32_t>> sel;
    SpillBuffer write_buf;
    int64_t rows = 0;
    int64_t rows_spilled = 0;
    int64_t lock_wait_ns = 0;
  };

  Status RunBuild(ExecContext* caller_ctx);
  Status BuildFragment(int fragment, ExecContext* fctx);
  // The build loop: inserts the batch's rows with non-null keys.
  Status InsertBatch(const Batch& batch, FragmentScratch* scratch,
                     ExecContext* fctx);
  // Builds partition tables and fills `bloom` (null when no filter is
  // pushed) for the partitions striped to finalize thread `stripe`.
  Status FinalizeStripe(int stripe, BloomFilter* bloom);
  // Flushes the largest resident partition if still over budget (always
  // when `query_pressure`: the query-level tracker crossed its budget, so
  // shed the largest partition regardless of the local budget).
  Status MaybeSpill(ExecContext* fctx, bool query_pressure);
  // Writes a victim's resident rows to its new build file; the caller
  // holds spill_mu_ (which guards spill_buf_ and spill_batch_) and the
  // partition lock.
  Status SpillPartitionLocked(Partition* part, ExecContext* fctx);
  // Appends one record to `file` (whose partition lock the caller holds)
  // with shared and global spill-byte accounting.
  Status AppendRecordLocked(SpillFile* file, const Batch& batch,
                            const int32_t* sel, int64_t n,
                            SpillBuffer* scratch);
  // Consumes the budget-crossing edge / polls the query tracker.
  bool QueryMemoryPressure() const;

  Schema build_schema_;
  Options options_;
  BuildFactory factory_;
  int build_dop_;
  int probe_fragments_;
  RowFormat build_format_;
  int partition_shift_;
  int64_t memory_budget_ = 0;  // the caller's operator_memory_budget

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
  int64_t build_ns_ = 0;        // phase 1: scan + insert
  int64_t table_build_ns_ = 0;  // phase 2: table + bloom finalize
  int64_t build_rows_ = 0;
  int64_t build_rows_spilled_ = 0;
  int64_t spill_partitions_ = 0;

  // Probe-side coordination (guarded by merge_mu_).
  int active_probe_fragments_;
  int open_probe_fragments_;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_HASH_JOIN_H_
