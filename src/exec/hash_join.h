#ifndef VSTORE_EXEC_HASH_JOIN_H_
#define VSTORE_EXEC_HASH_JOIN_H_

#include <atomic>
#include <memory>
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

// The batch probe loop of the single-threaded hash join and the parallel
// probe fragments, used both for probe input and for probe records read
// back in a spill drain. Start() hashes a probe batch's keys once; Run()
// walks each active row's bucket chain and writes output rows (the probe
// columns, then the build row's columns or nulls) into an accumulating
// output batch, pausing mid-row when that batch fills.
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
          build_format_->KeysEqualBatch(payload, *build_keys_, probe, row,
                                        *probe_keys_)) {
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

// Reads every record of a spilled build partition back into `batch`
// (through `scratch`) and calls fn(batch, key hashes) per record, the
// hashes computed by HashKeysBatch into `hashes`. Used by the Bloom refill
// and the drain's build reload.
template <typename Fn>
Status ForEachBuildRecord(SpillFile* file, Batch* batch, SpillBuffer* scratch,
                          const std::vector<int>& keys,
                          std::vector<uint64_t>* hashes, Fn fn) {
  VSTORE_RETURN_IF_ERROR(file->Rewind());
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(bool more, file->Read(batch, scratch));
    if (!more) return Status::OK();
    hashes->resize(static_cast<size_t>(batch->num_rows()));
    HashKeysBatch(*batch, keys, nullptr, hashes->data());
    fn(*batch, hashes->data());
  }
}

// Batch-mode hash join (paper §5.3): consumes the build side into a hash
// table of serialized rows, optionally publishing a Bloom filter for
// pushdown into the probe-side scan, then streams probe batches against it.
//
// Memory-bounded: build rows are hash-partitioned; when the in-memory size
// exceeds the context's operator_memory_budget (or the query budget is
// crossed), the largest resident partition spills to a SpillFile, and
// later build and probe rows of spilled partitions follow it there as
// batch-columnar records, one per (input batch, partition). After the
// probe input is exhausted the partition pairs are drained one at a time
// (grace hash join): a partition's build records are read back into a
// hash table, its probe records run through the same JoinProber loop as
// probe input, and the partition's table, rows and files are released
// before the next one loads, so at most one spilled partition is resident
// during the drain. One level of partitioning is applied; a spilled
// partition is assumed to fit in memory during its drain.
//
// Output schema: probe columns followed by build columns (probe columns
// only for semi/anti joins).
class HashJoinOperator final : public BatchOperator {
 public:
  struct Options {
    JoinType join_type = JoinType::kInner;
    std::vector<int> probe_keys;  // column indices in the probe schema
    std::vector<int> build_keys;  // column indices in the build schema
    // If non-null, the join Init()s and populates this externally-owned
    // Bloom filter over the build keys during its build phase. The planner
    // hands the same object to the probe-side scan (which only reads it
    // after Open(), i.e. after the build completed). Only valid for
    // inner/semi joins (outer/anti joins must see every probe row).
    BloomFilter* bloom_target = nullptr;
    int num_partitions = 16;  // power of two
  };

  HashJoinOperator(BatchOperatorPtr probe, BatchOperatorPtr build,
                   Options options, ExecContext* ctx);
  ~HashJoinOperator() override;

  // Non-null iff options.bloom_target was set; populated once Open() returns.
  const BloomFilter* bloom_filter() const { return bloom_; }

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override;

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {probe_.get(), build_.get()};
  }
  void AppendProfileCounters(OperatorProfile* node) const override;

 private:
  struct Partition {
    std::unique_ptr<Arena> arena;
    std::vector<uint8_t*> rows;  // entry pointers (header + payload)
    int64_t bytes = 0;
    bool spilled = false;
    SpillFile build_file;
    SpillFile probe_file;
    std::unique_ptr<SerializedRowHashTable> table;
  };

  int PartitionOf(uint64_t hash) const {
    return static_cast<int>(hash >> partition_shift_);
  }

  Status RunBuildPhase();
  Status SpillPartition(int p);
  Status BuildInMemoryTables();
  // Appends the rows spill_sel_ holds for each partition to that
  // partition's build or probe file (one record per partition), counts
  // them, and clears the selections.
  Status SpillSelected(const Batch& batch, bool probe_side);
  // Appends rows sel[0..n) of `batch` to `file`, with per-operator and
  // global spill-byte accounting.
  Status SpillRecord(SpillFile* file, const Batch& batch, const int32_t* sel,
                     int64_t n);
  // Counts the probe batch's active rows and writes those of spilled
  // partitions to their probe files.
  Status SpillProbeRows(const Batch& batch);
  // True when the build should shed a partition: local operator budget
  // exceeded, or the query-level tracker crossed its budget (pressure
  // listener edge or steady-state over_budget poll).
  bool UnderMemoryPressure(int64_t local_budget) const;

  // Probe-streaming phase; returns true when a full/final batch is ready.
  Result<bool> PumpProbe();
  // Spill-drain phase; returns true when a batch is ready, false at EOS.
  Result<bool> PumpDrain();

  BatchOperatorPtr probe_;
  BatchOperatorPtr build_;
  Options options_;
  ExecContext* ctx_;

  Schema output_schema_;
  RowFormat build_format_;

  BloomFilter* bloom_ = nullptr;  // not owned
  std::vector<Partition> partitions_;
  int partition_shift_ = 60;
  int64_t total_build_bytes_ = 0;

  // Per-operator tracker under the query tracker (null when tracking is
  // off); partition arenas and tables and the spill buffers charge here.
  // The pressure flag is set by the query tracker's budget-crossing
  // listener.
  std::unique_ptr<MemoryTracker> mem_;
  mutable std::atomic<bool> pressure_{false};
  int pressure_listener_ = 0;

  std::unique_ptr<Batch> output_;
  int64_t out_rows_ = 0;

  enum class Phase { kBuild, kProbe, kSpillDrain, kDone };
  Phase phase_ = Phase::kBuild;
  JoinProber prober_;
  std::vector<uint64_t> build_hashes_;

  // Spill scratch: one record each, shared by all partition files.
  // spill_sel_[p] lists the rows of the current input batch bound for
  // partition p's file. build_batch_ (made by the first partition spill)
  // gathers resident rows for a spill and receives build records read
  // back; drain_batch_ receives probe records in the drain.
  SpillBuffer write_buf_;
  SpillBuffer read_buf_;
  std::vector<std::vector<int32_t>> spill_sel_;
  std::unique_ptr<Batch> build_batch_;
  std::unique_ptr<Batch> drain_batch_;

  // Spill-drain state: the partition being drained and whether its build
  // side is loaded.
  int drain_partition_ = 0;
  bool drain_loaded_ = false;

  // Per-operator profile counters mirroring the query-global ExecStats.
  int64_t build_rows_ = 0;
  int64_t probe_rows_ = 0;
  int64_t build_rows_spilled_ = 0;
  int64_t probe_rows_spilled_ = 0;
  int64_t spill_partitions_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_HASH_JOIN_H_
