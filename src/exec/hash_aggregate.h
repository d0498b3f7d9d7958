#ifndef VSTORE_EXEC_HASH_AGGREGATE_H_
#define VSTORE_EXEC_HASH_AGGREGATE_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/aggregate.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/spill.h"

namespace vstore {

// Aggregation phases for parallel plans (paper §5.4/§6: partial batch
// aggregation below an exchange, final aggregation above it):
//  - kComplete: raw rows in, finalized results out (single-threaded plans).
//  - kPartial:  raw rows in, partial rows out — group keys followed by a
//               (value, count) pair per aggregate; exact to merge.
//  - kFinal:    partial rows in, finalized results out.
enum class AggPhase { kComplete, kPartial, kFinal };

// Batch-mode hash aggregation (paper §5.4). Groups are kept in a
// GroupHashTable whose entries are serialized keys with fixed-size
// accumulator state appended. When the state exceeds the context's
// operator_memory_budget, the whole table is flushed as partial rows (the
// PartialSchema layout, written by the same typed writer as kPartial
// output) into hash-partitioned SpillFiles, as batch-columnar records of
// at most one batch per partition. At the end each partition's records
// are read back and merged as partial input batches, one partition at a
// time — merging partials is exact for every supported function (AVG
// carries sum+count).
//
// Each input batch is consumed in two steps: first every active row's
// group state is found, then one typed loop per aggregate folds the batch
// into those states, a run of same-group rows at a time with the
// accumulator in a register. Row order is kept per accumulator, so sums
// are the same as a row-at-a-time fold. Groups are found one of two ways:
//  - on codes: when every key column carries a code lane (ColumnVector)
//    and the product of the key code domains is at most kMaxCodeSlots,
//    the packed codes index a dense array of state pointers. The array is
//    only a cache in front of the hash table: a miss resolves through the
//    table with the same hash the hash path uses, so coded and uncoded
//    batches with equal keys land in one group. Zero keys is this path
//    with a domain of one (scalar aggregation).
//  - by hash: a vectorized key hash per batch, then a probe per row that
//    compares keys through the batch's resolved key arrays (BatchKeys).
//
// GROUP BY follows SQL semantics: null keys compare equal (one null group).
// Double keys compare by bit pattern (BatchKeys): NaN rows form one group,
// and -0.0 and 0.0 are two.
// Without GROUP BY (no keys) the operator emits exactly one row even for
// empty input (COUNT = 0, other aggregates null), except in kPartial.
class HashAggregateOperator final : public BatchOperator {
 public:
  struct Options {
    std::vector<int> group_by;  // input column indices
    std::vector<AggSpec> aggregates;
    AggPhase phase = AggPhase::kComplete;
    int num_partitions = 16;  // spill fanout, power of two
  };

  // The partial-row schema produced by a kPartial instance over `input`
  // with the given groups/aggregates, and consumed by kFinal: group
  // columns, then per aggregate a typed $value column and an int64 $count.
  static Schema PartialSchema(const Schema& input,
                              const std::vector<int>& group_by,
                              const std::vector<AggSpec>& aggregates);

  // For kFinal, `input`'s schema must be the PartialSchema of the partial
  // stage; options.group_by must be {0..k-1} and each aggregate's column
  // must point at its $value column.
  HashAggregateOperator(BatchOperatorPtr input, Options options,
                        ExecContext* ctx);
  ~HashAggregateOperator() override;

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override;

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {input_.get()};
  }
  void AppendProfileCounters(OperatorProfile* node) const override;

 private:
  // Per-aggregate accumulator: 24 bytes — [acc:8][aux:8][count:8].
  static constexpr size_t kStateSlot = 24;

  // A group's payload in the table: its key row, then the states.
  size_t payload_size() const {
    return key_format_->row_size() + kStateSlot * options_.aggregates.size();
  }
  uint8_t* payload_state(uint8_t* payload) const {
    return payload + key_format_->row_size();
  }

  // Largest product of key code domains grouped on codes: 4096 slots of a
  // state pointer and a run id (48 KiB), charged to the operator's tracker.
  static constexpr int64_t kMaxCodeSlots = 4096;

  Status ConsumeInput();
  // Folds the active rows of `batch` into their groups. Key k is batch
  // column key_cols[k]; with `partial_input` the aggregates read the
  // (value, count) pairs of the partial layout instead of raw columns.
  void ConsumeBatch(const Batch& batch, const std::vector<int>& key_cols,
                    bool partial_input);
  // Fills order_ with the active rows of `batch`, grouped into runs_ of
  // rows that share a group state (creating groups as needed). Rows of one
  // group keep their input order.
  void ResolveGroups(const Batch& batch, const std::vector<int>& key_cols);
  // True when `batch` can be grouped on codes; (re)builds the code cache
  // when its dictionaries or domains differ from the cached ones.
  bool PrepareCodeCache(const Batch& batch, const std::vector<int>& key_cols);
  // The state of row `i`'s group in the batch batch_keys_ was reset to,
  // found or inserted under `hash` (the row's key hash as HashKeysBatch
  // computes it).
  uint8_t* GroupState(int64_t i, uint64_t hash);
  void InitState(uint8_t* state) const;
  // Folds the resolved rows into every aggregate, one loop per aggregate.
  void FoldBatch(const Batch& batch, bool partial_input);
  // One aggregate over `values`; weight(row) is the number of input values
  // the row carries (0 = skip it, e.g. null).
  template <typename Weight>
  void FoldAggregate(size_t agg, const ColumnVector* values, Weight weight);
  // Per run, copies aggregate `agg`'s accumulator (type T) and count out of
  // the group state, applies fold(row, count, &acc) to each weighted row,
  // and writes both back.
  template <typename T, typename Weight, typename Fold>
  void FoldRuns(size_t agg, Weight weight, Fold fold);
  Status FlushToPartitions();
  Status LoadPartition(int p);
  Status EmitEntries();
  // Resets the state arena + group table, re-attaching the tracker, and
  // empties the code cache that points into them.
  void ResetAggState(int64_t expected_rows);
  // Local operator budget exceeded, or query-level budget pressure.
  bool UnderMemoryPressure(int64_t local_budget) const;
  // Writes group `entry` (a table entry) as partial row `row` of `out`:
  // the keys, then per aggregate its typed $value (null when no value was
  // folded, and always for COUNT) and $count. Strings are copied into
  // `string_arena`, or view the state arena when it is null.
  void WritePartialRow(uint8_t* entry, Batch* out, int64_t row,
                       Arena* string_arena) const;

  BatchOperatorPtr input_;
  Options options_;
  ExecContext* ctx_;

  Schema output_schema_;
  Schema key_schema_;
  Schema partial_schema_;
  std::unique_ptr<RowFormat> key_format_;
  std::vector<int> key_indices_;      // 0..k-1 within key rows
  std::vector<uint8_t> state_kinds_;  // precomputed per-aggregate StateKind

  std::unique_ptr<Arena> arena_;
  std::unique_ptr<GroupHashTable> table_;

  // Per-operator tracker under the query tracker (null when tracking is
  // off); the state arena and group table charge here. The pressure flag
  // is set by the query tracker's budget-crossing listener and consumed at
  // the existing flush decision point.
  std::unique_ptr<MemoryTracker> mem_;
  mutable std::atomic<bool> pressure_{false};
  int pressure_listener_ = 0;

  // Code cache: code_slots_[packed key codes] is that group's state, or
  // null until first seen. code_keys_ holds the (dictionary, domain) of
  // each key the layout was built for; lane_keys_ is per-batch scratch.
  std::vector<uint8_t*> code_slots_;
  std::vector<std::pair<const StringDictionary*, int64_t>> code_keys_;
  std::vector<std::pair<const StringDictionary*, int64_t>> lane_keys_;
  MemoryReservation code_slots_reservation_;

  // Per-batch scratch for ResolveGroups and the aggregate loops: order_
  // lists the active rows, and runs_ splits it into consecutive rows that
  // share a group state (run r ends at order_ index runs_[r].end).
  struct GroupRun {
    uint8_t* state;
    int32_t end;
    uint64_t slot;  // code cache slot (code path only)
  };
  std::vector<int32_t> order_;
  std::vector<GroupRun> runs_;
  std::vector<int32_t> sorted_;     // counting-sort output (code path)
  std::vector<uint64_t> hashes_;    // key hash per batch row (hash path)
  BatchKeys batch_keys_;            // the batch's key columns
  std::vector<uint64_t> slot_ids_;  // code slot, then run, per order_ row
  std::vector<int32_t> slot_runs_;  // per code slot: run in this batch or -1

  // Spill state. spill_batch_ holds partial rows on their way to a
  // partition file and read back from one; the buffers hold one record
  // each and charge the operator's tracker.
  bool spilled_ = false;
  std::vector<SpillFile> partition_files_;
  std::unique_ptr<Batch> spill_batch_;
  std::vector<std::vector<int32_t>> spill_sel_;  // rows per partition
  SpillBuffer write_buf_;
  SpillBuffer read_buf_;

  // Emission state.
  std::unique_ptr<Batch> output_;
  size_t emit_pos_ = 0;
  int drain_partition_ = 0;
  bool done_ = false;

  // Per-operator profile counters mirroring the query-global ExecStats.
  int64_t rows_aggregated_ = 0;
  int64_t rows_code_grouped_ = 0;  // rows whose group was found on codes
  int64_t groups_ = 0;
  int64_t spill_flushes_ = 0;
  int64_t rows_spilled_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_HASH_AGGREGATE_H_
