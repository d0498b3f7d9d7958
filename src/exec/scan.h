#ifndef VSTORE_EXEC_SCAN_H_
#define VSTORE_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "exec/bloom_filter.h"
#include "exec/operator.h"
#include "storage/column_store.h"
#include "types/compare_op.h"

namespace vstore {

// A sargable predicate pushed into the scan: `column OP value` with the
// column given as an index into the table schema. Used both for segment
// elimination (min/max metadata) and for vectorized row filtering during
// decode.
struct ScanPredicate {
  int column;
  CompareOp op;
  Value value;
};

// A bitmap (Bloom) filter pushed from a hash join build side onto one of
// the scan's columns (paper §5.2). The filter outlives the scan.
struct BloomFilterSpec {
  int column;
  const BloomFilter* filter;
};

// One piece of a table that a scan reads: row groups [group_begin,
// group_end) of one pinned table version, then that version's delta stores
// when `include_deltas` is set. A shard of a sharded table is a column
// store of its own, so a range never spans shards. The planner pins each
// version once per lowering and cuts every fragment's ranges from it, so
// the fragments of a parallel scan read one consistent cut. An empty range
// (no groups, no deltas) may leave `snapshot` null.
struct ScanRange {
  TableSnapshot snapshot;
  int64_t group_begin = 0;
  int64_t group_end = 0;
  bool include_deltas = false;
};

// Vectorized scan over a column store: iterates compressed row groups
// (skipping those eliminated by segment metadata), decodes only the needed
// columns batch by batch, masks deleted rows via the delete bitmap, applies
// pushed predicates and bitmap filters, then merges delta-store rows. A
// window more than 3/4 active comes out at full width with a mask; a
// sparser one comes out compact, holding only its surviving rows.
class ColumnStoreScanOperator final : public BatchOperator {
 public:
  struct Options {
    // Table column indices to output, in order. Empty = all columns.
    std::vector<int> projection;
    std::vector<ScanPredicate> predicates;
    std::vector<BloomFilterSpec> bloom_filters;
    // Bernoulli row sampling (paper: sampling support for statistics
    // creation): each row qualifies with this probability, decided by a
    // deterministic per-row hash so repeated scans see the same sample.
    double sample_fraction = 1.0;
    uint64_t sample_seed = 0x5eed;
    // What to read, in order. Empty: every row group and then the delta
    // stores of a snapshot the scan takes at Open. Otherwise the table is
    // used only for its schema (a sharded table's shards share one).
    std::vector<ScanRange> ranges;
    // Display label for profiles, usually the table name.
    std::string label;
  };

  ColumnStoreScanOperator(const ColumnStoreTable* table, Options options,
                          ExecContext* ctx);

  // The plan-time pruning of the sharded table this scan reads, reported
  // as shards_total / shards_pruned. The planner gives it to one scan per
  // table it lowers, so a parallel plan's merged profile counts it once.
  void ReportShardPruning(int64_t total, int64_t pruned) {
    shards_total_ = total;
    shards_pruned_ = pruned;
  }

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override {
    return options_.label.empty() ? "ColumnStoreScan"
                                  : "ColumnStoreScan(" + options_.label + ")";
  }

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  void AppendProfileCounters(OperatorProfile* node) const override;

 private:
  // Positions the scan at the start of ranges_[i].
  void StartRange(size_t i);
  // Advances to the next row group of the current range that survives
  // segment elimination. Returns false when its groups are exhausted.
  bool AdvanceGroup();
  // Decides how each early column of row group `rg` is tested (slot_mode_)
  // and maps its predicates to code ranges (slot_ranges_): once per group.
  void PlanGroup(const RowGroup& rg);
  // Fills output_ from the current group starting at offset_.
  Status FillFromGroup();
  // Fills output_ from delta stores. Returns rows produced.
  Result<int64_t> FillFromDeltas();
  // Applies `pred` against decoded vector `cv`, ANDing into the active mask.
  void ApplyPredicate(const ScanPredicate& pred, const ColumnVector& cv,
                      Batch* batch) const;
  // Applies a Bloom filter on early slot `slot` (segment `seg`, validity
  // and, when decoded, values in `cv`) to the active mask, after every
  // predicate: once per run on a kRuns slot, per row otherwise.
  void ApplyBloom(const BloomFilterSpec& spec, size_t slot,
                  const ColumnSegment& seg, const ColumnVector& cv,
                  Batch* batch);

  const ColumnStoreTable* table_;
  Options options_;
  ExecContext* ctx_;
  Schema output_schema_;

  // Column decode plan: all distinct table columns we must decode, and for
  // each, where it lands (output batch column or scratch slot).
  std::vector<int> decode_columns_;     // table column indices
  std::vector<int> decode_to_output_;   // >=0: output column; -1: scratch
  std::vector<int> pred_decode_slot_;   // per predicate: index into decode_columns_
  std::vector<int> bloom_decode_slot_;  // per bloom spec
  // Slots needed to evaluate predicates/blooms; the rest are decoded
  // lazily, only for surviving rows (lazy materialization).
  std::vector<bool> early_slot_;
  std::vector<bool> bloom_slot_;  // read by a Bloom filter: needs values

  // How an early slot's predicates and Bloom filters are decided in the
  // current row group: on decoded values (ApplyPredicate; bit-packed
  // columns without a code range, and bit-packed Bloom columns), on its
  // unpacked codes against slot_ranges_ (kernels::AndCodeRange; a
  // projected one is widened in phase 2 with the late columns), or once
  // per run (every RLE column: EvalPredicateOnRuns, and one Bloom probe a
  // run; a projected one is decoded or gathered in phase 2 like a late
  // column).
  enum class SlotMode : uint8_t { kDecoded, kCodes, kRuns };
  std::vector<SlotMode> slot_mode_;
  // Per kCodes slot: the ranges a row's code must pass, all of them. The
  // non-negated ones are intersected into one; each <> keeps its own.
  std::vector<std::vector<CodeRange>> slot_ranges_;

  // The ranges of this execution and the pinned version of the current
  // one: the scan reads it lock-free; concurrent DML and tuple-mover passes
  // install successor versions and never touch it.
  std::vector<ScanRange> ranges_;
  size_t range_ = 0;
  const TableVersion* snapshot_ = nullptr;
  std::unique_ptr<Batch> output_;
  std::vector<std::unique_ptr<ColumnVector>> scratch_;
  // A kRuns Bloom slot's window runs: their values (per Bloom slot, else
  // null) and window end offsets; and the Bloom probes' hashes.
  std::vector<std::unique_ptr<ColumnVector>> run_values_;
  std::vector<int64_t> run_ends_;
  std::vector<uint64_t> hashes_;
  // A sparse window's survivors: segment rows (for the gathers) and window
  // positions (for packing the early projected columns), both ascending.
  std::vector<int64_t> rows_;
  std::vector<int32_t> sel_;
  // Per-row 0/1 verdicts (compare kernels, runs, Bloom probes), ANDed into
  // the active mask (mutable: ApplyPredicate is const).
  mutable std::vector<uint8_t> verdict_scratch_;

  int64_t group_ = 0;       // current row group of the current range
  int64_t group_limit_ = 0;
  int64_t offset_ = 0;      // row offset within current group
  bool in_group_ = false;   // currently positioned inside a surviving group
  int64_t delta_index_ = 0; // current delta store
  bool deltas_done_ = false;
  std::vector<std::vector<Value>> delta_rows_;  // staging for current store
  int64_t delta_row_pos_ = 0;
  bool delta_loaded_ = false;

  // Per-operator profile counters mirroring the query-global ExecStats.
  int64_t rows_scanned_ = 0;
  int64_t delta_rows_scanned_ = 0;
  int64_t groups_scanned_ = 0;
  int64_t groups_eliminated_ = 0;
  int64_t bloom_rows_dropped_ = 0;
  int64_t shards_total_ = 0;  // 0: no pruning result to report
  int64_t shards_pruned_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_SCAN_H_
