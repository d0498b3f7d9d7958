#ifndef VSTORE_EXEC_SORT_H_
#define VSTORE_EXEC_SORT_H_

#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/operator.h"

namespace vstore {

struct SortKey {
  int column;
  bool ascending = true;
};

// Materializing sort. The paper keeps sorting in row mode (batch plans
// switch to row mode for ORDER BY); this operator is the batch-boundary
// equivalent: it materializes its input as rows, sorts, and re-emits
// batches. With `limit` >= 0 it behaves as Top-N (partial sort).
class SortOperator final : public BatchOperator {
 public:
  SortOperator(BatchOperatorPtr input, std::vector<SortKey> keys,
               int64_t limit, ExecContext* ctx)
      : input_(std::move(input)), keys_(std::move(keys)), limit_(limit),
        ctx_(ctx) {}

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override {
    return limit_ >= 0 ? "TopN" : "Sort";
  }

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {input_.get()};
  }
  void AppendProfileCounters(OperatorProfile* node) const override {
    node->counters.push_back({"rows_sorted", rows_sorted_});
  }

 private:
  // Estimated bytes held by the materialized rows (headers + Value slots;
  // string payloads are not itemized).
  int64_t MaterializedBytes() const;

  BatchOperatorPtr input_;
  std::vector<SortKey> keys_;
  int64_t limit_;
  ExecContext* ctx_;

  // Per-operator tracker (null when tracking is off); declared before the
  // reservation so the reservation releases into a live tracker.
  std::unique_ptr<MemoryTracker> mem_;
  MemoryReservation reservation_;

  std::vector<std::vector<Value>> rows_;
  size_t emit_pos_ = 0;
  std::unique_ptr<Batch> output_;
  int64_t rows_sorted_ = 0;
};

// Three-way comparison of two non-null values of one physical type family,
// each in its own domain (int64 values as int64, so values above 2^53 that
// round to the same double still order).
int CompareValues(const Value& a, const Value& b);

// Compares two rows on the given sort keys; nulls sort first.
int CompareRowsOnKeys(const std::vector<Value>& a, const std::vector<Value>& b,
                      const std::vector<SortKey>& keys);

}  // namespace vstore

#endif  // VSTORE_EXEC_SORT_H_
