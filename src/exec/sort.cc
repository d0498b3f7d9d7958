#include "exec/sort.h"

#include <algorithm>

namespace vstore {

int CompareValues(const Value& a, const Value& b) {
  switch (PhysicalTypeOf(a.type())) {
    case PhysicalType::kString: {
      int c = a.str().compare(b.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case PhysicalType::kDouble: {
      double x = a.AsDouble(), y = b.AsDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case PhysicalType::kInt64: {
      int64_t x = a.int64(), y = b.int64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
  }
  return 0;
}

int CompareRowsOnKeys(const std::vector<Value>& a, const std::vector<Value>& b,
                      const std::vector<SortKey>& keys) {
  for (const SortKey& key : keys) {
    const Value& va = a[static_cast<size_t>(key.column)];
    const Value& vb = b[static_cast<size_t>(key.column)];
    const int cmp =
        va.is_null() || vb.is_null()
            ? static_cast<int>(vb.is_null()) - static_cast<int>(va.is_null())
            : CompareValues(va, vb);
    if (cmp != 0) return key.ascending ? cmp : -cmp;
  }
  return 0;
}

int64_t SortOperator::MaterializedBytes() const {
  return static_cast<int64_t>(
      rows_.size() * sizeof(std::vector<Value>) +
      rows_.size() *
          static_cast<size_t>(input_->output_schema().num_columns()) *
          sizeof(Value));
}

Status SortOperator::OpenImpl() {
  rows_.clear();
  rows_sorted_ = 0;
  emit_pos_ = 0;
  if (mem_ == nullptr && ctx_->memory_tracker != nullptr) {
    mem_ = std::make_unique<MemoryTracker>(name(), "operator",
                                           ctx_->memory_tracker);
  }
  reservation_.Reset(mem_.get());
  output_ = std::make_unique<Batch>(input_->output_schema(), ctx_->batch_size);
  VSTORE_RETURN_IF_ERROR(input_->Open());

  auto less = [this](const std::vector<Value>& a,
                     const std::vector<Value>& b) {
    return CompareRowsOnKeys(a, b, keys_) < 0;
  };

  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(Batch * batch, input_->Next());
    if (batch == nullptr) break;
    const uint8_t* active = batch->active();
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (!active[i]) continue;
      ++rows_sorted_;
      rows_.push_back(batch->GetActiveRow(i));
      // Top-N: keep a bounded working set — push-down heap semantics via
      // periodic shrink keeps memory at O(2 * limit).
      if (limit_ >= 0 &&
          static_cast<int64_t>(rows_.size()) >= 2 * std::max<int64_t>(limit_, 1)) {
        std::nth_element(rows_.begin(),
                         rows_.begin() + static_cast<long>(limit_),
                         rows_.end(), less);
        rows_.resize(static_cast<size_t>(limit_));
      }
    }
    reservation_.Set(MaterializedBytes());
  }

  RecordPeakMemory(MaterializedBytes());
  std::sort(rows_.begin(), rows_.end(), less);
  if (limit_ >= 0 && static_cast<int64_t>(rows_.size()) > limit_) {
    rows_.resize(static_cast<size_t>(limit_));
  }
  reservation_.Set(MaterializedBytes());
  return Status::OK();
}

void SortOperator::CloseImpl() {
  RecordMemoryTracker(mem_.get());
  rows_.clear();
  rows_.shrink_to_fit();
  reservation_.Clear();
  output_.reset();
  input_->Close();
}

Result<Batch*> SortOperator::NextImpl() {
  if (emit_pos_ >= rows_.size()) return static_cast<Batch*>(nullptr);
  output_->Reset();
  int64_t out_row = 0;
  while (emit_pos_ < rows_.size() && out_row < output_->capacity()) {
    const std::vector<Value>& row = rows_[emit_pos_++];
    for (int c = 0; c < output_->num_columns(); ++c) {
      output_->column(c).SetValue(out_row, row[static_cast<size_t>(c)],
                                  output_->arena());
    }
    ++out_row;
  }
  output_->set_num_rows(out_row);
  output_->ActivateAll();
  return output_.get();
}

}  // namespace vstore
