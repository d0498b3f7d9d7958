#ifndef VSTORE_TESTS_TEST_OPERATORS_H_
#define VSTORE_TESTS_TEST_OPERATORS_H_

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "exec/operator.h"
#include "test_util.h"

namespace vstore {
namespace testing_util {

// Batch operator emitting the rows of a TableData — a deterministic source
// for operator-level tests.
class TableSourceOperator final : public BatchOperator {
 public:
  TableSourceOperator(const TableData* data, ExecContext* ctx)
      : data_(data), ctx_(ctx) {}

  const Schema& output_schema() const override { return data_->schema(); }
  std::string name() const override { return "TableSource"; }

 protected:
  Status OpenImpl() override {
    pos_ = 0;
    output_ = std::make_unique<Batch>(data_->schema(), ctx_->batch_size);
    return Status::OK();
  }

  Result<Batch*> NextImpl() override {
    if (pos_ >= data_->num_rows()) return static_cast<Batch*>(nullptr);
    int64_t n = std::min<int64_t>(ctx_->batch_size, data_->num_rows() - pos_);
    FillBatch(*data_, pos_, n, output_.get());
    pos_ += n;
    return output_.get();
  }

 private:
  const TableData* data_;
  ExecContext* ctx_;
  std::unique_ptr<Batch> output_;
  int64_t pos_ = 0;
};

// Drains any batch operator into materialized rows.
inline std::vector<std::vector<Value>> DrainOperator(BatchOperator* op) {
  op->Open().CheckOK();
  std::vector<std::vector<Value>> rows;
  for (;;) {
    Batch* batch = op->Next().ValueOrDie();
    if (batch == nullptr) break;
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (batch->active()[i]) rows.push_back(batch->GetActiveRow(i));
    }
  }
  op->Close();
  return rows;
}

// Rows equal value for value, doubles by bit pattern (so NaN equals NaN
// and -0.0 differs from 0.0).
inline void ExpectBitIdentical(const std::vector<std::vector<Value>>& got,
                               const std::vector<std::vector<Value>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size());
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      ASSERT_EQ(a.type(), b.type()) << r << "," << c;
      ASSERT_EQ(a.is_null(), b.is_null()) << r << "," << c;
      if (a.is_null()) continue;
      if (a.type() == DataType::kDouble) {
        ASSERT_EQ(std::bit_cast<uint64_t>(a.dbl()),
                  std::bit_cast<uint64_t>(b.dbl()))
            << r << "," << c;
      } else {
        ASSERT_EQ(a, b) << r << "," << c;
      }
    }
  }
}

// Sorts materialized rows for order-insensitive comparison.
inline void SortRows(std::vector<std::vector<Value>>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size(); ++i) {
                std::string sa = a[i].is_null() ? "\1" : a[i].ToString();
                std::string sb = b[i].is_null() ? "\1" : b[i].ToString();
                if (sa != sb) return sa < sb;
              }
              return false;
            });
}

}  // namespace testing_util
}  // namespace vstore

#endif  // VSTORE_TESTS_TEST_OPERATORS_H_
