#ifndef VSTORE_TESTS_TEST_UTIL_H_
#define VSTORE_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "types/table_data.h"

namespace vstore {
namespace testing_util {

// Builds an int64 column from a literal list (no NULLs).
inline ColumnData IntColumn(const std::vector<int64_t>& values,
                            DataType type = DataType::kInt64) {
  ColumnData col(type);
  for (int64_t v : values) col.AppendInt64(v);
  return col;
}

inline ColumnData DoubleColumn(const std::vector<double>& values) {
  ColumnData col(DataType::kDouble);
  for (double v : values) col.AppendDouble(v);
  return col;
}

inline ColumnData StringColumn(const std::vector<std::string>& values) {
  ColumnData col(DataType::kString);
  for (const std::string& v : values) col.AppendString(v);
  return col;
}

// A synthetic three-column table: id (unique int), bucket (low cardinality
// int), name (low cardinality string), amount (double with 2 decimals).
inline TableData MakeTestTable(int64_t rows, uint64_t seed = 42) {
  Schema schema({{"id", DataType::kInt64, false},
                 {"bucket", DataType::kInt64, false},
                 {"name", DataType::kString, false},
                 {"amount", DataType::kDouble, false}});
  TableData data(schema);
  Random rng(seed);
  const char* names[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (int64_t i = 0; i < rows; ++i) {
    data.column(0).AppendInt64(i);
    data.column(1).AppendInt64(rng.Uniform(0, 9));
    data.column(2).AppendString(names[rng.Uniform(0, 4)]);
    data.column(3).AppendDouble(static_cast<double>(rng.Uniform(0, 99999)) /
                                100.0);
  }
  return data;
}

}  // namespace testing_util
}  // namespace vstore

#include "exec/batch.h"

namespace vstore {
namespace testing_util {

// Fills `batch` with rows [begin, begin+count) of `data` and activates them.
inline void FillBatch(const TableData& data, int64_t begin, int64_t count,
                      Batch* batch) {
  batch->Reset();
  for (int64_t i = 0; i < count; ++i) {
    for (int c = 0; c < data.num_columns(); ++c) {
      batch->column(c).SetValue(i, data.column(c).GetValue(begin + i),
                                batch->arena());
    }
  }
  batch->set_num_rows(count);
  batch->ActivateAll();
}

}  // namespace testing_util
}  // namespace vstore

#endif  // VSTORE_TESTS_TEST_UTIL_H_
