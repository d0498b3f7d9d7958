#ifndef VSTORE_EXEC_BATCH_H_
#define VSTORE_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/macros.h"
#include "types/schema.h"
#include "types/table_data.h"
#include "types/value.h"

namespace vstore {

class StringDictionary;

// Rows per batch. The paper sizes batches so that one batch with a handful
// of columns fits in L2 (~900 rows in SQL Server); we use the same number.
constexpr int64_t kDefaultBatchSize = 900;

// A column of values within a batch: a fixed-capacity typed array plus a
// byte-per-row validity mask. Strings are views into stable memory (segment
// dictionaries or the batch's arena).
//
// A string vector may also carry a code lane: codes()[i] is row i's code in
// dictionary(), the column store's shared primary dictionary the strings
// were decoded from. Only the column-store scan and Project set a lane;
// Batch::Reset clears it, so dictionary() == nullptr means "no lane".
// Every row below num_rows() of a laned vector holds its decoded code (the
// scan decodes a dense window whole and compacts a sparse one); codes of
// null rows are unspecified.
class ColumnVector {
 public:
  ColumnVector(DataType type, int64_t capacity);
  VSTORE_DISALLOW_COPY_AND_ASSIGN(ColumnVector);

  DataType type() const { return type_; }
  PhysicalType physical_type() const { return PhysicalTypeOf(type_); }
  int64_t capacity() const { return capacity_; }

  int64_t* mutable_ints() { return ints_.data(); }
  double* mutable_doubles() { return doubles_.data(); }
  std::string_view* mutable_strings() { return strings_.data(); }
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const std::string_view* strings() const { return strings_.data(); }

  // Code lane (see the class comment). The codes array is allocated on the
  // first mutable_codes() call, so vectors that never carry codes cost
  // nothing.
  uint64_t* mutable_codes() {
    if (codes_.empty()) codes_.resize(static_cast<size_t>(capacity_));
    return codes_.data();
  }
  const uint64_t* codes() const { return codes_.data(); }
  const StringDictionary* dictionary() const { return dictionary_; }
  void set_dictionary(const StringDictionary* dictionary) {
    dictionary_ = dictionary;
  }

  // validity()[i] == 1 when row i is non-null.
  uint8_t* mutable_validity() { return validity_.data(); }
  const uint8_t* validity() const { return validity_.data(); }
  void SetAllValid(int64_t n) {
    std::fill(validity_.begin(), validity_.begin() + n, uint8_t{1});
  }

  Value GetValue(int64_t i) const;
  void SetValue(int64_t i, const Value& v, Arena* arena);

  // Copies rows sel[0..m) of `src` into rows [0, m) of this vector:
  // validity, values and, when `src` has one, the code lane; the vector
  // takes src's dictionary(). `sel` must ascend, so `src` may be this
  // vector (sel[k] >= k makes the forward copy safe).
  void CopySelected(const ColumnVector& src, const int32_t* sel, int64_t m);

  // Changes the logical type (physical family must match); used when an
  // adapter reuses vectors across schemas.
  void ResetType(DataType type);

  // Resident bytes of the typed array, code lane and validity mask (string
  // payloads live in the batch arena, accounted separately).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(ints_.capacity() * sizeof(int64_t) +
                                doubles_.capacity() * sizeof(double) +
                                strings_.capacity() *
                                    sizeof(std::string_view) +
                                codes_.capacity() * sizeof(uint64_t) +
                                validity_.capacity());
  }

 private:
  DataType type_;
  int64_t capacity_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string_view> strings_;
  std::vector<uint64_t> codes_;
  const StringDictionary* dictionary_ = nullptr;
  std::vector<uint8_t> validity_;
};

// A batch of rows in columnar layout with a qualifying-rows mask: filters
// and joins mark rows inactive rather than compacting the batch (paper
// §5.1). The column-store scan emits a sparse window compacted, every row
// active.
class Batch {
 public:
  Batch(const Schema& schema, int64_t capacity);
  VSTORE_DISALLOW_COPY_AND_ASSIGN(Batch);

  const Schema& schema() const { return schema_; }
  int64_t capacity() const { return capacity_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  int64_t num_rows() const { return num_rows_; }
  void set_num_rows(int64_t n) {
    VSTORE_DCHECK(n <= capacity_);
    num_rows_ = n;
  }

  ColumnVector& column(int i) { return *columns_[static_cast<size_t>(i)]; }
  const ColumnVector& column(int i) const {
    return *columns_[static_cast<size_t>(i)];
  }

  // Qualifying-rows mask: active()[i] == 1 when row i is still logically
  // present. active_count() tracks the number of 1s.
  uint8_t* mutable_active() { return active_.data(); }
  const uint8_t* active() const { return active_.data(); }
  int64_t active_count() const { return active_count_; }
  void set_active_count(int64_t n) { active_count_ = n; }

  // Marks all num_rows_ rows active.
  void ActivateAll();
  // Recomputes active_count from the mask.
  void RecountActive();

  // Arena for strings computed during expression evaluation; reset by the
  // producing operator when it refills the batch.
  Arena* arena() { return &arena_; }

  // Clears row content and every column's code lane for reuse (does not
  // shrink allocations).
  void Reset();

  // Approximate resident bytes: column storage + active mask + the string
  // arena. Used by the exchange queue's memory reservation.
  int64_t MemoryBytes() const {
    int64_t total = static_cast<int64_t>(active_.capacity());
    for (const auto& col : columns_) total += col->MemoryBytes();
    total += static_cast<int64_t>(arena_.bytes_allocated());
    return total;
  }

  std::vector<Value> GetActiveRow(int64_t i) const;

 private:
  Schema schema_;
  int64_t capacity_;
  int64_t num_rows_ = 0;
  int64_t active_count_ = 0;
  std::vector<std::unique_ptr<ColumnVector>> columns_;
  std::vector<uint8_t> active_;
  Arena arena_;
};

// Appends the active rows of `batch` to `out`, whose columns must have the
// batch's physical types, one column at a time. Values are those
// out->AppendRow(batch.GetActiveRow(i)) appends: bools stored as 0/1,
// INT32 and DATE32 through an int32_t cast, strings copied (they outlive
// the batch), NULLs stored as 0 or an empty string and counted.
void MaterializeActiveRows(const Batch& batch, TableData* out);

}  // namespace vstore

#endif  // VSTORE_EXEC_BATCH_H_
