#include "exec/batch.h"

#include <algorithm>

namespace vstore {

ColumnVector::ColumnVector(DataType type, int64_t capacity)
    : type_(type), capacity_(capacity) {
  switch (physical_type()) {
    case PhysicalType::kInt64:
      ints_.resize(static_cast<size_t>(capacity));
      break;
    case PhysicalType::kDouble:
      doubles_.resize(static_cast<size_t>(capacity));
      break;
    case PhysicalType::kString:
      strings_.resize(static_cast<size_t>(capacity));
      break;
  }
  validity_.assign(static_cast<size_t>(capacity), 1);
}

Value ColumnVector::GetValue(int64_t i) const {
  if (!validity_[static_cast<size_t>(i)]) return Value::Null(type_);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(ints_[static_cast<size_t>(i)] != 0);
    case DataType::kInt32:
      return Value::Int32(static_cast<int32_t>(ints_[static_cast<size_t>(i)]));
    case DataType::kInt64:
      return Value::Int64(ints_[static_cast<size_t>(i)]);
    case DataType::kDate32:
      return Value::Date32(static_cast<int32_t>(ints_[static_cast<size_t>(i)]));
    case DataType::kDouble:
      return Value::Double(doubles_[static_cast<size_t>(i)]);
    case DataType::kString:
      return Value::String(std::string(strings_[static_cast<size_t>(i)]));
  }
  return Value::Null(type_);
}

void ColumnVector::SetValue(int64_t i, const Value& v, Arena* arena) {
  if (v.is_null()) {
    validity_[static_cast<size_t>(i)] = 0;
    return;
  }
  validity_[static_cast<size_t>(i)] = 1;
  switch (physical_type()) {
    case PhysicalType::kInt64:
      ints_[static_cast<size_t>(i)] = v.int64();
      break;
    case PhysicalType::kDouble:
      doubles_[static_cast<size_t>(i)] = v.dbl();
      break;
    case PhysicalType::kString:
      strings_[static_cast<size_t>(i)] = arena->CopyString(v.str());
      break;
  }
}

void ColumnVector::CopySelected(const ColumnVector& src, const int32_t* sel,
                                int64_t m) {
  VSTORE_DCHECK(src.physical_type() == physical_type());
  auto copy = [&](auto* out, const auto* in) {
    for (int64_t k = 0; k < m; ++k) out[k] = in[sel[k]];
  };
  copy(mutable_validity(), src.validity());
  switch (physical_type()) {
    case PhysicalType::kInt64:
      copy(mutable_ints(), src.ints());
      break;
    case PhysicalType::kDouble:
      copy(mutable_doubles(), src.doubles());
      break;
    case PhysicalType::kString:
      copy(mutable_strings(), src.strings());
      if (src.dictionary() != nullptr) copy(mutable_codes(), src.codes());
      break;
  }
  dictionary_ = src.dictionary();
}

void ColumnVector::ResetType(DataType type) {
  VSTORE_CHECK(PhysicalTypeOf(type) == physical_type());
  type_ = type;
}

Batch::Batch(const Schema& schema, int64_t capacity)
    : schema_(schema), capacity_(capacity) {
  columns_.reserve(static_cast<size_t>(schema.num_columns()));
  for (const Field& f : schema.fields()) {
    columns_.push_back(std::make_unique<ColumnVector>(f.type, capacity));
  }
  active_.assign(static_cast<size_t>(capacity), 0);
}

void Batch::ActivateAll() {
  std::fill(active_.begin(), active_.begin() + num_rows_, uint8_t{1});
  active_count_ = num_rows_;
}

void Batch::RecountActive() {
  int64_t count = 0;
  for (int64_t i = 0; i < num_rows_; ++i) count += active_[static_cast<size_t>(i)];
  active_count_ = count;
}

void Batch::Reset() {
  num_rows_ = 0;
  active_count_ = 0;
  arena_.Reset();
  for (auto& col : columns_) col->set_dictionary(nullptr);
}

std::vector<Value> Batch::GetActiveRow(int64_t i) const {
  std::vector<Value> row;
  row.reserve(columns_.size());
  for (const auto& col : columns_) row.push_back(col->GetValue(i));
  return row;
}

void MaterializeActiveRows(const Batch& batch, TableData* out) {
  VSTORE_DCHECK(out->num_columns() == batch.num_columns());
  const int64_t n = batch.num_rows();
  const uint8_t* active = batch.active();
  for (int c = 0; c < batch.num_columns(); ++c) {
    const ColumnVector& src = batch.column(c);
    ColumnData& dst = out->column(c);
    VSTORE_DCHECK(PhysicalTypeOf(dst.type()) == src.physical_type());
    const uint8_t* valid = src.validity();
    // One pass over the column: append(i) for each active non-null row.
    auto each = [&](auto append) {
      for (int64_t i = 0; i < n; ++i) {
        if (!active[i]) continue;
        if (valid[i]) {
          append(i);
        } else {
          dst.AppendNull();
        }
      }
    };
    const int64_t* ints = src.ints();
    switch (src.type()) {
      case DataType::kBool:
        each([&](int64_t i) { dst.AppendInt64(ints[i] != 0 ? 1 : 0); });
        break;
      case DataType::kInt32:
      case DataType::kDate32:
        each([&](int64_t i) {
          dst.AppendInt64(static_cast<int32_t>(ints[i]));
        });
        break;
      case DataType::kInt64:
        each([&](int64_t i) { dst.AppendInt64(ints[i]); });
        break;
      case DataType::kDouble: {
        const double* doubles = src.doubles();
        each([&](int64_t i) { dst.AppendDouble(doubles[i]); });
        break;
      }
      case DataType::kString: {
        const std::string_view* strings = src.strings();
        each([&](int64_t i) { dst.AppendString(std::string(strings[i])); });
        break;
      }
    }
  }
}

}  // namespace vstore
