#include "exec/spill.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

namespace vstore {

namespace {

struct RecordHeader {
  uint32_t rows;
  uint32_t columns;
  uint64_t body_bytes;
};
static_assert(sizeof(RecordHeader) == 16, "record header is 16 bytes");

// Body bytes of column `cv` over rows row_of(0..n); fails on a string
// longer than a u32 length can say.
template <typename RowOf>
Result<size_t> ColumnBytes(const ColumnVector& cv, RowOf row_of, int64_t n) {
  const size_t rows = static_cast<size_t>(n);
  if (cv.physical_type() != PhysicalType::kString) return rows * 9;
  size_t total = rows * 5;
  const std::string_view* sv = cv.strings();
  const uint8_t* valid = cv.validity();
  for (int64_t k = 0; k < n; ++k) {
    const int64_t i = row_of(k);
    if (!valid[i]) continue;
    if (sv[i].size() > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("spill: string longer than 4 GiB");
    }
    total += sv[i].size();
  }
  return total;
}

// Encodes column `cv` over rows row_of(0..n) at `out`; returns the end.
template <typename RowOf>
uint8_t* EncodeColumn(const ColumnVector& cv, RowOf row_of, int64_t n,
                      uint8_t* out) {
  const uint8_t* valid = cv.validity();
  for (int64_t k = 0; k < n; ++k) out[k] = valid[row_of(k)];
  out += n;
  switch (cv.physical_type()) {
    case PhysicalType::kInt64:
      for (int64_t k = 0; k < n; ++k) {
        std::memcpy(out + 8 * k, cv.ints() + row_of(k), 8);
      }
      return out + 8 * n;
    case PhysicalType::kDouble:
      for (int64_t k = 0; k < n; ++k) {
        std::memcpy(out + 8 * k, cv.doubles() + row_of(k), 8);
      }
      return out + 8 * n;
    case PhysicalType::kString: {
      const std::string_view* sv = cv.strings();
      uint8_t* bytes = out + 4 * n;
      for (int64_t k = 0; k < n; ++k) {
        const int64_t i = row_of(k);
        const uint32_t len =
            valid[i] ? static_cast<uint32_t>(sv[i].size()) : 0;
        std::memcpy(out + 4 * k, &len, 4);
        if (len > 0) std::memcpy(bytes, sv[i].data(), len);
        bytes += len;
      }
      return bytes;
    }
  }
  return out;
}

// Encodes rows row_of(0..n) of `batch` as one record into `scratch`;
// returns the record size.
template <typename RowOf>
Result<size_t> EncodeRecord(const Batch& batch, RowOf row_of, int64_t n,
                            SpillBuffer* scratch) {
  size_t body = 0;
  for (int c = 0; c < batch.num_columns(); ++c) {
    VSTORE_ASSIGN_OR_RETURN(size_t bytes,
                            ColumnBytes(batch.column(c), row_of, n));
    body += bytes;
  }
  const size_t total = sizeof(RecordHeader) + body;
  uint8_t* buf = scratch->Reserve(total);
  const RecordHeader header{static_cast<uint32_t>(n),
                            static_cast<uint32_t>(batch.num_columns()),
                            static_cast<uint64_t>(body)};
  std::memcpy(buf, &header, sizeof(header));
  uint8_t* out = buf + sizeof(header);
  for (int c = 0; c < batch.num_columns(); ++c) {
    out = EncodeColumn(batch.column(c), row_of, n, out);
  }
  VSTORE_DCHECK(out == buf + total);
  return total;
}

Status Corrupt(const char* what) {
  return Status::Internal(std::string("spill read failed: ") + what);
}

}  // namespace

uint8_t* SpillBuffer::Reserve(size_t size) {
  if (size > capacity_) {
    // Grow by at least a quarter so slowly growing records do not
    // reallocate every time; round to 4 KiB.
    size_t capacity = std::max(size, capacity_ + capacity_ / 4);
    capacity = (capacity + 4095) & ~size_t{4095};
    data_.reset(new uint8_t[capacity]);
    capacity_ = capacity;
    reservation_.Set(static_cast<int64_t>(capacity_));
  }
  return data_.get();
}

void SpillBuffer::Release() {
  data_.reset();
  capacity_ = 0;
  reservation_.Clear();
}

Status SpillFile::Open(int64_t max_record_rows) {
  VSTORE_DCHECK(file_ == nullptr && max_record_rows > 0);
  file_.reset(std::tmpfile());
  if (file_ == nullptr) return Status::Internal("cannot create spill file");
  max_record_rows_ = std::min<int64_t>(max_record_rows,
                                       std::numeric_limits<uint32_t>::max());
  rows_ = 0;
  return Status::OK();
}

Result<int64_t> SpillFile::WriteRecord(const Batch& batch, const int32_t* sel,
                                       int64_t first, int64_t n,
                                       SpillBuffer* scratch) {
  Result<size_t> size =
      sel != nullptr
          ? EncodeRecord(batch, [sel](int64_t k) -> int64_t { return sel[k]; },
                         n, scratch)
          : EncodeRecord(batch, [first](int64_t k) { return first + k; }, n,
                         scratch);
  VSTORE_RETURN_IF_ERROR(size.status());
  if (std::fwrite(scratch->data(), 1, *size, file_.get()) != *size) {
    return Status::Internal("spill write failed");
  }
  rows_ += n;
  return static_cast<int64_t>(*size);
}

Result<int64_t> SpillFile::Append(const Batch& batch, const int32_t* sel,
                                  int64_t n, SpillBuffer* scratch) {
  VSTORE_DCHECK(file_ != nullptr);
  int64_t written = 0;
  for (int64_t begin = 0; begin < n; begin += max_record_rows_) {
    const int64_t m = std::min(max_record_rows_, n - begin);
    VSTORE_ASSIGN_OR_RETURN(
        int64_t bytes,
        WriteRecord(batch, sel != nullptr ? sel + begin : nullptr, begin, m,
                    scratch));
    written += bytes;
  }
  return written;
}

Status SpillFile::Rewind() {
  VSTORE_DCHECK(file_ != nullptr);
  if (std::fseek(file_.get(), 0, SEEK_END) != 0) {
    return Status::Internal("spill seek failed");
  }
  const long size = std::ftell(file_.get());
  if (size < 0) return Status::Internal("spill seek failed");
  std::rewind(file_.get());
  read_size_ = size;
  read_offset_ = 0;
  return Status::OK();
}

Result<bool> SpillFile::Read(Batch* out, SpillBuffer* scratch) {
  VSTORE_DCHECK(file_ != nullptr);
  RecordHeader header{};
  const size_t got = std::fread(&header, 1, sizeof(header), file_.get());
  if (got == 0 && std::feof(file_.get())) return false;
  if (got != sizeof(header)) return Corrupt("truncated record header");
  read_offset_ += static_cast<int64_t>(sizeof(header));
  const int64_t rows = header.rows;
  if (rows > out->capacity()) {
    return Corrupt("record has more rows than the batch");
  }
  if (static_cast<int>(header.columns) != out->num_columns()) {
    return Corrupt("record column count differs from the schema");
  }
  if (header.body_bytes >
      static_cast<uint64_t>(std::max<int64_t>(read_size_ - read_offset_, 0))) {
    return Corrupt("truncated record body");
  }
  const size_t body_bytes = static_cast<size_t>(header.body_bytes);
  uint8_t* body = scratch->Reserve(body_bytes);
  if (body_bytes > 0 &&
      std::fread(body, 1, body_bytes, file_.get()) != body_bytes) {
    return Corrupt("truncated record body");
  }
  read_offset_ += static_cast<int64_t>(body_bytes);

  out->Reset();
  const uint8_t* p = body;
  const uint8_t* const end = body + body_bytes;
  // Claims the next `bytes` of the body, or fails at its end.
  auto take = [&](size_t bytes, const uint8_t** at) {
    if (static_cast<size_t>(end - p) < bytes) return false;
    *at = p;
    p += bytes;
    return true;
  };
  const size_t n = static_cast<size_t>(rows);
  for (int c = 0; c < out->num_columns(); ++c) {
    ColumnVector& cv = out->column(c);
    const uint8_t* valid = nullptr;
    if (!take(n, &valid)) return Corrupt("record body too short");
    if (n > 0) std::memcpy(cv.mutable_validity(), valid, n);
    if (cv.physical_type() != PhysicalType::kString) {
      const uint8_t* values = nullptr;
      if (!take(8 * n, &values)) return Corrupt("record body too short");
      void* dst = cv.physical_type() == PhysicalType::kInt64
                      ? static_cast<void*>(cv.mutable_ints())
                      : static_cast<void*>(cv.mutable_doubles());
      if (n > 0) std::memcpy(dst, values, 8 * n);
      continue;
    }
    const uint8_t* lengths = nullptr;
    if (!take(4 * n, &lengths)) return Corrupt("record body too short");
    std::string_view* sv = cv.mutable_strings();
    for (size_t i = 0; i < n; ++i) {
      uint32_t len = 0;
      std::memcpy(&len, lengths + 4 * i, 4);
      const uint8_t* bytes = nullptr;
      if (!take(len, &bytes)) return Corrupt("string runs past the record end");
      sv[i] = std::string_view(reinterpret_cast<const char*>(bytes), len);
    }
  }
  if (p != end) return Corrupt("record body has trailing bytes");
  out->set_num_rows(rows);
  out->ActivateAll();
  return true;
}

}  // namespace vstore
