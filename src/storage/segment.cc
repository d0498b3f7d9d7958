#include "storage/segment.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/bit_util.h"
#include "storage/bit_pack.h"
#include "storage/lzss.h"

namespace vstore {

namespace {

// Compresses `plain` into `blob` and returns true if worthwhile. Archival
// always keeps the compressed form even when slightly larger (the paper's
// ARCHIVE option trades CPU for size unconditionally); we only skip empty
// buffers.
bool CompressBlob(const uint8_t* plain, size_t plain_size,
                  std::vector<uint8_t>* out, size_t* original_size) {
  *original_size = plain_size;
  if (plain_size == 0) {
    out->clear();
    return false;
  }
  *out = Lzss::Compress(plain, plain_size);
  return true;
}

Status DecompressBlob(const std::vector<uint8_t>& compressed,
                      size_t original_size, std::vector<uint8_t>* out) {
  out->assign(original_size, 0);
  if (original_size == 0) return Status::OK();
  return Lzss::Decompress(compressed.data(), compressed.size(), out->data(),
                          original_size);
}

}  // namespace

int64_t ColumnSegment::EncodedBytes() const {
  int64_t bytes = 0;
  if (encoding_ == EncodingKind::kBitPack) {
    bytes += archived_ ? static_cast<int64_t>(arch_packed_.original_size)
                       : static_cast<int64_t>(packed_size());
  } else {
    if (archived_) {
      bytes += static_cast<int64_t>(arch_rle_values_.original_size +
                                    arch_rle_lengths_.original_size);
    } else {
      bytes += rle_.TotalBytes();
    }
  }
  bytes += static_cast<int64_t>(null_bitmap_size());
  if (local_dict_ != nullptr) bytes += local_dict_->MemoryBytes();
  return bytes;
}

int64_t ColumnSegment::ArchivedBytes() const {
  if (!archived_) return 0;
  int64_t bytes = static_cast<int64_t>(arch_packed_.compressed.size() +
                                       arch_rle_values_.compressed.size() +
                                       arch_rle_lengths_.compressed.size());
  bytes += static_cast<int64_t>(null_bitmap_size());
  if (local_dict_ != nullptr) bytes += local_dict_->ArchivedBytes();
  return bytes;
}

void ColumnSegment::DecodeCodes(int64_t start, int64_t count,
                                uint64_t* out) const {
  VSTORE_DCHECK(start >= 0 && start + count <= num_rows());
  EnsureResident().CheckOK();
  if (encoding_ == EncodingKind::kBitPack) {
    BitPacker::Unpack(packed_data(), bit_width_, start, count, out);
  } else {
    RleCodec::Decode(rle_, start, count, out);
  }
}

void ColumnSegment::DecodeInt64(int64_t start, int64_t count,
                                int64_t* out) const {
  VSTORE_DCHECK(PhysicalTypeOf(type_) == PhysicalType::kInt64);
  // Decode codes directly into the output buffer, then widen in place.
  uint64_t* codes = reinterpret_cast<uint64_t*>(out);
  DecodeCodes(start, count, codes);
  const int64_t base = venc_.base;
  const int64_t pow10 = venc_.int_pow10;
  if (pow10 == 1) {
    for (int64_t i = 0; i < count; ++i) {
      out[i] = static_cast<int64_t>(codes[i]) + base;
    }
  } else {
    for (int64_t i = 0; i < count; ++i) {
      out[i] = (static_cast<int64_t>(codes[i]) + base) * pow10;
    }
  }
}

void ColumnSegment::DecodeDouble(int64_t start, int64_t count,
                                 double* out) const {
  VSTORE_DCHECK(type_ == DataType::kDouble);
  uint64_t* codes = reinterpret_cast<uint64_t*>(out);
  DecodeCodes(start, count, codes);
  if (venc_.code_kind == CodeKind::kRawDouble) {
    return;  // codes are already the IEEE bit patterns, in place
  }
  const int64_t base = venc_.base;
  const double factor = venc_.dbl_pow10;
  for (int64_t i = 0; i < count; ++i) {
    out[i] = static_cast<double>(static_cast<int64_t>(codes[i]) + base) /
             factor;
  }
}

void ColumnSegment::CodesToStrings(const uint64_t* codes, int64_t count,
                                   std::string_view* out) const {
  for (int64_t i = 0; i < count; ++i) out[i] = DictString(codes[i]);
}

void ColumnSegment::GatherCodes(const int64_t* rows, int64_t count,
                                uint64_t* out) const {
  if (count == 0) return;
  EnsureResident().CheckOK();
  if (encoding_ == EncodingKind::kBitPack) {
    for (int64_t i = 0; i < count; ++i) {
      out[i] = BitPacker::Get(packed_data(), bit_width_, rows[i]);
    }
    return;
  }
  // Binary-search the first run, then one merge walk; rows must ascend.
  int64_t r = static_cast<int64_t>(
                  std::upper_bound(rle_.run_starts.begin(),
                                   rle_.run_starts.end(), rows[0]) -
                  rle_.run_starts.begin()) -
              1;
  int64_t run_end = rle_.run_starts[static_cast<size_t>(r)];
  uint64_t value = 0;
  bool have_value = false;
  for (int64_t i = 0; i < count; ++i) {
    VSTORE_DCHECK(i == 0 || rows[i] >= rows[i - 1]);
    while (rows[i] >= run_end || !have_value) {
      VSTORE_DCHECK(r < rle_.num_runs);
      value = BitPacker::Get(rle_.values_data(), rle_.value_bits, r);
      run_end = (r + 1 < rle_.num_runs
                     ? rle_.run_starts[static_cast<size_t>(r + 1)]
                     : rle_.num_rows);
      ++r;
      have_value = true;
    }
    out[i] = value;
  }
}

void ColumnSegment::GatherInt64(const int64_t* rows, int64_t count,
                                int64_t* out) const {
  // Gather codes into the output buffer, then widen in place.
  uint64_t* codes = reinterpret_cast<uint64_t*>(out);
  GatherCodes(rows, count, codes);
  for (int64_t i = 0; i < count; ++i) out[i] = DecodeIntCode(codes[i], venc_);
}

void ColumnSegment::GatherDouble(const int64_t* rows, int64_t count,
                                 double* out) const {
  uint64_t* codes = reinterpret_cast<uint64_t*>(out);
  GatherCodes(rows, count, codes);
  for (int64_t i = 0; i < count; ++i) {
    out[i] = DecodeDoubleCode(codes[i], venc_);
  }
}

void ColumnSegment::GatherValidity(const int64_t* rows, int64_t count,
                                   uint8_t* out) const {
  if (!has_null_bitmap()) {
    std::fill(out, out + count, uint8_t{1});
    return;
  }
  for (int64_t i = 0; i < count; ++i) {
    out[i] = bit_util::GetBit(null_bitmap_data(), rows[i]) ? 1 : 0;
  }
}

void ColumnSegment::DecodeValidity(int64_t start, int64_t count,
                                   uint8_t* out) const {
  if (!has_null_bitmap()) {
    std::fill(out, out + count, uint8_t{1});
    return;
  }
  for (int64_t i = 0; i < count; ++i) {
    out[i] = bit_util::GetBit(null_bitmap_data(), start + i) ? 1 : 0;
  }
}

Value ColumnSegment::GetValue(int64_t row) const {
  VSTORE_DCHECK(row >= 0 && row < num_rows());
  if (has_null_bitmap() && !bit_util::GetBit(null_bitmap_data(), row)) {
    return Value::Null(type_);
  }
  uint64_t code;
  DecodeCodes(row, 1, &code);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(DecodeIntCode(code, venc_) != 0);
    case DataType::kInt32:
      return Value::Int32(static_cast<int32_t>(DecodeIntCode(code, venc_)));
    case DataType::kInt64:
      return Value::Int64(DecodeIntCode(code, venc_));
    case DataType::kDate32:
      return Value::Date32(static_cast<int32_t>(DecodeIntCode(code, venc_)));
    case DataType::kDouble:
      return Value::Double(DecodeDoubleCode(code, venc_));
    case DataType::kString:
      return Value::String(std::string(DictString(code)));
  }
  return Value::Null(type_);
}

std::string_view ColumnSegment::DictString(uint64_t code) const {
  VSTORE_DCHECK(dict_encoded());
  int64_t c = static_cast<int64_t>(code);
  if (c < primary_dict_size_) return primary_dict_->Get(c);
  VSTORE_DCHECK(local_dict_ != nullptr);
  return local_dict_->Get(c - primary_dict_size_);
}

bool ColumnSegment::MayMatch(CompareOp op, const Value& value) const {
  if (value.is_null()) return false;  // SQL comparisons with NULL never match
  if (!stats_.has_values) return false;
  // kNe can only be eliminated when min == max == value; handle via cmp
  // bounds below.
  switch (PhysicalTypeOf(type_)) {
    case PhysicalType::kInt64: {
      int64_t v = value.int64();
      switch (op) {
        case CompareOp::kEq:
          return v >= stats_.min_i64 && v <= stats_.max_i64;
        case CompareOp::kNe:
          return !(stats_.min_i64 == v && stats_.max_i64 == v);
        case CompareOp::kLt:
          return stats_.min_i64 < v;
        case CompareOp::kLe:
          return stats_.min_i64 <= v;
        case CompareOp::kGt:
          return stats_.max_i64 > v;
        case CompareOp::kGe:
          return stats_.max_i64 >= v;
      }
      return true;
    }
    case PhysicalType::kDouble: {
      double v = value.AsDouble();
      switch (op) {
        case CompareOp::kEq:
          return v >= stats_.min_d && v <= stats_.max_d;
        case CompareOp::kNe:
          return !(stats_.min_d == v && stats_.max_d == v);
        case CompareOp::kLt:
          return stats_.min_d < v;
        case CompareOp::kLe:
          return stats_.min_d <= v;
        case CompareOp::kGt:
          return stats_.max_d > v;
        case CompareOp::kGe:
          return stats_.max_d >= v;
      }
      return true;
    }
    case PhysicalType::kString: {
      const std::string& v = value.str();
      switch (op) {
        case CompareOp::kEq:
          return v >= stats_.min_s && v <= stats_.max_s;
        case CompareOp::kNe:
          return !(stats_.min_s == v && stats_.max_s == v);
        case CompareOp::kLt:
          return stats_.min_s < v;
        case CompareOp::kLe:
          return stats_.min_s <= v;
        case CompareOp::kGt:
          return stats_.max_s > v;
        case CompareOp::kGe:
          return stats_.max_s >= v;
      }
      return true;
    }
  }
  return true;
}

void ColumnSegment::EvalPredicateOnRuns(CompareOp op, const Value& value,
                                        int64_t start, int64_t count,
                                        uint8_t* verdict) const {
  VSTORE_DCHECK(encoding_ == EncodingKind::kRle);
  VSTORE_DCHECK(start >= 0 && start + count <= num_rows());
  EnsureResident().CheckOK();
  // Position on the run containing `start`, then walk forward, deciding
  // each run once and fanning the verdict out over its row span. The sign
  // expressions mirror the scan's branchless ApplyPredicate exactly.
  int64_t r = static_cast<int64_t>(
                  std::upper_bound(rle_.run_starts.begin(),
                                   rle_.run_starts.end(), start) -
                  rle_.run_starts.begin()) -
              1;
  int64_t row = start;
  const int64_t end = start + count;
  while (row < end) {
    VSTORE_DCHECK(r < rle_.num_runs);
    const uint64_t code =
        BitPacker::Get(rle_.values_data(), rle_.value_bits, r);
    const int64_t run_end = r + 1 < rle_.num_runs
                                ? rle_.run_starts[static_cast<size_t>(r + 1)]
                                : rle_.num_rows;
    uint8_t v = 0;
    switch (PhysicalTypeOf(type_)) {
      case PhysicalType::kString: {
        int c = DictString(code).compare(std::string_view(value.str()));
        v = uint8_t{ApplyCompare(op, (c > 0) - (c < 0))};
        break;
      }
      case PhysicalType::kDouble: {
        double d = DecodeDoubleCode(code, venc_);
        double t = value.AsDouble();
        v = uint8_t{ApplyCompare(op, (d > t) - (d < t))};
        break;
      }
      case PhysicalType::kInt64: {
        // A double constant against an int column compares in double space.
        if (value.type() == DataType::kDouble) {
          double d = static_cast<double>(DecodeIntCode(code, venc_));
          double t = value.AsDouble();
          v = uint8_t{ApplyCompare(op, (d > t) - (d < t))};
        } else {
          int64_t a = DecodeIntCode(code, venc_);
          int64_t t = value.int64();
          v = uint8_t{ApplyCompare(op, (a > t) - (a < t))};
        }
        break;
      }
    }
    const int64_t span_end = std::min(run_end, end);
    std::memset(verdict + (row - start), v,
                static_cast<size_t>(span_end - row));
    row = span_end;
    ++r;
  }
}

bool ColumnSegment::ValueToCode(const Value& value, uint64_t* code) const {
  if (value.is_null()) return false;
  switch (venc_.code_kind) {
    case CodeKind::kValueOffset:
      return EncodeIntValue(value.int64(), venc_, code);
    case CodeKind::kDictionary: {
      const std::string& s = value.str();
      int64_t c = primary_dict_ != nullptr ? primary_dict_->Find(s) : -1;
      if (c >= 0 && c < primary_dict_size_) {
        *code = static_cast<uint64_t>(c);
        return true;
      }
      if (local_dict_ != nullptr) {
        int64_t lc = local_dict_->Find(s);
        if (lc >= 0) {
          *code = static_cast<uint64_t>(primary_dict_size_ + lc);
          return true;
        }
      }
      return false;
    }
    case CodeKind::kValueScaled:
    case CodeKind::kRawDouble:
      // Double equality via codes is not attempted; caller decodes.
      return false;
  }
  return false;
}

Status ColumnSegment::Archive() {
  std::lock_guard<std::mutex> lock(resident_mu_);
  if (archived_) return Status::OK();
  if (encoding_ == EncodingKind::kBitPack) {
    CompressBlob(packed_data(), packed_size(), &arch_packed_.compressed,
                 &arch_packed_.original_size);
    packed_.clear();
    packed_.shrink_to_fit();
    packed_extern_ = nullptr;
    packed_extern_size_ = 0;
  } else {
    CompressBlob(rle_.values_data(), rle_.values_size(),
                 &arch_rle_values_.compressed, &arch_rle_values_.original_size);
    CompressBlob(rle_.lengths_data(), rle_.lengths_size(),
                 &arch_rle_lengths_.compressed,
                 &arch_rle_lengths_.original_size);
    rle_.values.clear();
    rle_.values.shrink_to_fit();
    rle_.lengths.clear();
    rle_.lengths.shrink_to_fit();
    rle_.values_extern = nullptr;
    rle_.values_extern_size = 0;
    rle_.lengths_extern = nullptr;
    rle_.lengths_extern_size = 0;
  }
  archived_ = true;
  resident_ = false;
  return Status::OK();
}

Status ColumnSegment::EnsureResident() const {
  if (resident_) return Status::OK();
  std::lock_guard<std::mutex> lock(resident_mu_);
  if (resident_) return Status::OK();
  if (encoding_ == EncodingKind::kBitPack) {
    VSTORE_RETURN_IF_ERROR(DecompressBlob(
        arch_packed_.compressed, arch_packed_.original_size, &packed_));
  } else {
    VSTORE_RETURN_IF_ERROR(DecompressBlob(arch_rle_values_.compressed,
                                          arch_rle_values_.original_size,
                                          &rle_.values));
    VSTORE_RETURN_IF_ERROR(DecompressBlob(arch_rle_lengths_.compressed,
                                          arch_rle_lengths_.original_size,
                                          &rle_.lengths));
    if (static_cast<int64_t>(rle_.run_starts.size()) != rle_.num_runs) {
      RleCodec::BuildIndex(&rle_);
    }
  }
  resident_ = true;
  return Status::OK();
}

void ColumnSegment::Evict() const {
  std::lock_guard<std::mutex> lock(resident_mu_);
  if (!archived_ || !resident_) return;
  if (encoding_ == EncodingKind::kBitPack) {
    packed_.clear();
    packed_.shrink_to_fit();
  } else {
    rle_.values.clear();
    rle_.values.shrink_to_fit();
    rle_.lengths.clear();
    rle_.lengths.shrink_to_fit();
  }
  resident_ = false;
}

std::unique_ptr<ColumnSegment> SegmentBuilder::Build(
    const ColumnData& column, int64_t begin, int64_t end,
    const int64_t* row_order,
    const std::shared_ptr<StringDictionary>& primary_dict,
    const Options& options) {
  VSTORE_CHECK(begin >= 0 && begin <= end && end <= column.size());
  const int64_t n = end - begin;
  auto segment = std::unique_ptr<ColumnSegment>(new ColumnSegment());
  segment->type_ = column.type();
  segment->stats_.num_rows = n;

  auto source_row = [&](int64_t i) {
    return row_order != nullptr ? row_order[i] : begin + i;
  };

  // Validity (byte per row during build; bitmap in the segment).
  std::vector<uint8_t> validity(static_cast<size_t>(n), 1);
  int64_t null_count = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (column.IsNull(source_row(i))) {
      validity[static_cast<size_t>(i)] = 0;
      ++null_count;
    }
  }
  segment->stats_.null_count = null_count;
  segment->stats_.has_values = null_count < n;
  if (null_count > 0) {
    segment->null_bitmap_.assign(
        static_cast<size_t>(bit_util::BytesForBits(n)), 0);
    for (int64_t i = 0; i < n; ++i) {
      if (validity[static_cast<size_t>(i)]) {
        bit_util::SetBit(segment->null_bitmap_.data(), i);
      }
    }
  }

  // Stage 1: raw values -> codes (+ stats).
  CodeStream stream;
  switch (PhysicalTypeOf(column.type())) {
    case PhysicalType::kInt64: {
      std::vector<int64_t> values(static_cast<size_t>(n));
      int64_t min_v = std::numeric_limits<int64_t>::max();
      int64_t max_v = std::numeric_limits<int64_t>::min();
      for (int64_t i = 0; i < n; ++i) {
        values[static_cast<size_t>(i)] = column.GetInt64(source_row(i));
        if (validity[static_cast<size_t>(i)]) {
          min_v = std::min(min_v, values[static_cast<size_t>(i)]);
          max_v = std::max(max_v, values[static_cast<size_t>(i)]);
        }
      }
      segment->stats_.min_i64 = min_v;
      segment->stats_.max_i64 = max_v;
      stream = ValueEncodeInts(values.data(), validity.data(), n);
      break;
    }
    case PhysicalType::kDouble: {
      std::vector<double> values(static_cast<size_t>(n));
      double min_v = std::numeric_limits<double>::infinity();
      double max_v = -std::numeric_limits<double>::infinity();
      for (int64_t i = 0; i < n; ++i) {
        values[static_cast<size_t>(i)] = column.GetDouble(source_row(i));
        if (validity[static_cast<size_t>(i)]) {
          min_v = std::min(min_v, values[static_cast<size_t>(i)]);
          max_v = std::max(max_v, values[static_cast<size_t>(i)]);
        }
      }
      segment->stats_.min_d = min_v;
      segment->stats_.max_d = max_v;
      stream = ValueEncodeDoubles(values.data(), validity.data(), n);
      break;
    }
    case PhysicalType::kString: {
      VSTORE_CHECK(primary_dict != nullptr);
      stream.venc.code_kind = CodeKind::kDictionary;
      stream.codes.resize(static_cast<size_t>(n), 0);
      bool first = true;
      for (int64_t i = 0; i < n; ++i) {
        if (!validity[static_cast<size_t>(i)]) continue;
        const std::string& s = column.GetString(source_row(i));
        if (first) {
          segment->stats_.min_s = s;
          segment->stats_.max_s = s;
          first = false;
        } else {
          if (s < segment->stats_.min_s) segment->stats_.min_s = s;
          if (s > segment->stats_.max_s) segment->stats_.max_s = s;
        }
        int64_t code = const_cast<StringDictionary*>(primary_dict.get())
                           ->GetOrInsert(s, options.primary_dict_capacity);
        if (code < 0) {
          if (segment->local_dict_ == nullptr) {
            segment->local_dict_ = std::make_unique<StringDictionary>();
          }
          code = segment->local_dict_->GetOrInsert(
              s, std::numeric_limits<int64_t>::max());
          // Local codes live above the primary range. The primary range is
          // frozen per segment below, after all inserts are done.
          code += options.primary_dict_capacity;
        }
        stream.codes[static_cast<size_t>(i)] = static_cast<uint64_t>(code);
      }
      // Freeze the primary boundary at the configured capacity so local
      // codes are unambiguous even as the primary keeps growing for later
      // segments (it never exceeds the capacity).
      segment->primary_dict_size_ = options.primary_dict_capacity;
      segment->primary_dict_ = primary_dict;
      for (uint64_t c : stream.codes) {
        stream.max_code = std::max(stream.max_code, c);
      }
      break;
    }
  }
  segment->venc_ = stream.venc;

  // Stage 2: RLE vs bit packing, whichever is smaller.
  const int bit_width = bit_util::BitsRequired(stream.max_code);
  const int64_t packed_bytes = BitPacker::PackedBytes(n, bit_width);
  const int64_t runs = RleCodec::CountRuns(stream.codes.data(), n);
  const int64_t rle_bytes = RleCodec::EstimateBytes(runs, n, stream.max_code);

  segment->bit_width_ = bit_width;
  if (rle_bytes < packed_bytes) {
    segment->encoding_ = EncodingKind::kRle;
    segment->rle_ = RleCodec::Encode(stream.codes.data(), n);
  } else {
    segment->encoding_ = EncodingKind::kBitPack;
    segment->packed_ = BitPacker::Pack(stream.codes.data(), n, bit_width);
  }
  return segment;
}

}  // namespace vstore
