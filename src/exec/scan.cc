#include "exec/scan.h"

#include <algorithm>

#include "common/hash.h"
#include "common/span_trace.h"
#include "exec/expr_kernels.h"
#include "exec/hash_table.h"
#include "common/macros.h"

namespace vstore {

namespace {

// Three-way comparison used for delta rows (same physical family only).
int CompareValueTo(const Value& a, const Value& b) {
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
      if (b.type() == DataType::kDouble) {
        double x = a.AsDouble(), y = b.AsDouble();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      int64_t x = a.int64(), y = b.int64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
  }
  return 0;
}

// Single-key hashes matching RowFormat::HashKeysFromBatch for a one-column
// key, so Bloom filters built by hash joins test positive here.
uint64_t HashVectorValue(const ColumnVector& cv, int64_t i) {
  switch (cv.physical_type()) {
    case PhysicalType::kInt64:
      return SingleKeyHash(HashInt64(static_cast<uint64_t>(cv.ints()[i])));
    case PhysicalType::kDouble:
      return SingleKeyHash(HashInt64(std::bit_cast<uint64_t>(cv.doubles()[i])));
    case PhysicalType::kString:
      return SingleKeyHash(Hash64(cv.strings()[i]));
  }
  return 0;
}

// The dictionary a string segment's codes can be handed upward with: the
// shared primary dictionary when the segment has no local one, else null
// (local codes mean nothing outside their row group).
const StringDictionary* LaneDictionary(const ColumnSegment& seg) {
  return seg.local_dictionary() == nullptr ? seg.primary_dictionary()
                                           : nullptr;
}

uint64_t HashValue(const Value& v) {
  switch (PhysicalTypeOf(v.type())) {
    case PhysicalType::kInt64:
      return SingleKeyHash(HashInt64(static_cast<uint64_t>(v.int64())));
    case PhysicalType::kDouble:
      return SingleKeyHash(HashInt64(std::bit_cast<uint64_t>(v.dbl())));
    case PhysicalType::kString:
      return SingleKeyHash(Hash64(v.str()));
  }
  return 0;
}

}  // namespace

ColumnStoreScanOperator::ColumnStoreScanOperator(const ColumnStoreTable* table,
                                                 Options options,
                                                 ExecContext* ctx)
    : table_(table), options_(std::move(options)), ctx_(ctx) {
  const Schema& schema = table_->schema();
  if (options_.projection.empty()) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      options_.projection.push_back(c);
    }
  }
  output_schema_ = schema.Project(options_.projection);

  // Decode plan: projected columns first, then predicate/bloom-only ones.
  auto slot_for = [this](int table_column) {
    for (size_t i = 0; i < decode_columns_.size(); ++i) {
      if (decode_columns_[i] == table_column) return static_cast<int>(i);
    }
    decode_columns_.push_back(table_column);
    decode_to_output_.push_back(-1);
    return static_cast<int>(decode_columns_.size() - 1);
  };
  for (size_t p = 0; p < options_.projection.size(); ++p) {
    decode_columns_.push_back(options_.projection[p]);
    decode_to_output_.push_back(static_cast<int>(p));
  }
  for (const ScanPredicate& pred : options_.predicates) {
    pred_decode_slot_.push_back(slot_for(pred.column));
  }
  for (const BloomFilterSpec& spec : options_.bloom_filters) {
    bloom_decode_slot_.push_back(slot_for(spec.column));
  }
  early_slot_.assign(decode_columns_.size(), false);
  for (int s : pred_decode_slot_) early_slot_[static_cast<size_t>(s)] = true;
  for (int s : bloom_decode_slot_) early_slot_[static_cast<size_t>(s)] = true;
}

Status ColumnStoreScanOperator::OpenImpl() {
  ranges_ = options_.ranges;
  if (ranges_.empty()) {
    TableSnapshot snapshot = table_->Snapshot();
    const int64_t groups = snapshot->num_row_groups();
    ranges_.push_back(ScanRange{std::move(snapshot), 0, groups, true});
  }
  output_ = std::make_unique<Batch>(output_schema_, ctx_->batch_size);
  // Scratch vectors for predicate-only columns.
  scratch_.clear();
  for (size_t i = 0; i < decode_columns_.size(); ++i) {
    if (decode_to_output_[i] < 0) {
      scratch_.push_back(std::make_unique<ColumnVector>(
          table_->schema().field(decode_columns_[i]).type, ctx_->batch_size));
    } else {
      scratch_.push_back(nullptr);
    }
  }
  StartRange(0);
  rows_scanned_ = 0;
  delta_rows_scanned_ = 0;
  groups_scanned_ = 0;
  groups_eliminated_ = 0;
  bloom_rows_dropped_ = 0;
  return Status::OK();
}

void ColumnStoreScanOperator::StartRange(size_t i) {
  const ScanRange& range = ranges_[i];
  VSTORE_DCHECK(range.snapshot != nullptr
                    ? range.group_end <= range.snapshot->num_row_groups()
                    : range.group_end == range.group_begin &&
                          !range.include_deltas);
  range_ = i;
  snapshot_ = range.snapshot.get();
  group_ = range.group_begin;
  group_limit_ = range.group_end;
  offset_ = 0;
  in_group_ = false;
  delta_index_ = 0;
  deltas_done_ = !range.include_deltas;
  delta_loaded_ = false;
  delta_row_pos_ = 0;
}

void ColumnStoreScanOperator::CloseImpl() {
  output_.reset();
  scratch_.clear();
  ranges_.clear();
  snapshot_ = nullptr;
}

void ColumnStoreScanOperator::AppendProfileCounters(
    OperatorProfile* node) const {
  node->counters.push_back({"rows_scanned", rows_scanned_});
  node->counters.push_back({"delta_rows", delta_rows_scanned_});
  node->counters.push_back({"groups_scanned", groups_scanned_});
  node->counters.push_back({"groups_eliminated", groups_eliminated_});
  if (!options_.bloom_filters.empty()) {
    node->counters.push_back({"bloom_rows_dropped", bloom_rows_dropped_});
  }
  if (shards_total_ > 0) {
    node->counters.push_back({"shards_total", shards_total_});
    node->counters.push_back({"shards_pruned", shards_pruned_});
  }
}

bool ColumnStoreScanOperator::AdvanceGroup() {
  while (group_ < group_limit_) {
    const RowGroup& rg = snapshot_->row_group(group_);
    // Segment elimination: any predicate whose segment cannot match kills
    // the whole group.
    bool eliminated = false;
    for (const ScanPredicate& pred : options_.predicates) {
      if (!rg.column(pred.column).MayMatch(pred.op, pred.value)) {
        eliminated = true;
        break;
      }
    }
    // A fully deleted group is also skipped.
    if (!eliminated &&
        snapshot_->delete_bitmap(group_).deleted_count() == rg.num_rows()) {
      eliminated = true;
    }
    if (eliminated) {
      ++ctx_->stats.row_groups_eliminated;
      ++groups_eliminated_;
      ++group_;
      continue;
    }
    ++ctx_->stats.row_groups_scanned;
    ++groups_scanned_;
    offset_ = 0;
    in_group_ = true;
    return true;
  }
  return false;
}

void ColumnStoreScanOperator::ApplyPredicate(const ScanPredicate& pred,
                                             const ColumnVector& cv,
                                             Batch* batch) const {
  // Branchless: every row is evaluated (FillFromGroup decoded all rows of
  // the predicate column, so inactive rows hold initialized values) and the
  // verdict is ANDed into the existing mask. The sign expressions map
  // NaN/unordered comparisons to 0, matching the ordered ternary they
  // replace, and the loops vectorize without the per-row mask branch.
  const int64_t n = batch->num_rows();
  uint8_t* active = batch->mutable_active();
  const uint8_t* valid = cv.validity();
  const CompareOp op = pred.op;
  switch (cv.physical_type()) {
    case PhysicalType::kString: {
      const std::string_view target(pred.value.str());
      const std::string_view* values = cv.strings();
      for (int64_t i = 0; i < n; ++i) {
        int c = values[i].compare(target);
        active[i] &= valid[i] & uint8_t{ApplyCompare(op, (c > 0) - (c < 0))};
      }
      break;
    }
    case PhysicalType::kDouble: {
      const double target = pred.value.AsDouble();
      verdict_scratch_.resize(static_cast<size_t>(n));
      kernels::CmpF64ConstMask(op, cv.doubles(), target, n,
                               verdict_scratch_.data());
      for (int64_t i = 0; i < n; ++i) {
        active[i] &= valid[i] & verdict_scratch_[i];
      }
      break;
    }
    case PhysicalType::kInt64: {
      verdict_scratch_.resize(static_cast<size_t>(n));
      // A double constant against an int column compares in double space.
      if (pred.value.type() == DataType::kDouble) {
        const double target = pred.value.AsDouble();
        const int64_t* values = cv.ints();
        for (int64_t i = 0; i < n; ++i) {
          double v = static_cast<double>(values[i]);
          verdict_scratch_[i] =
              uint8_t{ApplyCompare(op, (v > target) - (v < target))};
        }
      } else {
        kernels::CmpI64ConstMask(op, cv.ints(), pred.value.int64(), n,
                                 verdict_scratch_.data());
      }
      for (int64_t i = 0; i < n; ++i) {
        active[i] &= valid[i] & verdict_scratch_[i];
      }
      break;
    }
  }
}

bool ColumnStoreScanOperator::SlotUsesCodeEval(size_t slot) const {
  // Only worthwhile when the column is not projected (strings would need
  // materializing anyway) and not consumed by a bitmap filter (which
  // hashes raw values).
  if (decode_to_output_[slot] >= 0) return false;
  if (table_->schema().field(decode_columns_[slot]).type !=
      DataType::kString) {
    return false;
  }
  for (int s : bloom_decode_slot_) {
    if (s == static_cast<int>(slot)) return false;
  }
  // Every predicate on this slot must be an equality form.
  for (size_t p = 0; p < options_.predicates.size(); ++p) {
    if (pred_decode_slot_[p] != static_cast<int>(slot)) continue;
    CompareOp op = options_.predicates[p].op;
    if (op != CompareOp::kEq && op != CompareOp::kNe) return false;
  }
  return true;
}

void ColumnStoreScanOperator::ApplyCodePredicate(
    const ScanPredicate& pred, const uint64_t* codes, const uint8_t* validity,
    bool target_valid, uint64_t target_code, Batch* batch) const {
  const int64_t n = batch->num_rows();
  uint8_t* active = batch->mutable_active();
  if (pred.op == CompareOp::kEq) {
    if (!target_valid) {
      // Value not in this segment's dictionaries: nothing matches.
      std::fill(active, active + n, uint8_t{0});
      return;
    }
    for (int64_t i = 0; i < n; ++i) {
      active[i] &= validity[i] & (codes[i] == target_code ? 1 : 0);
    }
  } else {  // kNe
    if (!target_valid) {
      for (int64_t i = 0; i < n; ++i) active[i] &= validity[i];
      return;
    }
    for (int64_t i = 0; i < n; ++i) {
      active[i] &= validity[i] & (codes[i] != target_code ? 1 : 0);
    }
  }
}

void ColumnStoreScanOperator::ApplyBloom(const BloomFilterSpec& spec,
                                         const ColumnVector& cv,
                                         Batch* batch) const {
  const int64_t n = batch->num_rows();
  uint8_t* active = batch->mutable_active();
  const uint8_t* valid = cv.validity();
  int64_t dropped = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    if (!valid[i] || !spec.filter->MayContain(HashVectorValue(cv, i))) {
      active[i] = 0;
      ++dropped;
    }
  }
  ctx_->stats.rows_bloom_filtered += dropped;
  bloom_rows_dropped_ += dropped;
}

Status ColumnStoreScanOperator::FillFromGroup() {
  const RowGroup& rg = snapshot_->row_group(group_);
  const int64_t n =
      std::min<int64_t>(ctx_->batch_size, rg.num_rows() - offset_);
  output_->Reset();
  output_->set_num_rows(n);

  // Liveness from the delete bitmap seeds the active mask.
  const DeleteBitmap& dm = snapshot_->delete_bitmap(group_);
  dm.DecodeLiveness(offset_, n, output_->mutable_active());

  if (options_.sample_fraction < 1.0) {
    // Deterministic Bernoulli sample keyed by (group, row).
    const uint64_t threshold = static_cast<uint64_t>(
        options_.sample_fraction * 18446744073709551615.0);
    uint8_t* active = output_->mutable_active();
    for (int64_t i = 0; i < n; ++i) {
      uint64_t h = HashInt64((static_cast<uint64_t>(group_) << 40) ^
                             static_cast<uint64_t>(offset_ + i) ^
                             options_.sample_seed);
      active[i] &= h <= threshold ? 1 : 0;
    }
  }

  // Phase 1: decode the columns predicates and bitmap filters need, apply
  // them, and only then materialize the remaining projected columns for
  // surviving rows (lazy materialization — the same trick that makes the
  // paper's pushed bitmap filters pay off in the scan).
  auto slot_dst = [&](size_t s) {
    return decode_to_output_[s] >= 0 ? &output_->column(decode_to_output_[s])
                                     : scratch_[s].get();
  };
  auto full_decode = [&](size_t s) {
    const ColumnSegment& seg = rg.column(decode_columns_[s]);
    ColumnVector* dst = slot_dst(s);
    switch (PhysicalTypeOf(seg.type())) {
      case PhysicalType::kInt64:
        seg.DecodeInt64(offset_, n, dst->mutable_ints());
        break;
      case PhysicalType::kDouble:
        seg.DecodeDouble(offset_, n, dst->mutable_doubles());
        break;
      case PhysicalType::kString: {
        // Codes land in the vector's code lane and the strings are mapped
        // from there; the lane is published when the codes are primary.
        uint64_t* codes = dst->mutable_codes();
        seg.DecodeCodes(offset_, n, codes);
        seg.CodesToStrings(codes, n, dst->mutable_strings());
        dst->set_dictionary(LaneDictionary(seg));
        break;
      }
    }
    seg.DecodeValidity(offset_, n, dst->mutable_validity());
  };

  output_->RecountActive();
  code_evaluated_.assign(decode_columns_.size(), false);
  auto is_bloom_slot = [&](size_t s) {
    for (int b : bloom_decode_slot_) {
      if (b == static_cast<int>(s)) return true;
    }
    return false;
  };
  for (size_t s = 0; s < decode_columns_.size(); ++s) {
    if (!early_slot_[s]) continue;
    if (SlotUsesCodeEval(s)) {
      // Equality predicates on non-projected string columns run directly
      // on dictionary codes; the strings are never materialized.
      const ColumnSegment& seg = rg.column(decode_columns_[s]);
      code_scratch_.resize(static_cast<size_t>(n));
      validity_scratch_.resize(static_cast<size_t>(n));
      seg.DecodeCodes(offset_, n, code_scratch_.data());
      seg.DecodeValidity(offset_, n, validity_scratch_.data());
      for (size_t p = 0; p < options_.predicates.size(); ++p) {
        if (pred_decode_slot_[p] != static_cast<int>(s)) continue;
        uint64_t target = 0;
        bool ok = seg.ValueToCode(options_.predicates[p].value, &target);
        ApplyCodePredicate(options_.predicates[p], code_scratch_.data(),
                           validity_scratch_.data(), ok, target,
                           output_.get());
      }
      code_evaluated_[s] = true;
      continue;
    }
    // Predicate-only RLE slots: decide each predicate once per run and fan
    // the verdict over the run's row span — O(runs), never decoding the
    // run bodies into row-at-a-time values.
    const ColumnSegment& seg = rg.column(decode_columns_[s]);
    if (decode_to_output_[s] < 0 && !is_bloom_slot(s) &&
        seg.encoding() == EncodingKind::kRle) {
      validity_scratch_.resize(static_cast<size_t>(n));
      verdict_scratch_.resize(static_cast<size_t>(n));
      seg.DecodeValidity(offset_, n, validity_scratch_.data());
      uint8_t* active = output_->mutable_active();
      for (size_t p = 0; p < options_.predicates.size(); ++p) {
        if (pred_decode_slot_[p] != static_cast<int>(s)) continue;
        seg.EvalPredicateOnRuns(options_.predicates[p].op,
                                options_.predicates[p].value, offset_, n,
                                verdict_scratch_.data());
        for (int64_t i = 0; i < n; ++i) {
          active[i] &= validity_scratch_[i] & verdict_scratch_[i];
        }
      }
      code_evaluated_[s] = true;
      continue;
    }
    full_decode(s);
  }

  // Remaining predicates, then bitmap filters, on the decoded slots.
  for (size_t p = 0; p < options_.predicates.size(); ++p) {
    size_t slot = static_cast<size_t>(pred_decode_slot_[p]);
    if (code_evaluated_[slot]) continue;
    ApplyPredicate(options_.predicates[p], *slot_dst(slot), output_.get());
  }
  for (size_t b = 0; b < options_.bloom_filters.size(); ++b) {
    ApplyBloom(options_.bloom_filters[b],
               *slot_dst(static_cast<size_t>(bloom_decode_slot_[b])),
               output_.get());
  }
  output_->RecountActive();

  // Phase 2: remaining projected columns.
  const int64_t active = output_->active_count();
  if (active == n || active > n - n / 4) {
    // Dense window: bulk decode is cheaper than gathering; the batch keeps
    // its width and its mask.
    for (size_t s = 0; s < decode_columns_.size(); ++s) {
      if (!early_slot_[s]) full_decode(s);
    }
  } else if (active > 0) {
    // Sparse window: emit a compact batch of the survivors, so operators
    // above work per surviving row. Late columns are gathered straight
    // into rows [0, active); early projected columns (predicate or Bloom
    // columns that are also output) are packed forward through the same
    // selection.
    rows_.clear();
    sel_.clear();
    const uint8_t* mask = output_->active();
    for (int64_t i = 0; i < n; ++i) {
      if (mask[i]) {
        rows_.push_back(offset_ + i);
        sel_.push_back(static_cast<int32_t>(i));
      }
    }
    for (size_t s = 0; s < decode_columns_.size(); ++s) {
      if (decode_to_output_[s] < 0) continue;
      ColumnVector* dst = &output_->column(decode_to_output_[s]);
      if (early_slot_[s]) {
        dst->CopySelected(*dst, sel_.data(), active);
        continue;
      }
      const ColumnSegment& seg = rg.column(decode_columns_[s]);
      switch (PhysicalTypeOf(seg.type())) {
        case PhysicalType::kInt64:
          seg.GatherInt64(rows_.data(), active, dst->mutable_ints());
          break;
        case PhysicalType::kDouble:
          seg.GatherDouble(rows_.data(), active, dst->mutable_doubles());
          break;
        case PhysicalType::kString: {
          uint64_t* codes = dst->mutable_codes();
          seg.GatherCodes(rows_.data(), active, codes);
          seg.CodesToStrings(codes, active, dst->mutable_strings());
          dst->set_dictionary(LaneDictionary(seg));
          break;
        }
      }
      seg.GatherValidity(rows_.data(), active, dst->mutable_validity());
    }
    output_->set_num_rows(active);
    output_->ActivateAll();
  }

  ctx_->stats.rows_scanned += n;
  rows_scanned_ += n;
  // Live progress for sys.active_queries readers.
  if (ctx_->active_query != nullptr) {
    ctx_->active_query->rows_scanned.fetch_add(n, std::memory_order_relaxed);
  }
  offset_ += n;
  if (offset_ >= rg.num_rows()) {
    in_group_ = false;
    ++group_;
  }
  return Status::OK();
}

Result<int64_t> ColumnStoreScanOperator::FillFromDeltas() {
  output_->Reset();
  int64_t out_row = 0;

  while (out_row < ctx_->batch_size) {
    if (!delta_loaded_) {
      if (delta_index_ >= snapshot_->num_delta_stores()) {
        deltas_done_ = true;
        break;
      }
      delta_rows_.clear();
      delta_row_pos_ = 0;
      const DeltaStore& store = snapshot_->delta_store(delta_index_);
      VSTORE_RETURN_IF_ERROR(store.ForEach(
          [this](uint64_t /*rowid*/, const std::vector<Value>& row) {
            delta_rows_.push_back(row);
          }));
      delta_loaded_ = true;
    }

    for (; delta_row_pos_ < static_cast<int64_t>(delta_rows_.size()) &&
           out_row < ctx_->batch_size;
         ++delta_row_pos_) {
      const std::vector<Value>& row =
          delta_rows_[static_cast<size_t>(delta_row_pos_)];
      ++ctx_->stats.delta_rows_scanned;
      ++delta_rows_scanned_;

      if (options_.sample_fraction < 1.0) {
        const uint64_t threshold = static_cast<uint64_t>(
            options_.sample_fraction * 18446744073709551615.0);
        uint64_t h = HashInt64((uint64_t{0xde17a} << 40) ^
                               static_cast<uint64_t>(delta_index_ * 1000003 +
                                                     delta_row_pos_) ^
                               options_.sample_seed);
        if (h > threshold) continue;
      }

      // Row-wise predicate and bloom evaluation for delta rows.
      bool pass = true;
      for (const ScanPredicate& pred : options_.predicates) {
        const Value& v = row[static_cast<size_t>(pred.column)];
        if (v.is_null() ||
            !ApplyCompare(pred.op, CompareValueTo(v, pred.value))) {
          pass = false;
          break;
        }
      }
      if (pass) {
        for (const BloomFilterSpec& spec : options_.bloom_filters) {
          const Value& v = row[static_cast<size_t>(spec.column)];
          if (v.is_null() || !spec.filter->MayContain(HashValue(v))) {
            pass = false;
            ++ctx_->stats.rows_bloom_filtered;
            ++bloom_rows_dropped_;
            break;
          }
        }
      }
      if (!pass) continue;

      for (size_t p = 0; p < options_.projection.size(); ++p) {
        output_->column(static_cast<int>(p))
            .SetValue(out_row, row[static_cast<size_t>(options_.projection[p])],
                      output_->arena());
      }
      ++out_row;
    }

    if (delta_row_pos_ >= static_cast<int64_t>(delta_rows_.size())) {
      delta_loaded_ = false;
      ++delta_index_;
    }
  }

  output_->set_num_rows(out_row);
  output_->ActivateAll();
  return out_row;
}

Result<Batch*> ColumnStoreScanOperator::NextImpl() {
  for (;;) {
    if (in_group_ || AdvanceGroup()) {
      VSTORE_RETURN_IF_ERROR(FillFromGroup());
      if (output_->active_count() > 0) return output_.get();
      continue;  // fully filtered batch; fetch more
    }
    if (!deltas_done_) {
      VSTORE_ASSIGN_OR_RETURN(int64_t produced, FillFromDeltas());
      if (produced > 0) return output_.get();
      continue;
    }
    if (range_ + 1 == ranges_.size()) return static_cast<Batch*>(nullptr);
    StartRange(range_ + 1);
  }
}

}  // namespace vstore
