#include "exec/scan.h"

#include <algorithm>
#include <cstring>

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

// The dictionary a string segment's codes can be handed upward with: the
// shared primary dictionary when the segment has no local one, else null
// (local codes mean nothing outside their row group).
const StringDictionary* LaneDictionary(const ColumnSegment& seg) {
  return seg.local_dictionary() == nullptr ? seg.primary_dictionary()
                                           : nullptr;
}

// The 8-byte buffer a column's codes are unpacked into: a string vector's
// code lane, else its value array, where they are then widened in place.
uint64_t* CodeBuffer(ColumnVector* cv) {
  switch (cv->physical_type()) {
    case PhysicalType::kInt64:
      return reinterpret_cast<uint64_t*>(cv->mutable_ints());
    case PhysicalType::kDouble:
      return reinterpret_cast<uint64_t*>(cv->mutable_doubles());
    case PhysicalType::kString:
      return cv->mutable_codes();
  }
  return nullptr;
}

// Widens codes already unpacked into dst's code buffer (rows [0, n)) to
// values: ints and doubles in place, strings mapped from the code lane,
// which is published when the codes are primary.
void Widen(const ColumnSegment& seg, int64_t n, ColumnVector* dst) {
  switch (PhysicalTypeOf(seg.type())) {
    case PhysicalType::kInt64:
      seg.WidenInt64(n, dst->mutable_ints());
      break;
    case PhysicalType::kDouble:
      seg.WidenDouble(n, dst->mutable_doubles());
      break;
    case PhysicalType::kString:
      seg.CodesToStrings(dst->codes(), n, dst->mutable_strings());
      dst->set_dictionary(LaneDictionary(seg));
      break;
  }
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
  bloom_slot_.assign(decode_columns_.size(), false);
  for (int s : pred_decode_slot_) early_slot_[static_cast<size_t>(s)] = true;
  for (int s : bloom_decode_slot_) {
    early_slot_[static_cast<size_t>(s)] = true;
    bloom_slot_[static_cast<size_t>(s)] = true;
  }
  slot_mode_.assign(decode_columns_.size(), SlotMode::kDecoded);
  slot_ranges_.resize(decode_columns_.size());
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
  // Per Bloom slot, the values of a window's runs (kRuns windows).
  run_values_.clear();
  run_values_.resize(decode_columns_.size());
  for (size_t s = 0; s < decode_columns_.size(); ++s) {
    if (!bloom_slot_[s]) continue;
    run_values_[s] = std::make_unique<ColumnVector>(
        table_->schema().field(decode_columns_[s]).type, ctx_->batch_size);
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
  run_values_.clear();
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
    PlanGroup(rg);
    offset_ = 0;
    in_group_ = true;
    return true;
  }
  return false;
}

void ColumnStoreScanOperator::PlanGroup(const RowGroup& rg) {
  for (size_t s = 0; s < decode_columns_.size(); ++s) {
    slot_mode_[s] = SlotMode::kDecoded;
    std::vector<CodeRange>& ranges = slot_ranges_[s];
    ranges.clear();
    if (!early_slot_[s]) continue;
    const ColumnSegment& seg = rg.column(decode_columns_[s]);
    if (seg.encoding() == EncodingKind::kRle) {
      slot_mode_[s] = SlotMode::kRuns;
      continue;
    }
    // A Bloom filter hashes values, so a bit-packed Bloom column is decoded.
    if (bloom_slot_[s]) continue;
    CodeRange both{0, ~uint64_t{0}, false};
    bool any_positive = false;
    bool exact = true;
    for (size_t p = 0; p < options_.predicates.size(); ++p) {
      if (pred_decode_slot_[p] != static_cast<int>(s)) continue;
      CodeRange range;
      if (!seg.PredicateCodeRange(options_.predicates[p].op,
                                  options_.predicates[p].value, &range)) {
        exact = false;
        break;
      }
      if (range.negate) {
        ranges.push_back(range);
      } else {
        both.lo = std::max(both.lo, range.lo);
        both.hi = std::min(both.hi, range.hi);
        any_positive = true;
      }
    }
    if (!exact) {
      ranges.clear();
      continue;
    }
    if (any_positive) ranges.push_back(both);
    slot_mode_[s] = SlotMode::kCodes;
  }
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

void ColumnStoreScanOperator::ApplyBloom(const BloomFilterSpec& spec,
                                         size_t slot, const ColumnSegment& seg,
                                         const ColumnVector& cv,
                                         Batch* batch) {
  const int64_t n = batch->num_rows();
  uint8_t* active = batch->mutable_active();
  // verdict[i]: row i's value may be in the filter. Single-key hashes, as
  // the hash join computed them when it filled the filter.
  verdict_scratch_.resize(static_cast<size_t>(n) + 8);
  uint8_t* verdict = verdict_scratch_.data();
  hashes_.resize(static_cast<size_t>(n));
  if (slot_mode_[slot] == SlotMode::kRuns) {
    // One probe per run, on its decoded value; the verdict is then fanned
    // over the run's rows 8 bytes at a time (each store may run past the
    // run: the next run, or the slack, takes the excess).
    ColumnVector* values = run_values_[slot].get();
    run_ends_.resize(static_cast<size_t>(n));
    const int64_t runs =
        seg.DecodeRuns(offset_, n, CodeBuffer(values), run_ends_.data());
    Widen(seg, runs, values);
    values->SetAllValid(runs);
    kernels::FillU64(kKeyHashSeed, runs, hashes_.data());
    CombineKeyColumnHashes(*values, nullptr, runs, hashes_.data());
    int64_t i = 0;
    for (int64_t r = 0; r < runs; ++r) {
      const uint64_t word =
          spec.filter->MayContain(hashes_[static_cast<size_t>(r)])
              ? 0x0101010101010101ULL
              : 0;
      for (; i < run_ends_[static_cast<size_t>(r)]; i += 8) {
        std::memcpy(verdict + i, &word, sizeof(word));
      }
      i = run_ends_[static_cast<size_t>(r)];
    }
  } else {
    kernels::FillU64(kKeyHashSeed, n, hashes_.data());
    CombineKeyColumnHashes(cv, active, n, hashes_.data());
    for (int64_t i = 0; i < n; ++i) {
      verdict[i] = active[i] && spec.filter->MayContain(hashes_[i]);
    }
  }
  // Null rows never pass; a run may mix null and non-null rows.
  const uint8_t* valid = cv.validity();
  int64_t dropped = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t keep = active[i] & valid[i] & verdict[i];
    dropped += active[i] - keep;
    active[i] = keep;
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
  uint8_t* active = output_->mutable_active();
  snapshot_->delete_bitmap(group_).DecodeLiveness(offset_, n, active);

  if (options_.sample_fraction < 1.0) {
    // Deterministic Bernoulli sample keyed by (group, row).
    const uint64_t threshold = static_cast<uint64_t>(
        options_.sample_fraction * 18446744073709551615.0);
    for (int64_t i = 0; i < n; ++i) {
      uint64_t h = HashInt64((static_cast<uint64_t>(group_) << 40) ^
                             static_cast<uint64_t>(offset_ + i) ^
                             options_.sample_seed);
      active[i] &= h <= threshold ? 1 : 0;
    }
  }

  // Phase 1: decide the predicates and bitmap filters, and only then
  // materialize the remaining projected columns for surviving rows (lazy
  // materialization — the same trick that makes the paper's pushed bitmap
  // filters pay off in the scan). A column decided on its codes is
  // unpacked here and widened in phase 2 like a late column.
  auto slot_dst = [&](size_t s) {
    return decode_to_output_[s] >= 0 ? &output_->column(decode_to_output_[s])
                                     : scratch_[s].get();
  };
  auto unpack = [&](size_t s) {
    const ColumnSegment& seg = rg.column(decode_columns_[s]);
    ColumnVector* dst = slot_dst(s);
    seg.DecodeCodes(offset_, n, CodeBuffer(dst));
    seg.DecodeValidity(offset_, n, dst->mutable_validity());
  };
  auto widen = [&](size_t s) {
    Widen(rg.column(decode_columns_[s]), n, slot_dst(s));
  };

  for (size_t s = 0; s < decode_columns_.size(); ++s) {
    if (!early_slot_[s]) continue;
    switch (slot_mode_[s]) {
      case SlotMode::kDecoded:
        unpack(s);
        widen(s);
        break;
      case SlotMode::kCodes: {
        unpack(s);
        ColumnVector* dst = slot_dst(s);
        const uint64_t* codes = CodeBuffer(dst);
        for (const CodeRange& r : slot_ranges_[s]) {
          kernels::AndCodeRange(codes, dst->validity(), r.lo, r.hi, r.negate,
                                n, active);
        }
        break;
      }
      case SlotMode::kRuns: {
        // Each predicate is decided once per run and its verdict fanned
        // over the run's rows: O(runs), never decoding the run bodies. The
        // validity stays in the slot's vector for its Bloom filters.
        const ColumnSegment& seg = rg.column(decode_columns_[s]);
        uint8_t* valid = slot_dst(s)->mutable_validity();
        seg.DecodeValidity(offset_, n, valid);
        verdict_scratch_.resize(static_cast<size_t>(n));
        for (size_t p = 0; p < options_.predicates.size(); ++p) {
          if (pred_decode_slot_[p] != static_cast<int>(s)) continue;
          seg.EvalPredicateOnRuns(options_.predicates[p].op,
                                  options_.predicates[p].value, offset_, n,
                                  verdict_scratch_.data());
          for (int64_t i = 0; i < n; ++i) {
            active[i] &= valid[i] & verdict_scratch_[i];
          }
        }
        break;
      }
    }
  }

  // Predicates on decoded columns, then bitmap filters.
  for (size_t p = 0; p < options_.predicates.size(); ++p) {
    size_t slot = static_cast<size_t>(pred_decode_slot_[p]);
    if (slot_mode_[slot] != SlotMode::kDecoded) continue;
    ApplyPredicate(options_.predicates[p], *slot_dst(slot), output_.get());
  }
  for (size_t b = 0; b < options_.bloom_filters.size(); ++b) {
    const size_t slot = static_cast<size_t>(bloom_decode_slot_[b]);
    ApplyBloom(options_.bloom_filters[b], slot,
               rg.column(decode_columns_[slot]), *slot_dst(slot),
               output_.get());
  }
  output_->RecountActive();

  // Phase 2: remaining projected columns.
  const int64_t survivors = output_->active_count();
  if (survivors == n || survivors > n - n / 4) {
    // Dense window: bulk decode is cheaper than gathering; the batch keeps
    // its width and its mask. Late columns and projected run columns are
    // decoded here, columns decided on codes widened.
    for (size_t s = 0; s < decode_columns_.size(); ++s) {
      if (decode_to_output_[s] < 0) continue;
      if (!early_slot_[s] || slot_mode_[s] == SlotMode::kRuns) {
        unpack(s);
        widen(s);
      } else if (slot_mode_[s] == SlotMode::kCodes) {
        widen(s);
      }
    }
  } else if (survivors > 0) {
    // Sparse window: emit a compact batch of the survivors, so operators
    // above work per surviving row. Late columns and those decided on
    // codes or runs are gathered straight into rows [0, survivors);
    // decoded early projected columns (bit-packed predicate or Bloom
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
      if (early_slot_[s] && slot_mode_[s] == SlotMode::kDecoded) {
        dst->CopySelected(*dst, sel_.data(), survivors);
        continue;
      }
      const ColumnSegment& seg = rg.column(decode_columns_[s]);
      switch (PhysicalTypeOf(seg.type())) {
        case PhysicalType::kInt64:
          seg.GatherInt64(rows_.data(), survivors, dst->mutable_ints());
          break;
        case PhysicalType::kDouble:
          seg.GatherDouble(rows_.data(), survivors, dst->mutable_doubles());
          break;
        case PhysicalType::kString: {
          uint64_t* codes = dst->mutable_codes();
          seg.GatherCodes(rows_.data(), survivors, codes);
          seg.CodesToStrings(codes, survivors, dst->mutable_strings());
          dst->set_dictionary(LaneDictionary(seg));
          break;
        }
      }
      seg.GatherValidity(rows_.data(), survivors, dst->mutable_validity());
    }
    output_->set_num_rows(survivors);
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
