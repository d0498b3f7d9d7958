#include "exec/hash_aggregate.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "storage/dictionary.h"

namespace vstore {

namespace {

// Internal accumulator representation chosen per aggregate.
enum class StateKind { kSumInt, kSumDouble, kMinMaxInt, kMinMaxDouble,
                       kMinMaxString, kCountOnly };

StateKind StateKindFor(AggFn fn, DataType input) {
  switch (fn) {
    case AggFn::kCount:
    case AggFn::kCountStar:
      return StateKind::kCountOnly;
    case AggFn::kAvg:
      return StateKind::kSumDouble;
    case AggFn::kSum:
      return input == DataType::kDouble ? StateKind::kSumDouble
                                        : StateKind::kSumInt;
    case AggFn::kMin:
    case AggFn::kMax:
      switch (PhysicalTypeOf(input)) {
        case PhysicalType::kString:
          return StateKind::kMinMaxString;
        case PhysicalType::kDouble:
          return StateKind::kMinMaxDouble;
        case PhysicalType::kInt64:
          return StateKind::kMinMaxInt;
      }
  }
  return StateKind::kCountOnly;
}

// The typed $value column for a partial aggregate. Min/max keep the
// original logical type so the final stage preserves it (e.g. DATE32).
DataType PartialValueType(AggFn fn, DataType input) {
  switch (StateKindFor(fn, input)) {
    case StateKind::kSumDouble:
    case StateKind::kMinMaxDouble:
      return DataType::kDouble;
    case StateKind::kMinMaxString:
      return DataType::kString;
    case StateKind::kMinMaxInt:
      return input;
    default:
      return DataType::kInt64;
  }
}

struct StateRef {
  uint8_t* base;
  int64_t& acc_i() { return *reinterpret_cast<int64_t*>(base); }
  double& acc_d() { return *reinterpret_cast<double*>(base); }
  uint64_t& aux() { return *reinterpret_cast<uint64_t*>(base + 8); }
  int64_t& count() { return *reinterpret_cast<int64_t*>(base + 16); }
};

// Accumulator values folded in registers across a run of rows.
template <typename T>
T LoadAcc(StateRef s);
template <>
int64_t LoadAcc<int64_t>(StateRef s) {
  return s.acc_i();
}
template <>
double LoadAcc<double>(StateRef s) {
  return s.acc_d();
}
template <>
std::string_view LoadAcc<std::string_view>(StateRef s) {
  return std::string_view(reinterpret_cast<const char*>(s.acc_i()), s.aux());
}

void StoreAcc(StateRef s, int64_t v, Arena*) { s.acc_i() = v; }
void StoreAcc(StateRef s, double v, Arena*) { s.acc_d() = v; }
// A string that changed points into the input batch: copy it into the
// state arena, which outlives the batch.
void StoreAcc(StateRef s, std::string_view v, Arena* arena) {
  if (v.data() == reinterpret_cast<const char*>(s.acc_i())) return;
  std::string_view stable = arena->CopyString(v);
  s.acc_i() = reinterpret_cast<int64_t>(stable.data());
  s.aux() = stable.size();
}

// Min/max of one value into `acc`; `count` is the values folded so far.
template <typename T>
void FoldMinMax(bool is_min, T v, int64_t count, T* acc) {
  if (count == 0 || (is_min ? v < *acc : v > *acc)) *acc = v;
}

}  // namespace

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "SUM";
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kCountStar:
      return "COUNT(*)";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kAvg:
      return "AVG";
  }
  return "?";
}

DataType AggOutputType(AggFn fn, DataType input) {
  switch (fn) {
    case AggFn::kCount:
    case AggFn::kCountStar:
      return DataType::kInt64;
    case AggFn::kAvg:
      return DataType::kDouble;
    case AggFn::kSum:
      return input == DataType::kDouble ? DataType::kDouble
                                        : DataType::kInt64;
    case AggFn::kMin:
    case AggFn::kMax:
      return input;
  }
  return DataType::kInt64;
}

Schema HashAggregateOperator::PartialSchema(
    const Schema& input, const std::vector<int>& group_by,
    const std::vector<AggSpec>& aggregates) {
  std::vector<Field> fields;
  for (int k : group_by) fields.push_back(input.field(k));
  for (const AggSpec& spec : aggregates) {
    DataType input_type = spec.column >= 0 ? input.field(spec.column).type
                                           : DataType::kInt64;
    fields.push_back(
        Field{spec.name + "$value", PartialValueType(spec.fn, input_type),
              true});
    fields.push_back(Field{spec.name + "$count", DataType::kInt64, false});
  }
  return Schema(std::move(fields));
}

HashAggregateOperator::HashAggregateOperator(BatchOperatorPtr input,
                                             Options options, ExecContext* ctx)
    : input_(std::move(input)), options_(std::move(options)), ctx_(ctx) {
  const Schema& in = input_->output_schema();
  const size_t num_keys = options_.group_by.size();
  const size_t num_aggs = options_.aggregates.size();

  std::vector<Field> key_fields, out_fields;
  for (int k : options_.group_by) {
    key_fields.push_back(in.field(k));
    out_fields.push_back(in.field(k));
    key_indices_.push_back(static_cast<int>(key_indices_.size()));
  }

  if (options_.phase == AggPhase::kFinal) {
    // Input is a partial schema: keys at 0..k-1, (value, count) pairs after.
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggSpec& spec = options_.aggregates[a];
      int value_col = static_cast<int>(num_keys + 2 * a);
      VSTORE_CHECK(spec.column == value_col);
      DataType value_type = in.field(value_col).type;
      out_fields.push_back(
          Field{spec.name, AggOutputType(spec.fn, value_type), true});
      state_kinds_.push_back(
          static_cast<uint8_t>(StateKindFor(spec.fn, value_type)));
    }
    partial_schema_ = in;  // spills reuse the incoming layout
  } else {
    for (const AggSpec& spec : options_.aggregates) {
      DataType input_type = spec.column >= 0 ? in.field(spec.column).type
                                             : DataType::kInt64;
      out_fields.push_back(
          Field{spec.name, AggOutputType(spec.fn, input_type), true});
      state_kinds_.push_back(
          static_cast<uint8_t>(StateKindFor(spec.fn, input_type)));
    }
    partial_schema_ =
        PartialSchema(in, options_.group_by, options_.aggregates);
  }

  key_schema_ = Schema(std::move(key_fields));
  output_schema_ = options_.phase == AggPhase::kPartial
                       ? partial_schema_
                       : Schema(std::move(out_fields));
  key_format_ = std::make_unique<RowFormat>(key_schema_);
  if (ctx_ != nullptr && ctx_->memory_tracker != nullptr) {
    mem_ = std::make_unique<MemoryTracker>(name(), "operator",
                                           ctx_->memory_tracker);
    pressure_listener_ = ctx_->memory_tracker->AddPressureListener(
        [this] { pressure_.store(true, std::memory_order_relaxed); });
  }
  code_slots_reservation_.Reset(mem_.get());
  write_buf_.SetMemoryTracker(mem_.get());
  read_buf_.SetMemoryTracker(mem_.get());
}

HashAggregateOperator::~HashAggregateOperator() {
  Close();
  if (pressure_listener_ != 0) {
    ctx_->memory_tracker->RemovePressureListener(pressure_listener_);
  }
}

void HashAggregateOperator::ResetAggState(int64_t expected_rows) {
  std::fill(code_slots_.begin(), code_slots_.end(), nullptr);
  table_.reset();
  arena_ = std::make_unique<Arena>();
  arena_->SetMemoryTracker(mem_.get());
  table_ = std::make_unique<GroupHashTable>(arena_.get(), payload_size(),
                                            expected_rows);
  table_->SetMemoryTracker(mem_.get());
}

bool HashAggregateOperator::UnderMemoryPressure(int64_t local_budget) const {
  if (local_budget > 0 &&
      static_cast<int64_t>(arena_->bytes_allocated()) > local_budget) {
    return true;
  }
  MemoryTracker* query = ctx_ != nullptr ? ctx_->memory_tracker : nullptr;
  if (query == nullptr) return false;
  if (pressure_.exchange(false, std::memory_order_relaxed)) return true;
  return query->over_budget();
}

std::string HashAggregateOperator::name() const {
  switch (options_.phase) {
    case AggPhase::kComplete:
      return "HashAggregate";
    case AggPhase::kPartial:
      return "HashAggregate(partial)";
    case AggPhase::kFinal:
      return "HashAggregate(final)";
  }
  return "HashAggregate";
}

void HashAggregateOperator::AppendProfileCounters(
    OperatorProfile* node) const {
  node->counters.push_back({"rows_aggregated", rows_aggregated_});
  node->counters.push_back({"rows_code_grouped", rows_code_grouped_});
  node->counters.push_back({"groups", groups_});
  if (spill_flushes_ > 0) {
    node->counters.push_back({"spill_flushes", spill_flushes_});
    node->counters.push_back({"rows_spilled", rows_spilled_});
  }
}

void HashAggregateOperator::InitState(uint8_t* state) const {
  std::memset(state, 0, kStateSlot * options_.aggregates.size());
}

template <typename T, typename Weight, typename Fold>
void HashAggregateOperator::FoldRuns(size_t agg, Weight weight,
                                     Fold fold) {
  const int32_t* rows = order_.data();
  const size_t off = agg * kStateSlot;
  int32_t begin = 0;
  for (const GroupRun& run : runs_) {
    StateRef s{run.state + off};
    T acc = LoadAcc<T>(s);
    int64_t count = s.count();
    for (int32_t k = begin; k < run.end; ++k) {
      const int32_t i = rows[k];
      const int64_t w = weight(i);
      if (w == 0) continue;
      fold(i, count, &acc);
      count += w;
    }
    StoreAcc(s, acc, arena_.get());
    s.count() = count;
    begin = run.end;
  }
}

template <typename Weight>
void HashAggregateOperator::FoldAggregate(size_t agg,
                                          const ColumnVector* values,
                                          Weight weight) {
  const bool is_min = options_.aggregates[agg].fn == AggFn::kMin;
  switch (static_cast<StateKind>(state_kinds_[agg])) {
    case StateKind::kCountOnly:
      FoldRuns<int64_t>(agg, weight, [](int32_t, int64_t, int64_t*) {});
      break;
    case StateKind::kSumInt: {
      const int64_t* v = values->ints();
      FoldRuns<int64_t>(agg, weight, [v](int32_t i, int64_t, int64_t* acc) {
        *acc += v[i];
      });
      break;
    }
    case StateKind::kSumDouble:
      if (values->physical_type() == PhysicalType::kDouble) {
        const double* v = values->doubles();
        FoldRuns<double>(agg, weight, [v](int32_t i, int64_t, double* acc) {
          *acc += v[i];
        });
      } else {
        const int64_t* v = values->ints();
        FoldRuns<double>(agg, weight, [v](int32_t i, int64_t, double* acc) {
          *acc += static_cast<double>(v[i]);
        });
      }
      break;
    case StateKind::kMinMaxInt: {
      const int64_t* v = values->ints();
      FoldRuns<int64_t>(agg, weight,
                        [v, is_min](int32_t i, int64_t count, int64_t* acc) {
                          FoldMinMax(is_min, v[i], count, acc);
                        });
      break;
    }
    case StateKind::kMinMaxDouble: {
      const double* v = values->doubles();
      FoldRuns<double>(agg, weight,
                       [v, is_min](int32_t i, int64_t count, double* acc) {
                         FoldMinMax(is_min, v[i], count, acc);
                       });
      break;
    }
    case StateKind::kMinMaxString: {
      const std::string_view* v = values->strings();
      FoldRuns<std::string_view>(
          agg, weight,
          [v, is_min](int32_t i, int64_t count, std::string_view* acc) {
            FoldMinMax(is_min, v[i], count, acc);
          });
      break;
    }
  }
}

void HashAggregateOperator::FoldBatch(const Batch& batch, bool partial_input) {
  const int num_keys = static_cast<int>(key_indices_.size());
  for (size_t a = 0; a < options_.aggregates.size(); ++a) {
    if (partial_input) {
      // (value, count) pairs: each row carries `count` input values.
      const int value_col = num_keys + 2 * static_cast<int>(a);
      const int64_t* counts = batch.column(value_col + 1).ints();
      FoldAggregate(a, &batch.column(value_col),
                    [counts](int32_t i) { return counts[i]; });
    } else if (options_.aggregates[a].fn == AggFn::kCountStar) {
      FoldAggregate(a, nullptr, [](int32_t) { return int64_t{1}; });
    } else {
      const ColumnVector& values = batch.column(options_.aggregates[a].column);
      const uint8_t* valid = values.validity();
      FoldAggregate(a, &values,
                    [valid](int32_t i) { return int64_t{valid[i]}; });
    }
  }
}

uint8_t* HashAggregateOperator::GroupState(int64_t i, uint64_t hash) {
  uint8_t* payload = table_->FindOrInsert(
      hash,
      [this, i](const uint8_t* keys) {
        return batch_keys_.GroupKeysEqual(keys, i);
      },
      [this, i](uint8_t* keys) {
        batch_keys_.Write(keys, i, arena_.get());
        InitState(payload_state(keys));
      });
  return payload_state(payload);
}

bool HashAggregateOperator::PrepareCodeCache(
    const Batch& batch, const std::vector<int>& key_cols) {
  lane_keys_.clear();
  int64_t slots = 1;
  for (int c : key_cols) {
    const StringDictionary* dict = batch.column(c).dictionary();
    if (dict == nullptr) return false;
    const int64_t domain = dict->size() + 1;  // + the null slot
    if (domain > kMaxCodeSlots / slots) return false;
    slots *= domain;
    lane_keys_.emplace_back(dict, domain);
  }
  if (code_slots_.empty() || lane_keys_ != code_keys_) {
    code_keys_.swap(lane_keys_);
    code_slots_.assign(static_cast<size_t>(slots), nullptr);
    slot_runs_.assign(static_cast<size_t>(slots), -1);
    code_slots_reservation_.Set(
        slots * static_cast<int64_t>(sizeof(uint8_t*) + sizeof(int32_t)));
  }
  return true;
}

void HashAggregateOperator::ResolveGroups(const Batch& batch,
                                          const std::vector<int>& key_cols) {
  const int64_t n = batch.num_rows();
  const uint8_t* active = batch.active();
  order_.clear();
  for (int64_t i = 0; i < n; ++i) {
    if (active[i]) order_.push_back(static_cast<int32_t>(i));
  }
  const size_t m = order_.size();
  runs_.clear();
  batch_keys_.Reset(*key_format_, key_indices_, batch, key_cols);

  if (PrepareCodeCache(batch, key_cols)) {
    // Pack the key codes into one index: code + 1 per key (0 = null),
    // mixed-radix over the key domains.
    slot_ids_.assign(m, 0);
    uint64_t stride = 1;
    for (size_t k = 0; k < key_cols.size(); ++k) {
      const ColumnVector& cv = batch.column(key_cols[k]);
      const uint64_t* codes = cv.codes();
      const uint8_t* valid = cv.validity();
      for (size_t j = 0; j < m; ++j) {
        const int32_t i = order_[j];
        VSTORE_DCHECK(!valid[i] || static_cast<int64_t>(codes[i]) <
                                       code_keys_[k].second - 1);
        slot_ids_[j] += (codes[i] + 1) * valid[i] * stride;
      }
      stride *= static_cast<uint64_t>(code_keys_[k].second);
    }
    // One run per group of the batch, in first-seen order; slot_ids_[j]
    // becomes row j's run. Run ends count the rows first.
    for (size_t j = 0; j < m; ++j) {
      const uint64_t slot = slot_ids_[j];
      int32_t& run = slot_runs_[slot];
      if (run < 0) {
        uint8_t*& state = code_slots_[slot];
        if (state == nullptr) {
          state = GroupState(order_[j], key_format_->HashKeysFromBatch(
                                            batch, order_[j], key_cols));
        }
        run = static_cast<int32_t>(runs_.size());
        runs_.push_back(GroupRun{state, 0, slot});
      }
      slot_ids_[j] = static_cast<uint64_t>(run);
      ++runs_[static_cast<size_t>(run)].end;
    }
    for (const GroupRun& run : runs_) slot_runs_[run.slot] = -1;
    if (!key_cols.empty()) rows_code_grouped_ += static_cast<int64_t>(m);
    if (runs_.size() <= 1) return;  // one group: the rows are one run
    // Stable counting sort of the rows by run: each group's rows stay in
    // input order, which keeps every accumulator's fold order.
    int32_t begin = 0;
    for (GroupRun& run : runs_) {
      const int32_t rows = run.end;
      run.end = begin;
      begin += rows;
    }
    sorted_.resize(m);
    for (size_t j = 0; j < m; ++j) {
      sorted_[static_cast<size_t>(runs_[slot_ids_[j]].end++)] = order_[j];
    }
    order_.swap(sorted_);
    return;
  }

  // Hash path: rows keep their order; consecutive rows of one group (e.g.
  // clustered keys) share a run.
  hashes_.resize(static_cast<size_t>(n));
  HashKeysBatch(batch, key_cols, active, hashes_.data());
  for (size_t j = 0; j < m; ++j) {
    const int32_t i = order_[j];
    uint8_t* state = GroupState(i, hashes_[static_cast<size_t>(i)]);
    if (runs_.empty() || runs_.back().state != state) {
      runs_.push_back(GroupRun{state, 0, 0});
    }
    runs_.back().end = static_cast<int32_t>(j + 1);
  }
}

void HashAggregateOperator::ConsumeBatch(const Batch& batch,
                                         const std::vector<int>& key_cols,
                                         bool partial_input) {
  ResolveGroups(batch, key_cols);
  FoldBatch(batch, partial_input);
}

void HashAggregateOperator::WritePartialRow(uint8_t* entry, Batch* out,
                                            int64_t row,
                                            Arena* string_arena) const {
  uint8_t* payload = GroupHashTable::EntryPayload(entry);
  const int num_keys = static_cast<int>(key_indices_.size());
  for (int k = 0; k < num_keys; ++k) {
    key_format_->CopyToVector(payload, k, &out->column(k), row, string_arena);
  }
  uint8_t* state = payload_state(payload);
  for (size_t a = 0; a < options_.aggregates.size(); ++a) {
    StateRef s{state + a * kStateSlot};
    const int value_col = num_keys + 2 * static_cast<int>(a);
    ColumnVector& value = out->column(value_col);
    ColumnVector& count = out->column(value_col + 1);
    count.mutable_validity()[row] = 1;
    count.mutable_ints()[row] = s.count();
    const StateKind kind = static_cast<StateKind>(state_kinds_[a]);
    const bool has_value = s.count() != 0 && kind != StateKind::kCountOnly;
    value.mutable_validity()[row] = has_value ? 1 : 0;
    if (!has_value) continue;
    switch (kind) {
      case StateKind::kSumInt:
      case StateKind::kMinMaxInt:
        value.mutable_ints()[row] = s.acc_i();
        break;
      case StateKind::kSumDouble:
      case StateKind::kMinMaxDouble:
        value.mutable_doubles()[row] = s.acc_d();
        break;
      case StateKind::kMinMaxString: {
        const std::string_view acc = LoadAcc<std::string_view>(s);
        value.mutable_strings()[row] =
            string_arena != nullptr ? string_arena->CopyString(acc) : acc;
        break;
      }
      case StateKind::kCountOnly:
        break;
    }
  }
}

Status HashAggregateOperator::FlushToPartitions() {
  if (partition_files_.empty()) {
    partition_files_.resize(static_cast<size_t>(options_.num_partitions));
    for (SpillFile& f : partition_files_) {
      VSTORE_RETURN_IF_ERROR(f.Open(ctx_->batch_size));
    }
    spill_sel_.assign(static_cast<size_t>(options_.num_partitions), {});
    spill_batch_ = std::make_unique<Batch>(partial_schema_, ctx_->batch_size);
    ctx_->stats.spill_partitions += options_.num_partitions;
  }
  ++spill_flushes_;
  const int shift =
      64 - std::countr_zero(static_cast<unsigned>(options_.num_partitions));

  // Groups go out a batch-full at a time, in entry order: the batch's rows
  // of each partition become one record of that partition's file.
  Batch& batch = *spill_batch_;
  const std::vector<uint8_t*>& entries = table_->entries();
  const int64_t total = table_->size();
  for (int64_t begin = 0; begin < total; begin += batch.capacity()) {
    const int64_t n = std::min(batch.capacity(), total - begin);
    batch.Reset();
    for (int64_t i = 0; i < n; ++i) {
      uint8_t* entry = entries[static_cast<size_t>(begin + i)];
      // Strings view the state arena, which outlives the write.
      WritePartialRow(entry, &batch, i, nullptr);
      const int p = static_cast<int>(GroupHashTable::EntryHash(entry) >> shift);
      spill_sel_[static_cast<size_t>(p)].push_back(static_cast<int32_t>(i));
    }
    batch.set_num_rows(n);
    for (int p = 0; p < options_.num_partitions; ++p) {
      std::vector<int32_t>& sel = spill_sel_[static_cast<size_t>(p)];
      if (sel.empty()) continue;
      VSTORE_ASSIGN_OR_RETURN(
          int64_t bytes,
          partition_files_[static_cast<size_t>(p)].Append(
              batch, sel.data(), static_cast<int64_t>(sel.size()),
              &write_buf_));
      RecordSpillBytes(bytes);
      AddGlobalSpillBytes(bytes);
      sel.clear();
    }
  }
  ctx_->stats.build_rows_spilled += total;
  rows_spilled_ += total;
  // Hold the write buffer only while flushing, so it does not count
  // against the budget that decides the next flush.
  write_buf_.Release();
  ResetAggState(1024);
  spilled_ = true;
  return Status::OK();
}

Status HashAggregateOperator::ConsumeInput() {
  VSTORE_RETURN_IF_ERROR(input_->Open());
  const int64_t budget = ctx_->operator_memory_budget;
  const bool partial_input = options_.phase == AggPhase::kFinal;
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(Batch * batch, input_->Next());
    if (batch == nullptr) break;
    ConsumeBatch(*batch, options_.group_by, partial_input);
    rows_aggregated_ += static_cast<int64_t>(order_.size());
    // Budget and peak checks once per batch.
    RecordPeakMemory(static_cast<int64_t>(arena_->bytes_allocated()));
    if (table_->size() > 0 && UnderMemoryPressure(budget)) {
      VSTORE_RETURN_IF_ERROR(FlushToPartitions());
    }
  }
  input_->Close();
  if (spilled_ && table_->size() > 0) {
    VSTORE_RETURN_IF_ERROR(FlushToPartitions());
  }
  return Status::OK();
}

Status HashAggregateOperator::LoadPartition(int p) {
  SpillFile& file = partition_files_[static_cast<size_t>(p)];
  VSTORE_RETURN_IF_ERROR(file.Rewind());
  for (;;) {
    // Each record is a batch of partial rows: merge it like partial input.
    // Its strings view read_buf_; new groups and min/max states copy them.
    VSTORE_ASSIGN_OR_RETURN(bool more,
                            file.Read(spill_batch_.get(), &read_buf_));
    if (!more) return Status::OK();
    ConsumeBatch(*spill_batch_, key_indices_, /*partial_input=*/true);
  }
}

Status HashAggregateOperator::EmitEntries() {
  output_->Reset();
  const int num_keys = static_cast<int>(key_indices_.size());
  const bool emit_partial = options_.phase == AggPhase::kPartial;
  int64_t out_row = 0;
  const std::vector<uint8_t*>& entries = table_->entries();
  while (emit_pos_ < entries.size() && out_row < output_->capacity()) {
    uint8_t* entry = entries[emit_pos_++];
    ++groups_;
    if (emit_partial) {
      WritePartialRow(entry, output_.get(), out_row++, output_->arena());
      continue;
    }
    uint8_t* payload = GroupHashTable::EntryPayload(entry);
    for (int k = 0; k < num_keys; ++k) {
      key_format_->CopyToVector(payload, k, &output_->column(k), out_row,
                                output_->arena());
    }
    uint8_t* state = payload_state(payload);

    for (size_t a = 0; a < options_.aggregates.size(); ++a) {
      const AggSpec& spec = options_.aggregates[a];
      StateRef s{state + a * kStateSlot};
      ColumnVector& dst = output_->column(num_keys + static_cast<int>(a));
      StateKind kind = static_cast<StateKind>(state_kinds_[a]);

      if (spec.fn == AggFn::kCount || spec.fn == AggFn::kCountStar) {
        dst.mutable_validity()[out_row] = 1;
        dst.mutable_ints()[out_row] = s.count();
        continue;
      }
      if (s.count() == 0) {  // aggregate over all-null input
        dst.mutable_validity()[out_row] = 0;
        continue;
      }
      dst.mutable_validity()[out_row] = 1;
      switch (spec.fn) {
        case AggFn::kAvg:
          dst.mutable_doubles()[out_row] =
              s.acc_d() / static_cast<double>(s.count());
          break;
        case AggFn::kSum:
          if (kind == StateKind::kSumDouble) {
            dst.mutable_doubles()[out_row] = s.acc_d();
          } else {
            dst.mutable_ints()[out_row] = s.acc_i();
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          switch (kind) {
            case StateKind::kMinMaxInt:
              dst.mutable_ints()[out_row] = s.acc_i();
              break;
            case StateKind::kMinMaxDouble:
              dst.mutable_doubles()[out_row] = s.acc_d();
              break;
            case StateKind::kMinMaxString:
              dst.mutable_strings()[out_row] = output_->arena()->CopyString(
                  std::string_view(reinterpret_cast<const char*>(s.acc_i()),
                                   s.aux()));
              break;
            default:
              break;
          }
          break;
        default:
          break;
      }
    }
    ++out_row;
  }
  output_->set_num_rows(out_row);
  output_->ActivateAll();
  return Status::OK();
}

Status HashAggregateOperator::OpenImpl() {
  ResetAggState(1024);
  if (mem_ != nullptr) mem_->ResetPeak();
  pressure_.store(false, std::memory_order_relaxed);
  spilled_ = false;
  rows_aggregated_ = 0;
  rows_code_grouped_ = 0;
  groups_ = 0;
  spill_flushes_ = 0;
  rows_spilled_ = 0;
  emit_pos_ = 0;
  drain_partition_ = 0;
  done_ = false;
  output_ = std::make_unique<Batch>(output_schema_, ctx_->batch_size);
  VSTORE_RETURN_IF_ERROR(ConsumeInput());
  if (!spilled_ && options_.phase != AggPhase::kPartial &&
      key_indices_.empty() && table_->size() == 0) {
    // Scalar aggregation over zero rows still yields one row (COUNT = 0,
    // other aggregates null): the group of the empty key, whose hash is
    // the seed.
    table_->FindOrInsert(
        kKeyHashSeed, [](const uint8_t*) { return true; },
        [this](uint8_t* payload) { InitState(payload_state(payload)); });
  }
  return Status::OK();
}

Result<Batch*> HashAggregateOperator::NextImpl() {
  if (done_) return static_cast<Batch*>(nullptr);
  for (;;) {
    if (emit_pos_ < table_->entries().size()) {
      VSTORE_RETURN_IF_ERROR(EmitEntries());
      if (output_->num_rows() > 0) return output_.get();
    }
    if (!spilled_) {
      done_ = true;
      return static_cast<Batch*>(nullptr);
    }
    if (drain_partition_ >= options_.num_partitions) {
      done_ = true;
      return static_cast<Batch*>(nullptr);
    }
    // Merge the next spilled partition and emit it.
    ResetAggState(1024);
    emit_pos_ = 0;
    VSTORE_RETURN_IF_ERROR(LoadPartition(drain_partition_));
    ++drain_partition_;
  }
}

void HashAggregateOperator::CloseImpl() {
  RecordMemoryTracker(mem_.get());
  partition_files_.clear();  // closes the spill files
  spill_sel_.clear();
  write_buf_.Release();
  read_buf_.Release();
  code_slots_.clear();
  slot_runs_.clear();
  code_keys_.clear();
  code_slots_reservation_.Clear();
  table_.reset();
  arena_.reset();
  output_.reset();
  spill_batch_.reset();
}

}  // namespace vstore
