#include "exec/hash_join.h"

#include <algorithm>
#include <bit>

#include "common/macros.h"
#include "common/metrics.h"

namespace vstore {

const char* JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "Inner";
    case JoinType::kLeftOuter:
      return "LeftOuter";
    case JoinType::kLeftSemi:
      return "LeftSemi";
    case JoinType::kLeftAnti:
      return "LeftAnti";
  }
  return "?";
}

Schema HashJoinOutputSchema(const Schema& probe, const Schema& build,
                            JoinType type) {
  std::vector<Field> fields = probe.fields();
  if (JoinEmitsBuildColumns(type)) {
    for (const Field& f : build.fields()) {
      Field nf = f;
      nf.nullable = true;  // null-extended under outer joins
      fields.push_back(nf);
    }
  }
  return Schema(std::move(fields));
}

void JoinProber::Start(const Batch* batch) {
  batch_ = batch;
  row_ = 0;
  chain_ = nullptr;
  matched_ = false;
  hashes_.resize(static_cast<size_t>(batch->num_rows()));
  HashKeysBatch(*batch, *probe_keys_, batch->active(), hashes_.data());
}

void JoinProber::Emit(Batch* output, const Batch& probe, int64_t row,
                      const uint8_t* build_row, int64_t out_row) const {
  const int probe_cols = probe.num_columns();
  for (int c = 0; c < probe_cols; ++c) {
    const ColumnVector& src = probe.column(c);
    ColumnVector& dst = output->column(c);
    dst.mutable_validity()[out_row] = src.validity()[row];
    switch (src.physical_type()) {
      case PhysicalType::kInt64:
        dst.mutable_ints()[out_row] = src.ints()[row];
        break;
      case PhysicalType::kDouble:
        dst.mutable_doubles()[out_row] = src.doubles()[row];
        break;
      case PhysicalType::kString:
        // Probe batches (input batches and records read back from spill
        // files) are reused while this output accumulates rows from
        // several of them — copy.
        dst.mutable_strings()[out_row] =
            output->arena()->CopyString(src.strings()[row]);
        break;
    }
  }
  if (!emit_build_columns_) return;
  const int build_cols = build_format_->num_columns();
  for (int c = 0; c < build_cols; ++c) {
    ColumnVector& dst = output->column(probe_cols + c);
    if (build_row == nullptr) {
      dst.mutable_validity()[out_row] = 0;
    } else {
      build_format_->CopyToVector(build_row, c, &dst, out_row,
                                  output->arena());
    }
  }
}

HashJoinOperator::HashJoinOperator(BatchOperatorPtr probe,
                                   BatchOperatorPtr build, Options options,
                                   ExecContext* ctx)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      options_(std::move(options)),
      ctx_(ctx),
      build_format_(build_->output_schema()),
      prober_(options_.join_type, &build_format_, &options_.build_keys,
              &options_.probe_keys) {
  VSTORE_CHECK(!options_.probe_keys.empty() &&
               options_.probe_keys.size() == options_.build_keys.size());
  VSTORE_CHECK(std::has_single_bit(
      static_cast<unsigned>(options_.num_partitions)));
  // Bloom pushdown must not hide probe rows from outer/anti joins.
  if (options_.bloom_target != nullptr) {
    VSTORE_CHECK(options_.join_type == JoinType::kInner ||
                 options_.join_type == JoinType::kLeftSemi);
    bloom_ = options_.bloom_target;
  }
  output_schema_ = HashJoinOutputSchema(
      probe_->output_schema(), build_->output_schema(), options_.join_type);
  partition_shift_ =
      64 - std::countr_zero(static_cast<unsigned>(options_.num_partitions));
  if (ctx_ != nullptr && ctx_->memory_tracker != nullptr) {
    mem_ = std::make_unique<MemoryTracker>(name(), "operator",
                                           ctx_->memory_tracker);
    pressure_listener_ = ctx_->memory_tracker->AddPressureListener(
        [this] { pressure_.store(true, std::memory_order_relaxed); });
  }
  write_buf_.SetMemoryTracker(mem_.get());
  read_buf_.SetMemoryTracker(mem_.get());
}

HashJoinOperator::~HashJoinOperator() {
  Close();
  if (pressure_listener_ != 0) {
    ctx_->memory_tracker->RemovePressureListener(pressure_listener_);
  }
}

Status HashJoinOperator::SpillRecord(SpillFile* file, const Batch& batch,
                                     const int32_t* sel, int64_t n) {
  VSTORE_ASSIGN_OR_RETURN(int64_t bytes,
                          file->Append(batch, sel, n, &write_buf_));
  RecordSpillBytes(bytes);
  AddGlobalSpillBytes(bytes);
  return Status::OK();
}

Status HashJoinOperator::SpillSelected(const Batch& batch, bool probe_side) {
  for (int p = 0; p < options_.num_partitions; ++p) {
    std::vector<int32_t>& sel = spill_sel_[static_cast<size_t>(p)];
    if (sel.empty()) continue;
    Partition& part = partitions_[static_cast<size_t>(p)];
    const int64_t n = static_cast<int64_t>(sel.size());
    VSTORE_RETURN_IF_ERROR(SpillRecord(
        probe_side ? &part.probe_file : &part.build_file, batch, sel.data(),
        n));
    if (probe_side) {
      ctx_->stats.probe_rows_spilled += n;
      probe_rows_spilled_ += n;
    } else {
      ctx_->stats.build_rows_spilled += n;
      build_rows_spilled_ += n;
    }
    sel.clear();
  }
  return Status::OK();
}

bool HashJoinOperator::UnderMemoryPressure(int64_t local_budget) const {
  if (local_budget > 0 && total_build_bytes_ > local_budget) return true;
  MemoryTracker* query = ctx_ != nullptr ? ctx_->memory_tracker : nullptr;
  if (query == nullptr) return false;
  if (pressure_.exchange(false, std::memory_order_relaxed)) return true;
  return query->over_budget();
}

std::string HashJoinOperator::name() const {
  return std::string("HashJoin(") + JoinTypeName(options_.join_type) + ")";
}

void HashJoinOperator::AppendProfileCounters(OperatorProfile* node) const {
  node->counters.push_back({"build_rows", build_rows_});
  node->counters.push_back({"probe_rows", probe_rows_});
  if (spill_partitions_ > 0) {
    node->counters.push_back({"spill_partitions", spill_partitions_});
    node->counters.push_back({"build_rows_spilled", build_rows_spilled_});
    node->counters.push_back({"probe_rows_spilled", probe_rows_spilled_});
  }
  if (bloom_ != nullptr) {
    node->counters.push_back({"bloom_published", 1});
  }
}

Status HashJoinOperator::SpillPartition(int p) {
  // Spill events are rare and expensive; record each as a trace span so
  // memory-pressure incidents are reconstructable from the ring buffer.
  ScopedTrace trace("hash_join_spill_partition", "spill");
  Partition& part = partitions_[static_cast<size_t>(p)];
  VSTORE_DCHECK(!part.spilled);
  VSTORE_RETURN_IF_ERROR(part.build_file.Open(ctx_->batch_size));
  VSTORE_RETURN_IF_ERROR(part.probe_file.Open(ctx_->batch_size));
  if (build_batch_ == nullptr) {
    build_batch_ =
        std::make_unique<Batch>(build_->output_schema(), ctx_->batch_size);
  }
  // Resident rows go out in insertion order, one record per batch-full.
  const int64_t rows = static_cast<int64_t>(part.rows.size());
  for (int64_t begin = 0; begin < rows; begin += build_batch_->capacity()) {
    const int64_t n = std::min(build_batch_->capacity(), rows - begin);
    EntriesToBatch(build_format_, part.rows.data() + begin, n,
                   build_batch_.get());
    VSTORE_RETURN_IF_ERROR(
        SpillRecord(&part.build_file, *build_batch_, nullptr, n));
  }
  ctx_->stats.build_rows_spilled += rows;
  build_rows_spilled_ += rows;
  total_build_bytes_ -= part.bytes;
  part.rows.clear();
  part.rows.shrink_to_fit();
  part.arena = std::make_unique<Arena>();
  part.arena->SetMemoryTracker(mem_.get());
  part.bytes = 0;
  part.spilled = true;
  ++ctx_->stats.spill_partitions;
  ++spill_partitions_;
  return Status::OK();
}

Status HashJoinOperator::RunBuildPhase() {
  VSTORE_RETURN_IF_ERROR(build_->Open());
  const size_t entry_size =
      SerializedRowHashTable::kHeaderSize + build_format_.row_size();
  const int64_t budget = ctx_->operator_memory_budget;

  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(Batch * batch, build_->Next());
    if (batch == nullptr) break;
    const int64_t n = batch->num_rows();
    const uint8_t* active = batch->active();
    build_hashes_.resize(static_cast<size_t>(n));
    HashKeysBatch(*batch, options_.build_keys, active, build_hashes_.data());
    for (int64_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      // Rows with a null key can never join: drop them at build time.
      bool null_key = false;
      for (int k : options_.build_keys) {
        if (!batch->column(k).validity()[i]) {
          null_key = true;
          break;
        }
      }
      if (null_key) continue;

      ++build_rows_;
      const uint64_t hash = build_hashes_[static_cast<size_t>(i)];
      const int p = PartitionOf(hash);
      Partition& part = partitions_[static_cast<size_t>(p)];
      if (part.spilled) {
        // Written after the batch, one record per partition.
        spill_sel_[static_cast<size_t>(p)].push_back(static_cast<int32_t>(i));
        continue;
      }
      uint8_t* entry = part.arena->Allocate(entry_size);
      build_format_.Write(entry + SerializedRowHashTable::kHeaderSize, *batch,
                          i, part.arena.get());
      std::memcpy(entry + 8, &hash, sizeof(hash));
      part.rows.push_back(entry);
      int64_t grew = static_cast<int64_t>(part.arena->bytes_allocated()) -
                     part.bytes;
      part.bytes += grew;
      total_build_bytes_ += grew;
      RecordPeakMemory(total_build_bytes_);

      if (UnderMemoryPressure(budget)) {
        // Spill the largest resident partition. Under query-level pressure
        // every resident partition may already be gone (other operators
        // hold the budget) — then there is nothing left to shed.
        int victim = -1;
        int64_t victim_bytes = 0;
        for (int q = 0; q < options_.num_partitions; ++q) {
          const Partition& cand = partitions_[static_cast<size_t>(q)];
          if (!cand.spilled && cand.bytes > victim_bytes) {
            victim = q;
            victim_bytes = cand.bytes;
          }
        }
        if (victim >= 0) {
          VSTORE_RETURN_IF_ERROR(SpillPartition(victim));
        }
      }
    }
    VSTORE_RETURN_IF_ERROR(SpillSelected(*batch, /*probe_side=*/false));
  }
  build_->Close();

  // Populate the Bloom filter from all resident + spilled build rows.
  if (bloom_ != nullptr) {
    bloom_->Init(std::max<int64_t>(build_rows_, 1));
    for (Partition& part : partitions_) {
      for (uint8_t* entry : part.rows) {
        bloom_->Insert(SerializedRowHashTable::EntryHash(entry));
      }
      if (part.spilled) {
        VSTORE_RETURN_IF_ERROR(ForEachBuildRecord(
            &part.build_file, build_batch_.get(), &read_buf_,
            options_.build_keys, &build_hashes_,
            [this](const Batch& batch, const uint64_t* hashes) {
              for (int64_t i = 0; i < batch.num_rows(); ++i) {
                bloom_->Insert(hashes[i]);
              }
            }));
      }
    }
  }
  return BuildInMemoryTables();
}

Status HashJoinOperator::BuildInMemoryTables() {
  for (Partition& part : partitions_) {
    if (part.spilled) continue;
    part.table = std::make_unique<SerializedRowHashTable>(
        static_cast<int64_t>(part.rows.size()));
    part.table->SetMemoryTracker(mem_.get());
    for (uint8_t* entry : part.rows) {
      part.table->Insert(entry, SerializedRowHashTable::EntryHash(entry));
    }
  }
  return Status::OK();
}

Status HashJoinOperator::OpenImpl() {
  partitions_.clear();
  partitions_.resize(static_cast<size_t>(options_.num_partitions));
  for (Partition& p : partitions_) {
    p.arena = std::make_unique<Arena>();
    p.arena->SetMemoryTracker(mem_.get());
  }
  spill_sel_.assign(static_cast<size_t>(options_.num_partitions), {});
  if (mem_ != nullptr) mem_->ResetPeak();
  pressure_.store(false, std::memory_order_relaxed);
  total_build_bytes_ = 0;
  build_rows_ = 0;
  probe_rows_ = 0;
  build_rows_spilled_ = 0;
  probe_rows_spilled_ = 0;
  spill_partitions_ = 0;
  output_ = std::make_unique<Batch>(output_schema_, ctx_->batch_size);
  out_rows_ = 0;
  phase_ = Phase::kBuild;
  prober_.Clear();
  drain_partition_ = 0;
  drain_loaded_ = false;

  VSTORE_RETURN_IF_ERROR(RunBuildPhase());
  phase_ = Phase::kProbe;
  // Open the probe side only after the build completed, so pushed Bloom
  // filters are populated before the probe scan starts.
  return probe_->Open();
}

void HashJoinOperator::CloseImpl() {
  RecordMemoryTracker(mem_.get());
  partitions_.clear();  // closes the spill files
  output_.reset();
  build_batch_.reset();
  drain_batch_.reset();
  write_buf_.Release();
  read_buf_.Release();
  prober_.Clear();
  if (phase_ != Phase::kBuild) probe_->Close();
}

Status HashJoinOperator::SpillProbeRows(const Batch& batch) {
  const int64_t n = batch.num_rows();
  const uint8_t* active = batch.active();
  int64_t active_rows = 0;
  for (int64_t i = 0; i < n; ++i) active_rows += active[i];
  probe_rows_ += active_rows;
  if (spill_partitions_ == 0) return Status::OK();
  const uint64_t* hashes = prober_.hashes();
  for (int64_t i = 0; i < n; ++i) {
    const int p = PartitionOf(hashes[i]);
    if (active[i] && partitions_[static_cast<size_t>(p)].spilled) {
      spill_sel_[static_cast<size_t>(p)].push_back(static_cast<int32_t>(i));
    }
  }
  return SpillSelected(batch, /*probe_side=*/true);
}

Result<bool> HashJoinOperator::PumpProbe() {
  auto table_of = [this](uint64_t hash) -> const SerializedRowHashTable* {
    const Partition& part = partitions_[static_cast<size_t>(PartitionOf(hash))];
    return part.spilled ? nullptr : part.table.get();
  };
  for (;;) {
    if (!prober_.has_batch()) {
      VSTORE_ASSIGN_OR_RETURN(Batch * batch, probe_->Next());
      if (batch == nullptr) {
        phase_ = Phase::kSpillDrain;
        return out_rows_ > 0;
      }
      prober_.Start(batch);
      VSTORE_RETURN_IF_ERROR(SpillProbeRows(*batch));
    }
    if (prober_.Run(table_of, output_.get(), &out_rows_)) return true;
  }
}

Result<bool> HashJoinOperator::PumpDrain() {
  const size_t entry_size =
      SerializedRowHashTable::kHeaderSize + build_format_.row_size();
  for (;;) {
    if (prober_.has_batch()) {
      const SerializedRowHashTable* table =
          partitions_[static_cast<size_t>(drain_partition_)].table.get();
      if (prober_.Run([table](uint64_t) { return table; }, output_.get(),
                      &out_rows_)) {
        return true;
      }
    }
    if (drain_loaded_) {
      Partition& part = partitions_[static_cast<size_t>(drain_partition_)];
      VSTORE_ASSIGN_OR_RETURN(
          bool more, part.probe_file.Read(drain_batch_.get(), &read_buf_));
      if (more) {
        prober_.Start(drain_batch_.get());
        continue;
      }
      // Partition done: release its rows, table and files before the next
      // one loads.
      part.table.reset();
      part.arena.reset();
      part.build_file.Close();
      part.probe_file.Close();
      drain_loaded_ = false;
      ++drain_partition_;
    }
    while (drain_partition_ < options_.num_partitions &&
           !partitions_[static_cast<size_t>(drain_partition_)].spilled) {
      ++drain_partition_;
    }
    if (drain_partition_ == options_.num_partitions) {
      phase_ = Phase::kDone;
      return out_rows_ > 0;
    }

    // Load the build side of the next spilled partition and hash it.
    Partition& part = partitions_[static_cast<size_t>(drain_partition_)];
    part.table = std::make_unique<SerializedRowHashTable>(
        std::max<int64_t>(part.build_file.rows(), 1));
    part.table->SetMemoryTracker(mem_.get());
    VSTORE_RETURN_IF_ERROR(ForEachBuildRecord(
        &part.build_file, build_batch_.get(), &read_buf_, options_.build_keys,
        &build_hashes_, [&](const Batch& batch, const uint64_t* hashes) {
          for (int64_t i = 0; i < batch.num_rows(); ++i) {
            uint8_t* entry = part.arena->Allocate(entry_size);
            // Copies strings out of the read buffer into the arena.
            build_format_.Write(entry + SerializedRowHashTable::kHeaderSize,
                                batch, i, part.arena.get());
            part.table->Insert(entry, hashes[i]);
          }
        }));
    VSTORE_RETURN_IF_ERROR(part.probe_file.Rewind());
    if (drain_batch_ == nullptr) {
      drain_batch_ =
          std::make_unique<Batch>(probe_->output_schema(), ctx_->batch_size);
    }
    drain_loaded_ = true;
  }
}

Result<Batch*> HashJoinOperator::NextImpl() {
  output_->Reset();
  out_rows_ = 0;
  bool ready = false;
  if (phase_ == Phase::kProbe) {
    VSTORE_ASSIGN_OR_RETURN(ready, PumpProbe());
  }
  if (!ready && phase_ == Phase::kSpillDrain) {
    VSTORE_ASSIGN_OR_RETURN(ready, PumpDrain());
  }
  if (out_rows_ == 0) return static_cast<Batch*>(nullptr);
  output_->set_num_rows(out_rows_);
  output_->ActivateAll();
  return output_.get();
}

}  // namespace vstore
