#include "exec/hash_join.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/span_trace.h"

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
  keys_.Reset(*build_format_, *build_keys_, *batch, *probe_keys_);
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

namespace {

inline std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

inline int64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Now() - start)
      .count();
}

// Reads every record of a spilled build partition back into `batch`
// (through `scratch`) and calls fn(batch, key hashes) per record, the
// hashes computed by HashKeysBatch into `hashes`. Used by the Bloom refill
// and the drain's build reload.
template <typename Fn>
Status ForEachBuildRecord(SpillFile* file, Batch* batch, SpillBuffer* scratch,
                          const std::vector<int>& keys,
                          std::vector<uint64_t>* hashes, Fn fn) {
  VSTORE_RETURN_IF_ERROR(file->Rewind());
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(bool more, file->Read(batch, scratch));
    if (!more) return Status::OK();
    hashes->resize(static_cast<size_t>(batch->num_rows()));
    HashKeysBatch(*batch, keys, nullptr, hashes->data());
    fn(*batch, hashes->data());
  }
}

// A degree-1 build with one probe fragment whose one build fragment is
// `build`, handed over when the build runs.
std::shared_ptr<SharedHashJoinBuild> SerialBuild(
    BatchOperatorPtr build, HashJoinOperator::Options options) {
  Schema schema = build->output_schema();
  auto op = std::make_shared<BatchOperatorPtr>(std::move(build));
  return std::make_shared<SharedHashJoinBuild>(
      std::move(schema), std::move(options),
      [op](int, ExecContext*,
           std::shared_ptr<void>*) -> Result<BatchOperatorPtr> {
        return std::move(*op);
      },
      /*build_dop=*/1, /*probe_fragments=*/1);
}

}  // namespace

// --- HashJoinOperator (probe side) -------------------------------------------

HashJoinOperator::HashJoinOperator(BatchOperatorPtr probe,
                                   BatchOperatorPtr build, Options options,
                                   ExecContext* ctx)
    : HashJoinOperator(std::move(probe),
                       SerialBuild(std::move(build), std::move(options)),
                       /*fragment=*/0, ctx) {}

HashJoinOperator::HashJoinOperator(
    BatchOperatorPtr probe, std::shared_ptr<SharedHashJoinBuild> shared,
    int fragment, ExecContext* ctx)
    : probe_(std::move(probe)),
      shared_(std::move(shared)),
      fragment_(fragment),
      ctx_(ctx),
      output_schema_(HashJoinOutputSchema(probe_->output_schema(),
                                          shared_->build_schema(),
                                          shared_->options().join_type)),
      prober_(shared_->options().join_type, &shared_->build_format(),
              &shared_->options().build_keys,
              &shared_->options().probe_keys) {}

HashJoinOperator::~HashJoinOperator() { Close(); }

const BloomFilter* HashJoinOperator::bloom_filter() const {
  return shared_->bloom_target();
}

std::string HashJoinOperator::name() const {
  return std::string(shared_->probe_fragments() == 1 ? "HashJoin("
                                                     : "HashJoinProbe(") +
         JoinTypeName(shared_->options().join_type) + ")";
}

void HashJoinOperator::AppendProfileCounters(OperatorProfile* node) const {
  node->counters.push_back({"probe_rows", probe_rows_});
  if (shared_->has_spilled_partitions()) {
    node->counters.push_back({"probe_rows_spilled", probe_rows_spilled_});
  }
}

void HashJoinOperator::AppendProfileChildren(OperatorProfile* node) const {
  BatchOperator::AppendProfileChildren(node);
  // Exactly one fragment reports the shared build: the exchange merge sums
  // counters by name across fragments, so dop copies would multiply them.
  if (fragment_ == 0) shared_->AppendBuildProfile(node);
}

Status HashJoinOperator::OpenImpl() {
  probe_rows_ = 0;
  probe_rows_spilled_ = 0;
  out_rows_ = 0;
  phase_ = Phase::kInit;
  VSTORE_RETURN_IF_ERROR(shared_->EnsureBuilt(ctx_));
  // Spill buffers and drain reloads charge the shared build tracker: they
  // hold spilled build and probe partitions, which is join memory.
  MemoryTracker* tracker = shared_->memory_tracker();
  write_buf_.SetMemoryTracker(tracker);
  read_buf_.SetMemoryTracker(tracker);
  spill_sel_.assign(static_cast<size_t>(shared_->num_partitions()), {});
  // Open the probe input only now: a pushed Bloom filter is populated by
  // the build above and the probe-side scan reads it during Open().
  VSTORE_RETURN_IF_ERROR(probe_->Open());
  output_ = std::make_unique<Batch>(output_schema_, ctx_->batch_size);
  phase_ = Phase::kProbe;
  prober_.Clear();
  drain_partition_ = 0;
  drain_loaded_ = false;
  return Status::OK();
}

void HashJoinOperator::CloseImpl() {
  output_.reset();
  build_batch_.reset();
  drain_batch_.reset();
  write_buf_.Release();
  read_buf_.Release();
  prober_.Clear();
  if (phase_ != Phase::kInit) probe_->Close();
  if (shared_->CloseProbeFragment()) {
    // The last fragment to close reports the shared build's memory and
    // spill volume once, after every fragment has written its spill rows.
    RecordPeakMemory(shared_->peak_bytes());
    RecordMemoryTracker(shared_->memory_tracker());
    RecordSpillBytes(shared_->spill_bytes());
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
    VSTORE_ASSIGN_OR_RETURN(ready, PumpSpillDrain());
  }
  if (out_rows_ == 0) return static_cast<Batch*>(nullptr);
  output_->set_num_rows(out_rows_);
  output_->ActivateAll();
  return output_.get();
}

Status HashJoinOperator::SpillProbeRows(const Batch& batch) {
  const int64_t n = batch.num_rows();
  const uint8_t* active = batch.active();
  int64_t active_rows = 0;
  for (int64_t i = 0; i < n; ++i) active_rows += active[i];
  probe_rows_ += active_rows;
  if (!shared_->has_spilled_partitions()) return Status::OK();
  const uint64_t* hashes = prober_.hashes();
  for (int64_t i = 0; i < n; ++i) {
    const int p = shared_->PartitionOf(hashes[i]);
    if (active[i] && shared_->partition(p).spilled) {
      spill_sel_[static_cast<size_t>(p)].push_back(static_cast<int32_t>(i));
    }
  }
  for (int p = 0; p < shared_->num_partitions(); ++p) {
    std::vector<int32_t>& sel = spill_sel_[static_cast<size_t>(p)];
    if (sel.empty()) continue;
    const int64_t rows = static_cast<int64_t>(sel.size());
    VSTORE_RETURN_IF_ERROR(shared_->AppendProbeRecord(
        p, batch, sel.data(), rows, &write_buf_, ctx_));
    probe_rows_spilled_ += rows;
    sel.clear();
  }
  return Status::OK();
}

Result<bool> HashJoinOperator::PumpProbe() {
  SharedHashJoinBuild* shared = shared_.get();
  auto table_of = [shared](uint64_t hash) -> const SerializedRowHashTable* {
    const SharedHashJoinBuild::Partition& part =
        shared->partition(shared->PartitionOf(hash));
    return part.spilled ? nullptr : part.table.get();
  };
  for (;;) {
    if (!prober_.has_batch()) {
      VSTORE_ASSIGN_OR_RETURN(Batch * batch, probe_->Next());
      if (batch == nullptr) {
        // The last fragment to exhaust its probe input owns the drain of
        // the spilled partition pairs — by then no fragment can append
        // another probe row to the shared spill files.
        const bool last = shared_->FinishProbeFragment();
        phase_ = last && shared_->has_spilled_partitions() ? Phase::kSpillDrain
                                                           : Phase::kDone;
        return out_rows_ > 0;
      }
      prober_.Start(batch);
      VSTORE_RETURN_IF_ERROR(SpillProbeRows(*batch));
    }
    if (prober_.Run(table_of, output_.get(), &out_rows_)) return true;
  }
}

Result<bool> HashJoinOperator::PumpSpillDrain() {
  const RowFormat& build_format = shared_->build_format();
  const size_t entry_size =
      SerializedRowHashTable::kHeaderSize + build_format.row_size();
  for (;;) {
    if (prober_.has_batch()) {
      const SerializedRowHashTable* table =
          shared_->partition(drain_partition_).table.get();
      if (prober_.Run([table](uint64_t) { return table; }, output_.get(),
                      &out_rows_)) {
        return true;
      }
    }
    if (drain_loaded_) {
      SharedHashJoinBuild::Partition& part =
          shared_->partition(drain_partition_);
      VSTORE_ASSIGN_OR_RETURN(
          bool more, part.probe_file.Read(drain_batch_.get(), &read_buf_));
      if (more) {
        prober_.Start(drain_batch_.get());
        continue;
      }
      // Partition done: free its rows, table and files before the next
      // one loads.
      part.table.reset();
      part.arena.reset();
      part.build_file.Close();
      part.probe_file.Close();
      drain_loaded_ = false;
      ++drain_partition_;
    }
    while (drain_partition_ < shared_->num_partitions() &&
           !shared_->partition(drain_partition_).spilled) {
      ++drain_partition_;
    }
    if (drain_partition_ == shared_->num_partitions()) {
      phase_ = Phase::kDone;
      return out_rows_ > 0;
    }

    // Load the build side of the next spilled partition and hash it. Every
    // other fragment has finished probing, so the drain owns the partition.
    SharedHashJoinBuild::Partition& part =
        shared_->partition(drain_partition_);
    if (build_batch_ == nullptr) {
      build_batch_ = std::make_unique<Batch>(shared_->build_schema(),
                                             shared_->record_rows());
      drain_batch_ = std::make_unique<Batch>(probe_->output_schema(),
                                             shared_->record_rows());
    }
    part.table = std::make_unique<SerializedRowHashTable>(
        std::max<int64_t>(part.build_file.rows(), 1));
    part.table->SetMemoryTracker(shared_->memory_tracker());
    VSTORE_RETURN_IF_ERROR(ForEachBuildRecord(
        &part.build_file, build_batch_.get(), &read_buf_,
        shared_->options().build_keys, &build_hashes_,
        [&](const Batch& batch, const uint64_t* hashes) {
          for (int64_t i = 0; i < batch.num_rows(); ++i) {
            uint8_t* entry = part.arena->Allocate(entry_size);
            // Copies strings out of the read buffer into the arena.
            build_format.Write(entry + SerializedRowHashTable::kHeaderSize,
                               batch, i, part.arena.get());
            part.table->Insert(entry, hashes[i]);
          }
        }));
    VSTORE_RETURN_IF_ERROR(part.probe_file.Rewind());
    drain_loaded_ = true;
  }
}

// --- SharedHashJoinBuild -----------------------------------------------------

SharedHashJoinBuild::SharedHashJoinBuild(Schema build_schema, Options options,
                                         BuildFactory factory, int build_dop,
                                         int probe_fragments)
    : build_schema_(std::move(build_schema)),
      options_(std::move(options)),
      factory_(std::move(factory)),
      build_dop_(build_dop),
      probe_fragments_(probe_fragments),
      build_format_(build_schema_),
      partition_shift_(
          64 - std::countr_zero(static_cast<unsigned>(options_.num_partitions))),
      active_probe_fragments_(probe_fragments),
      open_probe_fragments_(probe_fragments) {
  VSTORE_CHECK(build_dop_ >= 1 && probe_fragments_ >= 1);
  VSTORE_CHECK(!options_.probe_keys.empty() &&
               options_.probe_keys.size() == options_.build_keys.size());
  VSTORE_CHECK(
      std::has_single_bit(static_cast<unsigned>(options_.num_partitions)));
  // Bloom pushdown must not hide probe rows from outer/anti joins.
  if (options_.bloom_target != nullptr) {
    VSTORE_CHECK(options_.join_type == JoinType::kInner ||
                 options_.join_type == JoinType::kLeftSemi);
  }
}

SharedHashJoinBuild::~SharedHashJoinBuild() {
  if (pressure_listener_ != 0) {
    query_tracker_->RemovePressureListener(pressure_listener_);
  }
}

bool SharedHashJoinBuild::QueryMemoryPressure() const {
  if (pressure_.exchange(false, std::memory_order_relaxed)) return true;
  return query_tracker_ != nullptr && query_tracker_->over_budget();
}

Status SharedHashJoinBuild::EnsureBuilt(ExecContext* caller_ctx) {
  // The mutex doubles as the happens-before edge: every fragment passes
  // through it once, after which the built state is read without locks.
  std::lock_guard<std::mutex> lock(build_mu_);
  if (built_) return build_status_;
  build_status_ = RunBuild(caller_ctx);
  built_ = true;
  return build_status_;
}

Status SharedHashJoinBuild::RunBuild(ExecContext* caller_ctx) {
  auto build_start = Now();
  if (caller_ctx->memory_tracker != nullptr && mem_ == nullptr) {
    query_tracker_ = caller_ctx->memory_tracker;
    mem_ = std::make_unique<MemoryTracker>("SharedHashJoinBuild", "operator",
                                           query_tracker_);
    pressure_listener_ = query_tracker_->AddPressureListener(
        [this] { pressure_.store(true, std::memory_order_relaxed); });
  }
  memory_budget_ = caller_ctx->operator_memory_budget;
  record_rows_ = caller_ctx->batch_size;
  spill_buf_.SetMemoryTracker(mem_.get());
  partitions_.clear();
  partitions_.reserve(static_cast<size_t>(options_.num_partitions));
  for (int p = 0; p < options_.num_partitions; ++p) {
    auto part = std::make_unique<Partition>();
    part->arena = std::make_unique<Arena>();
    part->arena->SetMemoryTracker(mem_.get());
    partitions_.push_back(std::move(part));
  }
  fragment_build_rows_.assign(static_cast<size_t>(build_dop_), 0);

  // Phase 1: every build fragment drains its operator tree into the shared
  // partitions. Fragment contexts keep stats thread-local; they are merged
  // into the calling fragment's context after the join barrier (the
  // exchange then rolls them up like any other fragment stats).
  std::vector<std::unique_ptr<ExecContext>> fctxs;
  for (int f = 0; f < build_dop_; ++f) {
    fctxs.push_back(std::make_unique<ExecContext>(
        FragmentContext(*caller_ctx, caller_ctx->memory_tracker)));
  }
  std::vector<Status> statuses(static_cast<size_t>(build_dop_));
  // Build threads are raw std::threads: re-install the first-arriving
  // fragment's trace context on each so build-side operator spans (and any
  // waits the build scans hit) still attribute to the query, parented to a
  // per-fragment "build_fragment:<f>" span. The barrier below means every
  // span is closed before EnsureBuilt returns.
  QueryTraceContext parent_tc = CurrentQueryTraceContext();
  auto run_build_fragment = [this, &fctxs, &statuses, &parent_tc](int f) {
    TraceSpan* span =
        parent_tc.recorder != nullptr
            ? parent_tc.recorder->StartSpan("build_fragment:" +
                                                std::to_string(f),
                                            "fragment", parent_tc.current)
            : nullptr;
    QueryTraceScope trace_scope(parent_tc.recorder,
                                span != nullptr ? span : parent_tc.current,
                                parent_tc.active_query);
    statuses[static_cast<size_t>(f)] =
        BuildFragment(f, fctxs[static_cast<size_t>(f)].get());
    if (span != nullptr) parent_tc.recorder->EndSpan(span);
  };
  if (build_dop_ == 1) {
    run_build_fragment(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(build_dop_));
    for (int f = 0; f < build_dop_; ++f) {
      threads.emplace_back([&run_build_fragment, f] { run_build_fragment(f); });
    }
    for (std::thread& t : threads) t.join();  // build barrier
  }
  for (auto& fctx : fctxs) caller_ctx->stats.MergeFrom(fctx->stats);
  for (const Status& s : statuses) {
    VSTORE_RETURN_IF_ERROR(s);
  }
  build_ns_ = ElapsedNs(build_start);
  // No partition spills after the build barrier.
  spill_buf_.Release();
  spill_batch_.reset();

  // Phase 2: chained tables + Bloom filter, partitions striped across the
  // same degree. The shared filter is Init()ed once from the total row
  // count; at degree > 1 each stripe fills a private identically-sized
  // filter and OR-merges it.
  auto finalize_start = Now();
  BloomFilter* bloom = options_.bloom_target;
  if (bloom != nullptr) bloom->Init(std::max<int64_t>(build_rows_, 1));
  if (build_dop_ == 1) {
    VSTORE_RETURN_IF_ERROR(FinalizeStripe(0, bloom));
  } else {
    std::vector<Status> fin(static_cast<size_t>(build_dop_));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(build_dop_));
    for (int f = 0; f < build_dop_; ++f) {
      threads.emplace_back([this, f, bloom, &fin] {
        BloomFilter local;
        if (bloom != nullptr) local.Init(std::max<int64_t>(build_rows_, 1));
        fin[static_cast<size_t>(f)] =
            FinalizeStripe(f, bloom != nullptr ? &local : nullptr);
        if (bloom == nullptr) return;
        auto merge_start = Now();
        std::lock_guard<std::mutex> lock(merge_mu_);
        bloom->MergeFrom(local);
        bloom_merge_ns_ += ElapsedNs(merge_start);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& s : fin) {
      VSTORE_RETURN_IF_ERROR(s);
    }
  }
  table_build_ns_ = ElapsedNs(finalize_start);
  return Status::OK();
}

Status SharedHashJoinBuild::BuildFragment(int fragment, ExecContext* fctx) {
  std::shared_ptr<void> resources;
  BatchOperatorPtr op;
  {
    Result<BatchOperatorPtr> op_result = factory_(fragment, fctx, &resources);
    if (!op_result.ok()) return op_result.status();
    op = std::move(op_result).value();
  }
  FragmentScratch scratch(mem_.get());
  scratch.sel.resize(static_cast<size_t>(options_.num_partitions));
  Status status = op->Open();
  while (status.ok()) {
    Result<Batch*> batch = op->Next();
    if (!batch.ok()) {
      status = batch.status();
      break;
    }
    if (batch.value() == nullptr) break;
    status = InsertBatch(*batch.value(), &scratch, fctx);
  }
  op->Close();

  OperatorProfile profile = op->BuildProfile();
  std::lock_guard<std::mutex> lock(merge_mu_);
  if (profile_fragments_ == 0) {
    build_profile_ = std::move(profile);
  } else {
    build_profile_.MergeFrom(profile);
  }
  ++profile_fragments_;
  fragment_build_rows_[static_cast<size_t>(fragment)] = scratch.rows;
  build_rows_ += scratch.rows;
  build_rows_spilled_ += scratch.rows_spilled;
  lock_wait_ns_ += scratch.lock_wait_ns;
  return status;
}

Status SharedHashJoinBuild::InsertBatch(const Batch& batch,
                                        FragmentScratch* scratch,
                                        ExecContext* fctx) {
  const int64_t n = batch.num_rows();
  const uint8_t* active = batch.active();
  std::vector<uint64_t>& hashes = scratch->hashes;
  hashes.resize(static_cast<size_t>(n));
  HashKeysBatch(batch, options_.build_keys, active, hashes.data());
  // Split the rows by partition. Rows with a null key can never join: drop
  // them at build time.
  scratch->key_validity.clear();
  for (int k : options_.build_keys) {
    scratch->key_validity.push_back(batch.column(k).validity());
  }
  for (int64_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    bool null_key = false;
    for (const uint8_t* validity : scratch->key_validity) {
      null_key |= validity[i] == 0;
    }
    if (null_key) continue;
    const int p = PartitionOf(hashes[static_cast<size_t>(i)]);
    scratch->sel[static_cast<size_t>(p)].push_back(static_cast<int32_t>(i));
  }

  const size_t entry_size =
      SerializedRowHashTable::kHeaderSize + build_format_.row_size();
  for (int p = 0; p < options_.num_partitions; ++p) {
    std::vector<int32_t>& sel = scratch->sel[static_cast<size_t>(p)];
    if (sel.empty()) continue;
    const int64_t rows = static_cast<int64_t>(sel.size());
    scratch->rows += rows;
    Partition& part = *partitions_[static_cast<size_t>(p)];
    // try_lock first so only contended acquisitions pay for (and show up
    // in) the lock-wait timer.
    std::unique_lock<std::mutex> lock(part.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      auto wait_start = Now();
      lock.lock();
      scratch->lock_wait_ns += ElapsedNs(wait_start);
    }
    if (part.spilled) {
      VSTORE_RETURN_IF_ERROR(AppendRecordLocked(
          &part.build_file, batch, sel.data(), rows, &scratch->write_buf));
      lock.unlock();
      fctx->stats.build_rows_spilled += rows;
      scratch->rows_spilled += rows;
      sel.clear();
      continue;
    }
    Arena* arena = part.arena.get();
    for (int32_t i : sel) {
      uint8_t* entry = arena->Allocate(entry_size);
      build_format_.Write(entry + SerializedRowHashTable::kHeaderSize, batch,
                          i, arena);
      std::memcpy(entry + 8, &hashes[static_cast<size_t>(i)],
                  sizeof(uint64_t));
      part.rows.push_back(entry);
    }
    sel.clear();
    const int64_t arena_bytes = static_cast<int64_t>(arena->bytes_allocated());
    const int64_t grew =
        arena_bytes - part.bytes.load(std::memory_order_relaxed);
    part.bytes.store(arena_bytes, std::memory_order_relaxed);
    lock.unlock();

    const int64_t total =
        total_bytes_.fetch_add(grew, std::memory_order_relaxed) + grew;
    int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (total > peak && !peak_bytes_.compare_exchange_weak(
                               peak, total, std::memory_order_relaxed)) {
    }
    // Spill outside the partition lock: MaybeSpill acquires spill_mu_
    // first and then a victim partition's lock.
    const bool over_budget = memory_budget_ > 0 && total > memory_budget_;
    const bool query_pressure = !over_budget && QueryMemoryPressure();
    if (over_budget || query_pressure) {
      VSTORE_RETURN_IF_ERROR(MaybeSpill(fctx, query_pressure));
    }
  }
  return Status::OK();
}

Status SharedHashJoinBuild::MaybeSpill(ExecContext* fctx,
                                       bool query_pressure) {
  std::lock_guard<std::mutex> spill_lock(spill_mu_);
  // Another thread may have flushed a partition while we waited. A query
  // budget crossing always sheds one victim — the build cannot observe
  // whether an unrelated release has since taken the query back under.
  if (!query_pressure &&
      total_bytes_.load(std::memory_order_relaxed) <= memory_budget_) {
    return Status::OK();
  }
  // `spilled` only flips under spill_mu_ (plus the partition lock), so this
  // scan needs no partition locks; `bytes` is an atomic mirror.
  int victim = -1;
  int64_t victim_bytes = -1;
  for (int q = 0; q < options_.num_partitions; ++q) {
    const Partition& cand = *partitions_[static_cast<size_t>(q)];
    int64_t bytes = cand.bytes.load(std::memory_order_relaxed);
    if (!cand.spilled && bytes > victim_bytes) {
      victim = q;
      victim_bytes = bytes;
    }
  }
  if (victim < 0) return Status::OK();  // everything is already on disk
  Partition& part = *partitions_[static_cast<size_t>(victim)];
  std::lock_guard<std::mutex> part_lock(part.mu);
  return SpillPartitionLocked(&part, fctx);
}

Status SharedHashJoinBuild::SpillPartitionLocked(Partition* part,
                                                 ExecContext* fctx) {
  // Spill events are rare and expensive; record each as a trace span so
  // memory-pressure incidents are reconstructable from the ring buffer.
  ScopedTrace trace("hash_join_spill_partition", "spill");
  VSTORE_DCHECK(!part->spilled);
  VSTORE_RETURN_IF_ERROR(part->build_file.Open(record_rows_));
  VSTORE_RETURN_IF_ERROR(part->probe_file.Open(record_rows_));
  if (spill_batch_ == nullptr) {
    spill_batch_ = std::make_unique<Batch>(build_schema_, record_rows_);
  }
  // Resident rows go out in insertion order, one record per batch-full.
  const int64_t rows = static_cast<int64_t>(part->rows.size());
  for (int64_t begin = 0; begin < rows; begin += record_rows_) {
    const int64_t n = std::min(record_rows_, rows - begin);
    EntriesToBatch(build_format_, part->rows.data() + begin, n,
                   spill_batch_.get());
    VSTORE_RETURN_IF_ERROR(AppendRecordLocked(&part->build_file, *spill_batch_,
                                              nullptr, n, &spill_buf_));
  }
  fctx->stats.build_rows_spilled += rows;
  total_bytes_.fetch_sub(part->bytes.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  part->rows.clear();
  part->rows.shrink_to_fit();
  part->arena = std::make_unique<Arena>();
  part->arena->SetMemoryTracker(mem_.get());
  part->bytes.store(0, std::memory_order_relaxed);
  part->spilled = true;
  ++fctx->stats.spill_partitions;
  std::lock_guard<std::mutex> lock(merge_mu_);
  ++spill_partitions_;
  build_rows_spilled_ += rows;
  return Status::OK();
}

Status SharedHashJoinBuild::FinalizeStripe(int stripe, BloomFilter* bloom) {
  // Read scratch for this stripe's spilled partitions.
  SpillBuffer read_buf(mem_.get());
  std::unique_ptr<Batch> batch;
  std::vector<uint64_t> hashes;

  for (int p = stripe; p < options_.num_partitions; p += build_dop_) {
    Partition& part = *partitions_[static_cast<size_t>(p)];
    if (!part.spilled) {
      part.table = std::make_unique<SerializedRowHashTable>(
          static_cast<int64_t>(part.rows.size()));
      part.table->SetMemoryTracker(mem_.get());
      for (uint8_t* entry : part.rows) {
        uint64_t hash = SerializedRowHashTable::EntryHash(entry);
        part.table->Insert(entry, hash);
        if (bloom != nullptr) bloom->Insert(hash);
      }
    } else if (bloom != nullptr) {
      // Spilled build rows still participate in the filter (the filter
      // reflects the whole build side, resident or not).
      if (batch == nullptr) {
        batch = std::make_unique<Batch>(build_schema_, record_rows_);
      }
      VSTORE_RETURN_IF_ERROR(ForEachBuildRecord(
          &part.build_file, batch.get(), &read_buf, options_.build_keys,
          &hashes, [&](const Batch& records, const uint64_t* record_hashes) {
            for (int64_t i = 0; i < records.num_rows(); ++i) {
              bloom->Insert(record_hashes[i]);
            }
          }));
    }
  }
  return Status::OK();
}

Status SharedHashJoinBuild::AppendRecordLocked(SpillFile* file,
                                               const Batch& batch,
                                               const int32_t* sel, int64_t n,
                                               SpillBuffer* scratch) {
  VSTORE_ASSIGN_OR_RETURN(int64_t bytes, file->Append(batch, sel, n, scratch));
  spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  AddGlobalSpillBytes(bytes);
  return Status::OK();
}

Status SharedHashJoinBuild::AppendProbeRecord(int p, const Batch& batch,
                                              const int32_t* sel, int64_t n,
                                              SpillBuffer* scratch,
                                              ExecContext* fctx) {
  Partition& part = *partitions_[static_cast<size_t>(p)];
  std::lock_guard<std::mutex> lock(part.mu);
  VSTORE_RETURN_IF_ERROR(
      AppendRecordLocked(&part.probe_file, batch, sel, n, scratch));
  fctx->stats.probe_rows_spilled += n;
  return Status::OK();
}

bool SharedHashJoinBuild::FinishProbeFragment() {
  std::lock_guard<std::mutex> lock(merge_mu_);
  VSTORE_DCHECK(active_probe_fragments_ > 0);
  return --active_probe_fragments_ == 0;
}

bool SharedHashJoinBuild::CloseProbeFragment() {
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    VSTORE_DCHECK(open_probe_fragments_ > 0);
    if (--open_probe_fragments_ > 0) return false;
  }
  partitions_.clear();  // frees arenas and tables, closes the spill files
  return true;
}

void SharedHashJoinBuild::AppendBuildProfile(OperatorProfile* node) const {
  node->counters.push_back({"build_rows", build_rows_});
  if (build_dop_ > 1) {
    node->counters.push_back({"build_fragments", build_dop_});
    for (size_t f = 0; f < fragment_build_rows_.size(); ++f) {
      node->counters.push_back(
          {"build_rows_f" + std::to_string(f), fragment_build_rows_[f]});
    }
    node->counters.push_back({"build_lock_wait_ns", lock_wait_ns_});
  }
  node->counters.push_back({"build_ns", build_ns_});
  node->counters.push_back({"table_build_ns", table_build_ns_});
  if (options_.bloom_target != nullptr) {
    node->counters.push_back({"bloom_published", 1});
    if (build_dop_ > 1) {
      node->counters.push_back({"bloom_merge_ns", bloom_merge_ns_});
    }
  }
  if (spill_partitions_ > 0) {
    node->counters.push_back({"spill_partitions", spill_partitions_});
    node->counters.push_back({"build_rows_spilled", build_rows_spilled_});
  }
  if (profile_fragments_ > 0) {
    OperatorProfile child = build_profile_;
    // Several build threads merge into one child, which the exchange-style
    // `fragments` count marks as not nested in this node's time; a single
    // build fragment ran inline, inside this operator's Open().
    if (build_dop_ > 1) child.fragments = profile_fragments_;
    node->children.push_back(std::move(child));
  }
}

}  // namespace vstore
