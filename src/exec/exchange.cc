#include "exec/exchange.h"

#include "common/macros.h"
#include "common/span_trace.h"

namespace vstore {

namespace {

// All exchange queues share one {table="exchange",point="queue"} wait
// family: queue stalls are a property of the plan, not of a table.
const WaitStats& QueueWaitStats() {
  static const WaitStats stats = GetWaitStats("exchange", WaitPoint::kQueue);
  return stats;
}

}  // namespace

ExchangeOperator::ExchangeOperator(Schema output_schema,
                                   FragmentFactory factory, int degree,
                                   ExecContext* ctx, std::string label)
    : output_schema_(std::move(output_schema)),
      factory_(std::move(factory)),
      degree_(degree),
      ctx_(ctx),
      label_(std::move(label)) {
  VSTORE_CHECK(degree_ > 0);
}

ExchangeOperator::~ExchangeOperator() {
  Close();
  // The factory's captures (shared hash-join builds) hold pressure
  // listeners on fragment trackers; release them while those still live.
  factory_ = nullptr;
}

Status ExchangeOperator::OpenImpl() {
  cancelled_ = false;
  fragment_profile_ = OperatorProfile();
  fragments_merged_ = 0;
  rows_exchanged_ = 0;
  first_error_ = Status::OK();
  active_producers_ = degree_;
  if (ctx_->memory_tracker != nullptr && mem_ == nullptr) {
    mem_ = std::make_unique<MemoryTracker>(name(), "operator",
                                           ctx_->memory_tracker);
  }
  queue_reservation_.Reset(mem_.get());
  queued_bytes_ = 0;
  fragment_ctxs_.clear();
  fragment_trackers_.clear();
  for (int i = 0; i < degree_; ++i) {
    MemoryTracker* tracker = nullptr;
    if (mem_ != nullptr) {
      fragment_trackers_.push_back(std::make_unique<MemoryTracker>(
          "fragment:" + std::to_string(i), "fragment", mem_.get()));
      tracker = fragment_trackers_.back().get();
    }
    fragment_ctxs_.push_back(
        std::make_unique<ExecContext>(FragmentContext(*ctx_, tracker)));
  }
  workers_.reserve(static_cast<size_t>(degree_));
  for (int i = 0; i < degree_; ++i) {
    workers_.emplace_back([this, i] { RunFragment(i); });
  }
  return Status::OK();
}

void ExchangeOperator::Push(std::unique_ptr<Batch> batch) {
  std::unique_lock<std::mutex> lock(mu_);
  auto has_space = [this] {
    return cancelled_ || queue_.size() < kQueueCapacity;
  };
  if (!has_space()) {
    // Producer blocked on a full queue: the consumer (or a downstream
    // pipeline stage) is the bottleneck. Only a genuinely blocked wait
    // pays for the clock reads and the wait span.
    WaitEventScope wait(QueueWaitStats(), WaitPoint::kQueue, "exchange");
    queue_space_.wait(lock, has_space);
  }
  if (cancelled_) return;
  queued_bytes_ += batch->MemoryBytes();
  queue_reservation_.Set(queued_bytes_);
  queue_.push(std::move(batch));
  queue_ready_.notify_one();
}

void ExchangeOperator::RunFragment(int fragment) {
  ExecContext* fctx = fragment_ctxs_[static_cast<size_t>(fragment)].get();
  // Re-install the query's trace context on this worker thread: operator
  // spans below parent to a per-fragment span under the exchange's own
  // span, and wait sites hit by fragment code attribute to the query.
  TraceSpan* fragment_span =
      ctx_->trace_recorder != nullptr
          ? ctx_->trace_recorder->StartSpan(
                "fragment:" + std::to_string(fragment), "fragment",
                trace_span())
          : nullptr;
  QueryTraceScope trace_scope(
      ctx_->trace_recorder,
      fragment_span != nullptr ? fragment_span : trace_span(),
      ctx_->active_query);
  Status status;
  auto op_result = factory_(fragment, fctx);
  if (!op_result.ok()) {
    status = op_result.status();
  } else {
    BatchOperatorPtr op = std::move(op_result).value();
    status = op->Open();
    while (status.ok()) {
      auto batch_result = op->Next();
      if (!batch_result.ok()) {
        status = batch_result.status();
        break;
      }
      Batch* batch = batch_result.value();
      if (batch == nullptr) break;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (cancelled_) break;
      }
      // Deep-copy: the fragment reuses its batch storage immediately.
      auto copy = std::make_unique<Batch>(
          output_schema_, std::max<int64_t>(batch->num_rows(), 1));
      AppendActiveRows(*batch, copy.get());
      Push(std::move(copy));
    }
    op->Close();
    // Capture the fragment's profile after Close so close_ns is included.
    OperatorProfile profile = op->BuildProfile();
    std::lock_guard<std::mutex> lock(mu_);
    if (fragments_merged_ == 0) {
      fragment_profile_ = std::move(profile);
    } else {
      fragment_profile_.MergeFrom(profile);
    }
    ++fragments_merged_;
  }

  if (ctx_->trace_recorder != nullptr) {
    ctx_->trace_recorder->EndSpan(fragment_span);
  }
  std::lock_guard<std::mutex> lock(mu_);
  fragment_stats_.MergeFrom(fctx->stats);
  if (!status.ok() && first_error_.ok()) first_error_ = status;
  if (--active_producers_ == 0) queue_ready_.notify_all();
  else queue_ready_.notify_all();
}

Result<Batch*> ExchangeOperator::NextImpl() {
  std::unique_lock<std::mutex> lock(mu_);
  auto ready = [this] {
    return !queue_.empty() || active_producers_ == 0 || !first_error_.ok();
  };
  if (!ready()) {
    // Consumer starved: every producer fragment is still computing its
    // next batch. The wait span lands under this exchange's operator span
    // (the Next() wrapper made it current).
    WaitEventScope wait(QueueWaitStats(), WaitPoint::kQueue, "exchange");
    queue_ready_.wait(lock, ready);
  }
  if (!first_error_.ok()) return first_error_;
  if (queue_.empty()) return static_cast<Batch*>(nullptr);
  current_ = std::move(queue_.front());
  queue_.pop();
  queued_bytes_ -= current_->MemoryBytes();
  queue_reservation_.Set(queued_bytes_);
  rows_exchanged_ += current_->active_count();
  queue_space_.notify_one();
  return current_.get();
}

void ExchangeOperator::CloseImpl() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
  }
  queue_space_.notify_all();
  queue_ready_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  ctx_->stats.MergeFrom(fragment_stats_);
  fragment_stats_ = ExecStats();
  std::queue<std::unique_ptr<Batch>>().swap(queue_);
  current_.reset();
  // Workers are joined: every fragment operator (and its child tracker) is
  // gone, so the exchange tracker now reflects only residuals.
  RecordMemoryTracker(mem_.get());
  queued_bytes_ = 0;
  queue_reservation_.Clear();
}

void ExchangeOperator::AppendProfileCounters(OperatorProfile* node) const {
  node->counters.push_back({"degree", degree_});
  node->counters.push_back({"rows_exchanged", rows_exchanged_});
  for (const auto& [name, value] : static_counters_) {
    node->counters.push_back({name, value});
  }
}

void ExchangeOperator::AppendProfileChildren(OperatorProfile* node) const {
  if (fragments_merged_ == 0) return;
  OperatorProfile child = fragment_profile_;
  child.fragments = fragments_merged_;
  node->children.push_back(std::move(child));
}

}  // namespace vstore
