#ifndef VSTORE_EXEC_EXCHANGE_H_
#define VSTORE_EXEC_EXCHANGE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/operator.h"

namespace vstore {

// Exchange operator: runs `degree` plan fragments on worker threads and
// funnels their output batches through a bounded queue (the paper's batch
// exchange for parallel plans; fragments typically cover disjoint row-group
// ranges of a scan, often with partial aggregation on top).
//
// Each fragment gets its own ExecContext (FragmentContext); their stats
// are merged into the parent context when the exchange closes.
class ExchangeOperator final : public BatchOperator {
 public:
  // Builds the operator tree for fragment `i` against `fragment_ctx`.
  using FragmentFactory =
      std::function<Result<BatchOperatorPtr>(int fragment,
                                             ExecContext* fragment_ctx)>;

  // `label` names the parallelized region in EXPLAIN ANALYZE output, e.g.
  // "Exchange(HashJoin)"; empty keeps the plain "Exchange" name.
  ExchangeOperator(Schema output_schema, FragmentFactory factory, int degree,
                   ExecContext* ctx, std::string label = "");
  ~ExchangeOperator() override;

  // Plan-time facts to surface in EXPLAIN ANALYZE alongside the runtime
  // counters (the sharded scatter lowering records shards_total /
  // shards_pruned here). Appended after degree/rows_exchanged, in order.
  void AddStaticCounter(std::string name, int64_t value) {
    static_counters_.emplace_back(std::move(name), value);
  }

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override {
    return label_.empty() ? "Exchange" : "Exchange(" + label_ + ")";
  }

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  void AppendProfileCounters(OperatorProfile* node) const override;
  // Attaches the merged fragment profile as this node's single child.
  // Fragment profiles are summed node-wise as fragments finish (int64
  // additions commute, so the result is deterministic regardless of
  // completion order); `fragments` on the child records how many merged.
  void AppendProfileChildren(OperatorProfile* node) const override;

 private:
  void RunFragment(int fragment);
  void Push(std::unique_ptr<Batch> batch);

  Schema output_schema_;
  FragmentFactory factory_;
  int degree_;
  ExecContext* ctx_;
  std::string label_;
  std::vector<std::pair<std::string, int64_t>> static_counters_;

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<ExecContext>> fragment_ctxs_;

  // Exchange-level tracker (null when tracking is off) with one child per
  // fragment: operators inside a fragment hang off the fragment tracker,
  // so the exchange's peak covers the queue plus every fragment subtree.
  // Declared before the fragment trackers and the queue reservation so
  // both release into a live parent on destruction.
  std::unique_ptr<MemoryTracker> mem_;
  std::vector<std::unique_ptr<MemoryTracker>> fragment_trackers_;
  MemoryReservation queue_reservation_;  // queued batch copies, under mu_
  int64_t queued_bytes_ = 0;             // guarded by mu_

  std::mutex mu_;
  std::condition_variable queue_ready_;   // consumer waits
  std::condition_variable queue_space_;   // producers wait
  std::queue<std::unique_ptr<Batch>> queue_;
  static constexpr size_t kQueueCapacity = 8;
  int active_producers_ = 0;
  bool cancelled_ = false;
  Status first_error_;

  // Finished fragments' ExecStats, summed under mu_ by the workers and
  // folded into ctx_->stats by Close() once they are joined: operators
  // above the exchange update ctx_->stats on the consumer thread meanwhile.
  ExecStats fragment_stats_;
  // Node-wise sum of finished fragments' profiles, guarded by mu_ while
  // workers run; read from BuildProfile after Close() joined them.
  OperatorProfile fragment_profile_;
  int64_t fragments_merged_ = 0;
  int64_t rows_exchanged_ = 0;

  std::unique_ptr<Batch> current_;  // batch handed to the consumer
};

}  // namespace vstore

#endif  // VSTORE_EXEC_EXCHANGE_H_
