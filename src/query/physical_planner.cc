#include "query/physical_planner.h"

#include <algorithm>
#include <functional>
#include <map>

#include "common/macros.h"
#include "common/metrics.h"
#include "exec/exchange.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/mem_scan.h"
#include "exec/row/row_operator.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/union_all.h"
#include "query/system_views.h"

namespace vstore {

namespace {

// A Bloom filter waiting to be attached to the probe-side scan column with
// this name (propagates through filters, limits, and join probe sides).
struct PendingBloom {
  std::string column;
  const BloomFilter* filter;
};

// What one column-store scan reads: its ranges in order and, when its table
// is sharded, the table's pruning result (shards_total 0 otherwise), which
// the scan reports.
struct ScanWork {
  std::vector<ScanRange> ranges;
  int64_t shards_total = 0;
  int64_t shards_pruned = 0;
};

// Computes which shards a scan must touch, ascending. Equality pushdowns
// and IN-list notes on the partition column each constrain the candidate
// set to the shards their literal(s) hash to; multiple constraints
// intersect. Pruned shards are never snapshotted or scanned. Conservative
// by construction: predicates on other columns (or none at all) keep every
// shard, and the originating filters always stay in the plan, so pruning
// can only skip shards the predicates prove empty of matches.
std::vector<int> ComputeShardFanout(const ShardedTable& table,
                                    const LogicalPlan& scan) {
  const int n = table.num_shards();
  std::vector<bool> candidate(static_cast<size_t>(n), true);
  auto intersect = [&](const std::vector<bool>& allowed) {
    for (int i = 0; i < n; ++i) {
      size_t s = static_cast<size_t>(i);
      candidate[s] = candidate[s] && allowed[s];
    }
  };
  const std::string& key = table.partition_key();
  for (const NamedScanPredicate& pred : scan.pushed_predicates) {
    if (pred.op != CompareOp::kEq || pred.column != key) continue;
    std::vector<bool> allowed(static_cast<size_t>(n), false);
    allowed[static_cast<size_t>(table.ShardFor(pred.value))] = true;
    intersect(allowed);
  }
  for (const NamedInList& in : scan.pruning_in_lists) {
    if (in.column != key) continue;
    std::vector<bool> allowed(static_cast<size_t>(n), false);
    for (const Value& v : in.values) {
      allowed[static_cast<size_t>(table.ShardFor(v))] = true;
    }
    intersect(allowed);
  }
  std::vector<int> shards;
  for (int i = 0; i < n; ++i) {
    if (candidate[static_cast<size_t>(i)]) shards.push_back(i);
  }
  return shards;
}

// Lists the ranges a scan node reads, pinning one snapshot per column store
// it touches: the whole column store, or every shard that survives
// pruning. A scan whose shards are all pruned reads one empty range.
ScanWork ListScanRanges(const Catalog::Entry& entry, const LogicalPlan& scan) {
  ScanWork work;
  auto add_whole = [&work](const ColumnStoreTable* table) {
    TableSnapshot snapshot = table->Snapshot();
    const int64_t groups = snapshot->num_row_groups();
    work.ranges.push_back(ScanRange{std::move(snapshot), 0, groups, true});
  };
  if (!entry.has_sharded_table()) {
    add_whole(entry.column_store);
    return work;
  }
  const ShardedTable& table = *entry.sharded_table;
  const std::vector<int> shards = ComputeShardFanout(table, scan);
  work.shards_total = table.num_shards();
  work.shards_pruned = work.shards_total - static_cast<int64_t>(shards.size());
  for (int shard : shards) add_whole(table.shard(shard));
  if (work.ranges.empty()) work.ranges.push_back(ScanRange{});
  return work;
}

// Cuts a scan's ranges, in order, into at most `dop` fragments of nearly
// equal row-group counts, splitting ranges at group boundaries. A range's
// delta stores go with the piece that holds its last group (a range without
// groups stays whole), so each is read by exactly one fragment. Fragment 0
// carries the pruning result, so one scan per lowering reports it.
std::vector<ScanWork> CutScanRanges(const ScanWork& work, int dop) {
  int64_t groups = 0;
  for (const ScanRange& range : work.ranges) {
    groups += range.group_end - range.group_begin;
  }
  const int64_t degree = std::clamp<int64_t>(groups, 1, std::max(dop, 1));
  std::vector<ScanWork> fragments(static_cast<size_t>(degree));
  fragments[0].shards_total = work.shards_total;
  fragments[0].shards_pruned = work.shards_pruned;
  // Fragment f ends once (f + 1) * groups / degree groups are handed out.
  auto fragment_end = [groups, degree](int64_t f) {
    return (f + 1) * groups / degree;
  };
  int64_t f = 0;    // fragment being filled
  int64_t pos = 0;  // groups handed out so far
  for (const ScanRange& range : work.ranges) {
    int64_t begin = range.group_begin;
    do {
      while (f + 1 < degree && pos >= fragment_end(f)) ++f;
      const int64_t end =
          std::min(range.group_end, begin + fragment_end(f) - pos);
      fragments[static_cast<size_t>(f)].ranges.push_back(
          ScanRange{range.snapshot, begin, end,
                    range.include_deltas && end == range.group_end});
      pos += end - begin;
      begin = end;
    } while (begin < range.group_end);
  }
  return fragments;
}

// Registry-side pruning accounting, bumped by the scan that reports a
// sharded table's pruning result, so once per lowering that is built.
void RecordShardScatter(const std::string& table, int64_t scanned,
                        int64_t pruned) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("vstore_scan_shards_pruned_total", "table", table)
      ->Increment(pruned);
  registry.GetCounter("vstore_scan_shards_scanned_total", "table", table)
      ->Increment(scanned);
}

// Shared build state for joins inside a parallelized plan region, keyed by
// the logical join node. Fragment lowerings consult this to probe the
// chain's shared builds instead of giving each fragment its own build.
using SharedJoinMap =
    std::map<const LogicalPlan*, std::shared_ptr<SharedHashJoinBuild>>;

class Lowering {
 public:
  Lowering(const Catalog& catalog, ExecContext* ctx,
           const PhysicalPlanOptions& options, PhysicalPlan* out)
      : catalog_(catalog), ctx_(ctx), options_(options), out_(out) {}

  Result<BatchOperatorPtr> BuildBatch(const PlanPtr& plan,
                                      std::vector<PendingBloom> blooms);
  Result<RowOperatorPtr> BuildRow(const PlanPtr& plan);

  // Inside a fragment: what the one scan the fragment lowers reads.
  void set_scan_work(const ScanWork* work) { scan_work_ = work; }
  void set_shared_joins(const SharedJoinMap* joins, int fragment) {
    shared_joins_ = joins;
    fragment_id_ = fragment;
  }

 private:
  // A fragment of a parallel chain returns `finish` of its lowered chain.
  using FinishFragment =
      std::function<BatchOperatorPtr(BatchOperatorPtr chain, ExecContext*)>;
  // The fragments of a parallel chain; degree 0 when it does not apply.
  struct ParallelChain {
    ExchangeOperator::FragmentFactory factory;
    int degree = 0;
  };

  Result<BatchOperatorPtr> BuildBatchScan(const PlanPtr& plan,
                                          std::vector<PendingBloom> blooms);
  // Parallel chain: when `chain` is a parallel-join chain whose bottom scan
  // cuts into two or more fragments, lowers it once per fragment over that
  // fragment's ranges, every chain join probing one shared build.
  Result<ParallelChain> PlanParallelChain(const PlanPtr& chain,
                                          std::vector<PendingBloom> blooms,
                                          FinishFragment finish);
  // Parallel aggregation: partial aggregates in chain fragments, exchange,
  // final aggregate. Returns nullptr when the pattern does not apply.
  Result<BatchOperatorPtr> TryParallelAggregate(const PlanPtr& plan);
  // Parallel join: shared multi-threaded build, probe fragments over the
  // probe-side scan. Returns nullptr when the pattern does not apply.
  Result<BatchOperatorPtr> TryParallelJoin(const PlanPtr& plan,
                                           std::vector<PendingBloom> blooms);
  // Creates the build (factory + Bloom filter) of one join probed by
  // `probe_dop` fragments: 1 for a serial join.
  Result<std::shared_ptr<SharedHashJoinBuild>> PrepareSharedJoin(
      const PlanPtr& plan, int probe_dop);
  // Creates the shared builds for every join in a parallelized chain.
  Result<std::shared_ptr<SharedJoinMap>> PrepareSharedJoins(
      const std::vector<PlanPtr>& joins, int probe_dop);

  const Catalog& catalog_;
  ExecContext* ctx_;
  const PhysicalPlanOptions& options_;
  PhysicalPlan* out_;
  const ScanWork* scan_work_ = nullptr;
  const SharedJoinMap* shared_joins_ = nullptr;
  int fragment_id_ = 0;
};

// True when the subtree is scan/filter/project/join nodes descending the
// probe (left) side with a column store or a sharded table at the bottom:
// the shape that parallelizes as independent fragments over the bottom
// scan's ranges. Outputs the bottom scan node (pruning reads its
// predicates) and collects the join nodes (outermost first); build sides
// may be arbitrary subtrees — they are lowered once into shared builds,
// not per fragment.
bool IsParallelJoinChain(const Catalog& catalog, const PlanPtr& plan,
                         PlanPtr* scan_out,
                         std::vector<PlanPtr>* joins_out) {
  PlanPtr cursor = plan;
  for (;;) {
    switch (cursor->kind) {
      case PlanKind::kScan: {
        const Catalog::Entry* entry = catalog.Find(cursor->table);
        if (entry == nullptr ||
            (!entry->has_column_store() && !entry->has_sharded_table())) {
          return false;
        }
        *scan_out = cursor;
        return true;
      }
      case PlanKind::kFilter:
      case PlanKind::kProject:
        cursor = cursor->children[0];
        break;
      case PlanKind::kJoin:
        joins_out->push_back(cursor);
        cursor = cursor->children[0];
        break;
      default:
        return false;
    }
  }
}


Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    int idx = schema.IndexOf(name);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + name);
    out.push_back(idx);
  }
  return out;
}

Result<std::vector<AggSpec>> ResolveAggs(
    const Schema& schema, const std::vector<NamedAggSpec>& named) {
  std::vector<AggSpec> out;
  out.reserve(named.size());
  for (const NamedAggSpec& spec : named) {
    int idx = -1;
    if (spec.fn != AggFn::kCountStar) {
      idx = schema.IndexOf(spec.column);
      if (idx < 0) {
        return Status::InvalidArgument("unknown aggregate column: " +
                                       spec.column);
      }
    }
    out.push_back(AggSpec{spec.fn, idx, spec.name});
  }
  return out;
}

// Rebuilds a pushed predicate as an expression (row-mode scans evaluate
// pushdowns as ordinary filters).
ExprPtr PredicateToExpr(const Schema& schema, const NamedScanPredicate& pred) {
  return expr::Cmp(pred.op, expr::Column(schema, pred.column),
                   expr::Lit(pred.value));
}

// Tuple-at-a-time LIMIT for row-mode plans.
class RowLimitOperator final : public RowOperator {
 public:
  RowLimitOperator(RowOperatorPtr input, int64_t limit)
      : input_(std::move(input)), limit_(limit) {}

  Status Open() override {
    remaining_ = limit_;
    return input_->Open();
  }
  Result<bool> Next(std::vector<Value>* row) override {
    if (remaining_ <= 0) return false;
    VSTORE_ASSIGN_OR_RETURN(bool more, input_->Next(row));
    if (!more) return false;
    --remaining_;
    return true;
  }
  void Close() override { input_->Close(); }
  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "RowLimit"; }

 private:
  RowOperatorPtr input_;
  int64_t limit_;
  int64_t remaining_ = 0;
};

Result<BatchOperatorPtr> Lowering::BuildBatchScan(
    const PlanPtr& plan, std::vector<PendingBloom> blooms) {
  const Catalog::Entry* entry = catalog_.Find(plan->table);
  if (entry == nullptr) return Status::NotFound("unknown table " + plan->table);

  if (entry->has_system_view()) {
    // Virtual table: materialize the view now (it pins its own storage
    // snapshots) and scan the result in memory. Pushed predicates become
    // batch filters; pending blooms cannot be pushed into a materialized
    // scan — drop them, the join still filters exactly.
    VSTORE_ASSIGN_OR_RETURN(TableData materialized,
                            entry->system_view->Materialize(catalog_));
    auto data = std::make_shared<const TableData>(std::move(materialized));
    BatchOperatorPtr batch = std::make_unique<MemTableScanOperator>(
        std::move(data), plan->table, ctx_);
    for (const NamedScanPredicate& pred : plan->pushed_predicates) {
      batch = std::make_unique<FilterOperator>(
          std::move(batch), PredicateToExpr(entry->schema(), pred), ctx_);
    }
    if (!plan->scan_columns.empty()) {
      std::vector<ExprPtr> exprs;
      for (const std::string& name : plan->scan_columns) {
        exprs.push_back(expr::Column(entry->schema(), name));
      }
      batch = std::make_unique<ProjectOperator>(
          std::move(batch), std::move(exprs), plan->scan_columns, ctx_);
    }
    return batch;
  }

  if (!entry->has_column_store() && !entry->has_sharded_table()) {
    // Batch plan over a row store: adapt a row scan, predicates become a
    // batch filter (pending blooms cannot be pushed; drop them — the join
    // still filters exactly).
    RowOperatorPtr scan =
        std::make_unique<RowStoreScanOperator>(entry->row_store);
    BatchOperatorPtr batch =
        std::make_unique<RowToBatchAdapter>(std::move(scan), ctx_);
    for (const NamedScanPredicate& pred : plan->pushed_predicates) {
      batch = std::make_unique<FilterOperator>(
          std::move(batch), PredicateToExpr(entry->schema(), pred), ctx_);
    }
    if (!plan->scan_columns.empty()) {
      std::vector<ExprPtr> exprs;
      for (const std::string& name : plan->scan_columns) {
        exprs.push_back(expr::Column(entry->schema(), name));
      }
      batch = std::make_unique<ProjectOperator>(
          std::move(batch), std::move(exprs), plan->scan_columns, ctx_);
    }
    return batch;
  }

  // Projection, pushdowns, and Bloom specs resolve against the logical
  // schema, which every shard shares.
  const Schema& schema = entry->schema();
  ColumnStoreScanOperator::Options scan_options;
  scan_options.label = plan->table;
  for (const std::string& name : plan->scan_columns) {
    int idx = schema.IndexOf(name);
    if (idx < 0) return Status::InvalidArgument("unknown scan column " + name);
    scan_options.projection.push_back(idx);
  }
  for (const NamedScanPredicate& pred : plan->pushed_predicates) {
    int idx = schema.IndexOf(pred.column);
    if (idx < 0) {
      return Status::InvalidArgument("unknown pushdown column " + pred.column);
    }
    scan_options.predicates.push_back(ScanPredicate{idx, pred.op, pred.value});
  }
  for (const PendingBloom& pb : blooms) {
    int idx = schema.IndexOf(pb.column);
    if (idx < 0) continue;  // column renamed away; join still filters
    scan_options.bloom_filters.push_back(BloomFilterSpec{idx, pb.filter});
  }

  // The ranges name the shard each piece reads; the scan takes only the
  // schema from its table.
  const ColumnStoreTable* table = entry->has_sharded_table()
                                      ? entry->sharded_table->shard(0)
                                      : entry->column_store;
  auto make_scan = [table, scan_options](const ScanWork& work,
                                         ExecContext* ctx) {
    ColumnStoreScanOperator::Options options = scan_options;
    options.ranges = work.ranges;
    auto scan =
        std::make_unique<ColumnStoreScanOperator>(table, std::move(options), ctx);
    if (work.shards_total > 0) {
      scan->ReportShardPruning(work.shards_total, work.shards_pruned);
      RecordShardScatter(scan_options.label,
                         work.shards_total - work.shards_pruned,
                         work.shards_pruned);
    }
    return BatchOperatorPtr(std::move(scan));
  };
  if (scan_work_ != nullptr) return make_scan(*scan_work_, ctx_);

  auto fragments = std::make_shared<const std::vector<ScanWork>>(
      CutScanRanges(ListScanRanges(*entry, *plan), options_.dop));
  if (fragments->size() == 1) return make_scan(fragments->front(), ctx_);
  auto factory = [fragments, make_scan](
                     int fragment,
                     ExecContext* fctx) -> Result<BatchOperatorPtr> {
    return make_scan((*fragments)[static_cast<size_t>(fragment)], fctx);
  };
  Schema out_schema = scan_options.projection.empty()
                          ? schema
                          : schema.Project(scan_options.projection);
  return BatchOperatorPtr(std::make_unique<ExchangeOperator>(
      std::move(out_schema), std::move(factory),
      static_cast<int>(fragments->size()), ctx_));
}

Result<Lowering::ParallelChain> Lowering::PlanParallelChain(
    const PlanPtr& chain, std::vector<PendingBloom> blooms,
    FinishFragment finish) {
  PlanPtr scan_node;
  std::vector<PlanPtr> joins;
  if (!IsParallelJoinChain(catalog_, chain, &scan_node, &joins)) {
    return ParallelChain{};
  }
  auto fragments = std::make_shared<const std::vector<ScanWork>>(
      CutScanRanges(ListScanRanges(*catalog_.Find(scan_node->table),
                                   *scan_node),
                    options_.dop));
  const int degree = static_cast<int>(fragments->size());
  if (degree < 2) return ParallelChain{};

  // Joins on the probe spine share one build across all fragments, so
  // scan → join → partial agg parallelizes as a single fragment tree.
  VSTORE_ASSIGN_OR_RETURN(std::shared_ptr<SharedJoinMap> shared_map,
                          PrepareSharedJoins(joins, degree));
  const Catalog* catalog = &catalog_;
  PhysicalPlanOptions options = options_;
  ParallelChain out;
  out.degree = degree;
  out.factory = [catalog, options, chain, shared_map, fragments, blooms,
                 finish](int fragment,
                         ExecContext* fctx) -> Result<BatchOperatorPtr> {
    PhysicalPlan scratch;
    Lowering sub(*catalog, fctx, options, &scratch);
    sub.set_scan_work(&(*fragments)[static_cast<size_t>(fragment)]);
    sub.set_shared_joins(shared_map.get(), fragment);
    VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr op, sub.BuildBatch(chain, blooms));
    // Fragment lowerings attach no resources of their own: chain joins use
    // the shared builds, whose filters live in the outer plan.
    VSTORE_CHECK(scratch.bloom_filters.empty() &&
                 scratch.shared_builds.empty());
    return finish(std::move(op), fctx);
  };
  return out;
}

Result<std::shared_ptr<SharedHashJoinBuild>> Lowering::PrepareSharedJoin(
    const PlanPtr& plan, int probe_dop) {
  SharedHashJoinBuild::Options join_options;
  join_options.join_type = plan->join_type;
  VSTORE_ASSIGN_OR_RETURN(
      join_options.probe_keys,
      ResolveColumns(plan->children[0]->schema, plan->left_keys));
  VSTORE_ASSIGN_OR_RETURN(
      join_options.build_keys,
      ResolveColumns(plan->children[1]->schema, plan->right_keys));
  if (plan->use_bloom && plan->left_keys.size() == 1) {
    // Single-key blooms only: multi-key combined hashes differ between the
    // per-column scan hash and the joint key hash.
    auto filter = std::make_unique<BloomFilter>();
    join_options.bloom_target = filter.get();
    out_->bloom_filters.push_back(std::move(filter));
  }

  // The build of a parallel join parallelizes when the build side is a
  // plain scan/filter/project chain: each build fragment lowers it over its
  // share of the scan's ranges. Anything else (nested joins, aggregates) is
  // lowered and drained by a single build fragment.
  PlanPtr build_plan = plan->children[1];
  std::shared_ptr<const std::vector<ScanWork>> fragments;
  PlanPtr scan_node;
  std::vector<PlanPtr> joins;
  if (probe_dop > 1 &&
      IsParallelJoinChain(catalog_, build_plan, &scan_node, &joins) &&
      joins.empty()) {
    fragments = std::make_shared<const std::vector<ScanWork>>(CutScanRanges(
        ListScanRanges(*catalog_.Find(scan_node->table), *scan_node),
        probe_dop));
  }

  const Catalog* catalog = &catalog_;
  PhysicalPlanOptions options = options_;
  // Build fragments of a parallel join must not nest exchanges; a serial
  // join's build side lowers like any other subtree.
  if (probe_dop > 1) options.dop = 1;
  SharedHashJoinBuild::BuildFactory factory =
      [catalog, options, build_plan, fragments](
          int fragment, ExecContext* fctx,
          std::shared_ptr<void>* resources) -> Result<BatchOperatorPtr> {
    auto scratch = std::make_shared<PhysicalPlan>();
    Lowering sub(*catalog, fctx, options, scratch.get());
    if (fragments != nullptr) {
      sub.set_scan_work(&(*fragments)[static_cast<size_t>(fragment)]);
    }
    VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr op,
                            sub.BuildBatch(build_plan, {}));
    // Joins nested inside the build subtree own Bloom filters through the
    // scratch plan; keep it alive for the fragment's lifetime.
    *resources = std::move(scratch);
    return op;
  };
  const int build_dop =
      fragments != nullptr ? static_cast<int>(fragments->size()) : 1;
  return std::make_shared<SharedHashJoinBuild>(
      plan->children[1]->schema, std::move(join_options), std::move(factory),
      build_dop, probe_dop);
}

Result<std::shared_ptr<SharedJoinMap>> Lowering::PrepareSharedJoins(
    const std::vector<PlanPtr>& joins, int probe_dop) {
  auto map = std::make_shared<SharedJoinMap>();
  for (const PlanPtr& join_plan : joins) {
    VSTORE_ASSIGN_OR_RETURN(std::shared_ptr<SharedHashJoinBuild> shared,
                            PrepareSharedJoin(join_plan, probe_dop));
    (*map)[join_plan.get()] = shared;
    out_->shared_builds.push_back(std::move(shared));
  }
  return map;
}

Result<BatchOperatorPtr> Lowering::TryParallelJoin(
    const PlanPtr& plan, std::vector<PendingBloom> blooms) {
  // Fragments lower the whole probe spine over their ranges; the join
  // nodes resolve to probe operators over the shared builds.
  VSTORE_ASSIGN_OR_RETURN(
      ParallelChain chain,
      PlanParallelChain(plan, std::move(blooms),
                        [](BatchOperatorPtr op, ExecContext*) { return op; }));
  if (chain.degree == 0) return BatchOperatorPtr(nullptr);
  Schema out_schema =
      HashJoinOutputSchema(plan->children[0]->schema,
                           plan->children[1]->schema, plan->join_type);
  return BatchOperatorPtr(std::make_unique<ExchangeOperator>(
      std::move(out_schema), std::move(chain.factory), chain.degree, ctx_,
      "HashJoin"));
}

Result<BatchOperatorPtr> Lowering::TryParallelAggregate(const PlanPtr& plan) {
  const Schema& child_schema = plan->children[0]->schema;
  VSTORE_ASSIGN_OR_RETURN(std::vector<AggSpec> aggs,
                          ResolveAggs(child_schema, plan->aggregates));
  VSTORE_ASSIGN_OR_RETURN(std::vector<int> group_by,
                          ResolveColumns(child_schema, plan->group_by));
  // Fragments: chain + partial aggregation over their ranges.
  VSTORE_ASSIGN_OR_RETURN(
      ParallelChain chain,
      PlanParallelChain(
          plan->children[0], {},
          [aggs, group_by](BatchOperatorPtr op, ExecContext* fctx) {
            HashAggregateOperator::Options partial;
            partial.group_by = group_by;
            partial.aggregates = aggs;
            partial.phase = AggPhase::kPartial;
            return BatchOperatorPtr(std::make_unique<HashAggregateOperator>(
                std::move(op), std::move(partial), fctx));
          }));
  if (chain.degree == 0) return BatchOperatorPtr(nullptr);
  BatchOperatorPtr exchange = std::make_unique<ExchangeOperator>(
      HashAggregateOperator::PartialSchema(child_schema, group_by, aggs),
      std::move(chain.factory), chain.degree, ctx_);

  // Final aggregation over the partial rows.
  HashAggregateOperator::Options final_options;
  final_options.phase = AggPhase::kFinal;
  for (size_t k = 0; k < group_by.size(); ++k) {
    final_options.group_by.push_back(static_cast<int>(k));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    AggSpec spec = aggs[a];
    spec.column = static_cast<int>(group_by.size() + 2 * a);
    final_options.aggregates.push_back(std::move(spec));
  }
  return BatchOperatorPtr(std::make_unique<HashAggregateOperator>(
      std::move(exchange), std::move(final_options), ctx_));
}

Result<BatchOperatorPtr> Lowering::BuildBatch(
    const PlanPtr& plan, std::vector<PendingBloom> blooms) {
  switch (plan->kind) {
    case PlanKind::kScan:
      return BuildBatchScan(plan, std::move(blooms));

    case PlanKind::kFilter: {
      VSTORE_ASSIGN_OR_RETURN(
          BatchOperatorPtr child,
          BuildBatch(plan->children[0], std::move(blooms)));
      return BatchOperatorPtr(std::make_unique<FilterOperator>(
          std::move(child), plan->predicate, ctx_));
    }

    case PlanKind::kProject: {
      // Bloom columns do not propagate through projections (names/exprs
      // change); attach nothing below.
      VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildBatch(plan->children[0], {}));
      return BatchOperatorPtr(std::make_unique<ProjectOperator>(
          std::move(child), plan->exprs, plan->names, ctx_));
    }

    case PlanKind::kJoin: {
      // Inside a parallel fragment a chain join probes the build shared by
      // the whole chain (its Bloom filter, if any, was created with it);
      // elsewhere the join gets its own build, probed by one fragment
      // unless the whole chain parallelizes.
      std::shared_ptr<SharedHashJoinBuild> shared;
      int fragment = 0;
      if (shared_joins_ != nullptr) {
        auto it = shared_joins_->find(plan.get());
        if (it != shared_joins_->end()) {
          shared = it->second;
          fragment = fragment_id_;
        }
      } else if (options_.dop > 1 && scan_work_ == nullptr) {
        VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr parallel,
                                TryParallelJoin(plan, blooms));
        if (parallel != nullptr) return parallel;
      }
      if (shared == nullptr) {
        VSTORE_ASSIGN_OR_RETURN(shared, PrepareSharedJoin(plan, 1));
      }
      if (shared->bloom_target() != nullptr) {
        blooms.push_back(
            PendingBloom{plan->left_keys[0], shared->bloom_target()});
      }
      VSTORE_ASSIGN_OR_RETURN(
          BatchOperatorPtr probe,
          BuildBatch(plan->children[0], std::move(blooms)));
      return BatchOperatorPtr(std::make_unique<HashJoinOperator>(
          std::move(probe), std::move(shared), fragment, ctx_));
    }

    case PlanKind::kAggregate: {
      if (options_.dop > 1 && scan_work_ == nullptr) {
        VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr parallel,
                                TryParallelAggregate(plan));
        if (parallel != nullptr) return parallel;
      }
      VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildBatch(plan->children[0], {}));
      VSTORE_ASSIGN_OR_RETURN(
          std::vector<AggSpec> aggs,
          ResolveAggs(plan->children[0]->schema, plan->aggregates));
      HashAggregateOperator::Options agg_options;
      VSTORE_ASSIGN_OR_RETURN(
          agg_options.group_by,
          ResolveColumns(plan->children[0]->schema, plan->group_by));
      agg_options.aggregates = std::move(aggs);
      return BatchOperatorPtr(std::make_unique<HashAggregateOperator>(
          std::move(child), std::move(agg_options), ctx_));
    }

    case PlanKind::kSort: {
      VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildBatch(plan->children[0], {}));
      std::vector<SortKey> keys;
      for (const SortSpec& spec : plan->sort_keys) {
        int idx = plan->children[0]->schema.IndexOf(spec.column);
        if (idx < 0) {
          return Status::InvalidArgument("unknown sort column " + spec.column);
        }
        keys.push_back(SortKey{idx, spec.ascending});
      }
      return BatchOperatorPtr(std::make_unique<SortOperator>(
          std::move(child), std::move(keys), plan->limit, ctx_));
    }

    case PlanKind::kLimit: {
      VSTORE_ASSIGN_OR_RETURN(
          BatchOperatorPtr child,
          BuildBatch(plan->children[0], std::move(blooms)));
      return BatchOperatorPtr(
          std::make_unique<LimitOperator>(std::move(child), plan->limit, ctx_));
    }

    case PlanKind::kUnionAll: {
      std::vector<BatchOperatorPtr> children;
      for (const PlanPtr& c : plan->children) {
        VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr child, BuildBatch(c, {}));
        children.push_back(std::move(child));
      }
      return BatchOperatorPtr(
          std::make_unique<UnionAllOperator>(std::move(children), ctx_));
    }
  }
  return Status::Internal("unknown plan kind");
}

// Row-mode scan of a sharded table: drains each shard's row scan in shard
// order (row mode is the serial baseline; shard pruning is a batch-mode
// optimization).
class RowConcatOperator final : public RowOperator {
 public:
  explicit RowConcatOperator(std::vector<RowOperatorPtr> children)
      : children_(std::move(children)) {
    VSTORE_CHECK(!children_.empty());
  }

  Status Open() override {
    current_ = 0;
    for (auto& child : children_) {
      VSTORE_RETURN_IF_ERROR(child->Open());
    }
    return Status::OK();
  }

  Result<bool> Next(std::vector<Value>* row) override {
    while (current_ < children_.size()) {
      VSTORE_ASSIGN_OR_RETURN(bool has_row, children_[current_]->Next(row));
      if (has_row) return true;
      ++current_;
    }
    return false;
  }

  void Close() override {
    for (auto& child : children_) child->Close();
  }

  const Schema& output_schema() const override {
    return children_.front()->output_schema();
  }
  std::string name() const override { return "RowConcat"; }

 private:
  std::vector<RowOperatorPtr> children_;
  size_t current_ = 0;
};

Result<RowOperatorPtr> Lowering::BuildRow(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      const Catalog::Entry* entry = catalog_.Find(plan->table);
      if (entry == nullptr) {
        return Status::NotFound("unknown table " + plan->table);
      }
      RowOperatorPtr scan;
      if (entry->has_sharded_table()) {
        std::vector<RowOperatorPtr> shard_scans;
        const ShardedTable* sharded = entry->sharded_table;
        for (int i = 0; i < sharded->num_shards(); ++i) {
          shard_scans.push_back(
              std::make_unique<ColumnStoreRowScanOperator>(sharded->shard(i)));
        }
        scan = std::make_unique<RowConcatOperator>(std::move(shard_scans));
      } else if (entry->has_system_view()) {
        VSTORE_ASSIGN_OR_RETURN(TableData materialized,
                                entry->system_view->Materialize(catalog_));
        scan = std::make_unique<MemTableRowScanOperator>(
            std::make_shared<const TableData>(std::move(materialized)),
            plan->table);
      } else if (entry->has_row_store()) {
        scan = std::make_unique<RowStoreScanOperator>(entry->row_store);
      } else {
        scan =
            std::make_unique<ColumnStoreRowScanOperator>(entry->column_store);
      }
      // Pushed predicates run as row filters (row mode has no segment
      // elimination — that asymmetry is the point of experiment E3).
      for (const NamedScanPredicate& pred : plan->pushed_predicates) {
        scan = std::make_unique<RowFilterOperator>(
            std::move(scan), PredicateToExpr(entry->schema(), pred));
      }
      if (!plan->scan_columns.empty()) {
        // Column pruning only narrows the schema here: a row store still
        // materializes whole rows first (the asymmetry columnar storage
        // exploits).
        std::vector<ExprPtr> exprs;
        for (const std::string& name : plan->scan_columns) {
          exprs.push_back(expr::Column(entry->schema(), name));
        }
        scan = std::make_unique<RowProjectOperator>(
            std::move(scan), std::move(exprs), plan->scan_columns);
      }
      return scan;
    }

    case PlanKind::kFilter: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      return RowOperatorPtr(std::make_unique<RowFilterOperator>(
          std::move(child), plan->predicate));
    }

    case PlanKind::kProject: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      return RowOperatorPtr(std::make_unique<RowProjectOperator>(
          std::move(child), plan->exprs, plan->names));
    }

    case PlanKind::kJoin: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr probe,
                              BuildRow(plan->children[0]));
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr build,
                              BuildRow(plan->children[1]));
      RowHashJoinOperator::Options join_options;
      join_options.join_type = plan->join_type;
      VSTORE_ASSIGN_OR_RETURN(
          join_options.probe_keys,
          ResolveColumns(plan->children[0]->schema, plan->left_keys));
      VSTORE_ASSIGN_OR_RETURN(
          join_options.build_keys,
          ResolveColumns(plan->children[1]->schema, plan->right_keys));
      return RowOperatorPtr(std::make_unique<RowHashJoinOperator>(
          std::move(probe), std::move(build), std::move(join_options)));
    }

    case PlanKind::kAggregate: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      RowHashAggregateOperator::Options agg_options;
      VSTORE_ASSIGN_OR_RETURN(
          agg_options.group_by,
          ResolveColumns(plan->children[0]->schema, plan->group_by));
      VSTORE_ASSIGN_OR_RETURN(
          agg_options.aggregates,
          ResolveAggs(plan->children[0]->schema, plan->aggregates));
      return RowOperatorPtr(std::make_unique<RowHashAggregateOperator>(
          std::move(child), std::move(agg_options)));
    }

    case PlanKind::kSort: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      std::vector<SortKey> keys;
      for (const SortSpec& spec : plan->sort_keys) {
        int idx = plan->children[0]->schema.IndexOf(spec.column);
        if (idx < 0) {
          return Status::InvalidArgument("unknown sort column " + spec.column);
        }
        keys.push_back(SortKey{idx, spec.ascending});
      }
      return RowOperatorPtr(std::make_unique<RowSortOperator>(
          std::move(child), std::move(keys), plan->limit));
    }

    case PlanKind::kLimit: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      return RowOperatorPtr(
          std::make_unique<RowLimitOperator>(std::move(child), plan->limit));
    }

    case PlanKind::kUnionAll:
      return Status::Unimplemented("row-mode UNION ALL");
  }
  return Status::Internal("unknown plan kind");
}

bool AllScansHaveColumnStores(const Catalog& catalog, const PlanPtr& plan) {
  if (plan->kind == PlanKind::kScan) {
    const Catalog::Entry* entry = catalog.Find(plan->table);
    // System views are batch-capable: their materialized scan is columnar.
    return entry != nullptr &&
           (entry->has_column_store() || entry->has_sharded_table() ||
            entry->has_system_view());
  }
  for (const PlanPtr& child : plan->children) {
    if (!AllScansHaveColumnStores(catalog, child)) return false;
  }
  return true;
}

}  // namespace

Result<PhysicalPlan> CreatePhysicalPlan(const Catalog& catalog,
                                        const PlanPtr& plan, ExecContext* ctx,
                                        const PhysicalPlanOptions& options) {
  PhysicalPlan physical;
  Lowering lowering(catalog, ctx, options, &physical);

  bool batch = options.mode == ExecutionMode::kBatch ||
               (options.mode == ExecutionMode::kAuto &&
                AllScansHaveColumnStores(catalog, plan));
  if (batch) {
    VSTORE_ASSIGN_OR_RETURN(physical.root, lowering.BuildBatch(plan, {}));
  } else {
    VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr root, lowering.BuildRow(plan));
    physical.root = std::make_unique<RowToBatchAdapter>(std::move(root), ctx);
  }
  return physical;
}

}  // namespace vstore
