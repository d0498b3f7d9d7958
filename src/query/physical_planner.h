#ifndef VSTORE_QUERY_PHYSICAL_PLANNER_H_
#define VSTORE_QUERY_PHYSICAL_PLANNER_H_

#include <memory>
#include <vector>

#include "exec/bloom_filter.h"
#include "exec/operator.h"
#include "query/logical_plan.h"

namespace vstore {

class SharedHashJoinBuild;

// How plans execute. kAuto picks batch mode when every scanned table has a
// column store (the paper's mode selection) and row mode otherwise.
enum class ExecutionMode { kAuto, kBatch, kRow };

struct PhysicalPlanOptions {
  ExecutionMode mode = ExecutionMode::kAuto;
  // Degree of parallelism for column store scans (exchange operator).
  int dop = 1;
};

// A lowered plan: the operator tree plus resources (Bloom filters, shared
// parallel-join build state) that must outlive execution.
struct PhysicalPlan {
  BatchOperatorPtr root;
  std::vector<std::unique_ptr<BloomFilter>> bloom_filters;
  // Shared build sides of parallelized hash joins; every probe fragment of
  // the owning exchange holds a reference, the plan keeps them rooted.
  std::vector<std::shared_ptr<SharedHashJoinBuild>> shared_builds;
};

// Lowers an optimized logical plan onto batch or row operators. Row-mode
// trees are wrapped in a RowToBatchAdapter so the executor drives one
// interface.
Result<PhysicalPlan> CreatePhysicalPlan(const Catalog& catalog,
                                        const PlanPtr& plan, ExecContext* ctx,
                                        const PhysicalPlanOptions& options);

}  // namespace vstore

#endif  // VSTORE_QUERY_PHYSICAL_PLANNER_H_
