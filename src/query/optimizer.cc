#include "query/optimizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "common/macros.h"

namespace vstore {

namespace {

// --- Expression utilities -------------------------------------------------

void CollectColumnIndices(const ExprPtr& expr, std::set<int>* out) {
  switch (expr->kind()) {
    case ExprKind::kColumn:
      out->insert(static_cast<const ColumnRefExpr*>(expr.get())->index());
      return;
    case ExprKind::kLiteral:
      return;
    case ExprKind::kCompare: {
      const auto* e = static_cast<const CompareExpr*>(expr.get());
      CollectColumnIndices(e->left(), out);
      CollectColumnIndices(e->right(), out);
      return;
    }
    case ExprKind::kArith: {
      const auto* e = static_cast<const ArithExpr*>(expr.get());
      CollectColumnIndices(e->left(), out);
      CollectColumnIndices(e->right(), out);
      return;
    }
    case ExprKind::kBool: {
      const auto* e = static_cast<const BoolExpr*>(expr.get());
      CollectColumnIndices(e->left(), out);
      CollectColumnIndices(e->right(), out);
      return;
    }
    case ExprKind::kNot:
      CollectColumnIndices(static_cast<const NotExpr*>(expr.get())->input(),
                           out);
      return;
    case ExprKind::kIsNull:
      CollectColumnIndices(
          static_cast<const IsNullExpr*>(expr.get())->input(), out);
      return;
    case ExprKind::kYear:
      CollectColumnIndices(static_cast<const YearExpr*>(expr.get())->input(),
                           out);
      return;
    case ExprKind::kStartsWith:
      CollectColumnIndices(
          static_cast<const StartsWithExpr*>(expr.get())->input(), out);
      return;
    case ExprKind::kIn:
      CollectColumnIndices(static_cast<const InExpr*>(expr.get())->input(),
                           out);
      return;
  }
}

// Rebuilds an expression with every column index rewritten through `map`.
ExprPtr MapColumns(const ExprPtr& expr, const std::function<int(int)>& map) {
  switch (expr->kind()) {
    case ExprKind::kColumn: {
      const auto* e = static_cast<const ColumnRefExpr*>(expr.get());
      int idx = map(e->index());
      VSTORE_CHECK(idx >= 0);
      return std::make_shared<ColumnRefExpr>(idx, e->output_type(), e->name());
    }
    case ExprKind::kLiteral:
      return expr;
    case ExprKind::kCompare: {
      const auto* e = static_cast<const CompareExpr*>(expr.get());
      return std::make_shared<CompareExpr>(e->op(), MapColumns(e->left(), map),
                                           MapColumns(e->right(), map));
    }
    case ExprKind::kArith: {
      const auto* e = static_cast<const ArithExpr*>(expr.get());
      return std::make_shared<ArithExpr>(e->op(), MapColumns(e->left(), map),
                                         MapColumns(e->right(), map),
                                         e->output_type());
    }
    case ExprKind::kBool: {
      const auto* e = static_cast<const BoolExpr*>(expr.get());
      return std::make_shared<BoolExpr>(e->op(), MapColumns(e->left(), map),
                                        MapColumns(e->right(), map));
    }
    case ExprKind::kNot:
      return std::make_shared<NotExpr>(MapColumns(
          static_cast<const NotExpr*>(expr.get())->input(), map));
    case ExprKind::kIsNull:
      return std::make_shared<IsNullExpr>(MapColumns(
          static_cast<const IsNullExpr*>(expr.get())->input(), map));
    case ExprKind::kYear:
      return std::make_shared<YearExpr>(MapColumns(
          static_cast<const YearExpr*>(expr.get())->input(), map));
    case ExprKind::kStartsWith: {
      const auto* e = static_cast<const StartsWithExpr*>(expr.get());
      return std::make_shared<StartsWithExpr>(MapColumns(e->input(), map),
                                              e->prefix());
    }
    case ExprKind::kIn: {
      const auto* e = static_cast<const InExpr*>(expr.get());
      return std::make_shared<InExpr>(MapColumns(e->input(), map),
                                      e->values());
    }
  }
  return expr;
}

ExprPtr ShiftColumns(const ExprPtr& expr, int delta) {
  return MapColumns(expr, [delta](int i) { return i + delta; });
}

// Recognizes `column OP literal` (either orientation); returns true and
// fills the pushdown form.
bool AsSargable(const ExprPtr& expr, const Schema& schema,
                NamedScanPredicate* out) {
  if (expr->kind() != ExprKind::kCompare) return false;
  const auto* cmp = static_cast<const CompareExpr*>(expr.get());
  const Expr* l = cmp->left().get();
  const Expr* r = cmp->right().get();
  CompareOp op = cmp->op();
  if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn) {
    std::swap(l, r);
    // Flip the comparison when operands swap sides.
    switch (op) {
      case CompareOp::kLt:
        op = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        op = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        op = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        op = CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  if (l->kind() != ExprKind::kColumn || r->kind() != ExprKind::kLiteral) {
    return false;
  }
  const auto* col = static_cast<const ColumnRefExpr*>(l);
  const auto* lit = static_cast<const LiteralExpr*>(r);
  if (lit->value().is_null()) return false;
  out->column = col->name();
  out->op = op;
  out->value = lit->value();
  return true;
}

ExprPtr ConjunctionOf(const std::vector<ExprPtr>& conjuncts) {
  VSTORE_DCHECK(!conjuncts.empty());
  ExprPtr result = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = expr::And(result, conjuncts[i]);
  }
  return result;
}

// --- Rules ------------------------------------------------------------------

// Sinks a filter's conjuncts into scans and through joins. Returns the
// replacement for `node` (a Filter whose child changed, a bare child, etc.).
PlanPtr PushDownFilters(PlanPtr node) {
  // Bottom-up.
  for (auto& child : node->children) {
    child = PushDownFilters(child);
  }
  if (node->kind != PlanKind::kFilter) return node;

  PlanPtr child = node->children[0];
  std::vector<ExprPtr> conjuncts;
  expr::CollectConjuncts(node->predicate, &conjuncts);
  std::vector<ExprPtr> residual;

  if (child->kind == PlanKind::kScan) {
    for (const ExprPtr& c : conjuncts) {
      NamedScanPredicate pred;
      if (AsSargable(c, child->schema, &pred)) {
        child->pushed_predicates.push_back(std::move(pred));
        continue;
      }
      // `column IN (literals)` is noted on the scan for shard pruning but
      // stays in the filter: the note only narrows which shards are
      // scanned, never what the filter accepts.
      if (c->kind() == ExprKind::kIn) {
        const auto* in = static_cast<const InExpr*>(c.get());
        if (in->input()->kind() == ExprKind::kColumn) {
          const auto* col =
              static_cast<const ColumnRefExpr*>(in->input().get());
          child->pruning_in_lists.push_back(
              NamedInList{col->name(), in->values()});
        }
      }
      residual.push_back(c);
    }
  } else if (child->kind == PlanKind::kJoin &&
             (child->join_type == JoinType::kInner ||
              child->join_type == JoinType::kLeftSemi ||
              child->join_type == JoinType::kLeftAnti)) {
    const int probe_cols = child->children[0]->schema.num_columns();
    std::vector<ExprPtr> to_probe, to_build;
    const bool has_build_cols = child->join_type == JoinType::kInner;
    for (const ExprPtr& c : conjuncts) {
      std::set<int> refs;
      CollectColumnIndices(c, &refs);
      bool probe_only = true, build_only = has_build_cols && !refs.empty();
      for (int idx : refs) {
        if (idx >= probe_cols) probe_only = false;
        if (idx < probe_cols) build_only = false;
      }
      if (probe_only && !refs.empty()) {
        to_probe.push_back(c);
      } else if (build_only) {
        to_build.push_back(ShiftColumns(c, -probe_cols));
      } else {
        residual.push_back(c);
      }
    }
    if (!to_probe.empty()) {
      auto f = std::make_shared<LogicalPlan>();
      f->kind = PlanKind::kFilter;
      f->schema = child->children[0]->schema;
      f->predicate = ConjunctionOf(to_probe);
      f->children.push_back(child->children[0]);
      child->children[0] = PushDownFilters(f);
    }
    if (!to_build.empty()) {
      auto f = std::make_shared<LogicalPlan>();
      f->kind = PlanKind::kFilter;
      f->schema = child->children[1]->schema;
      f->predicate = ConjunctionOf(to_build);
      f->children.push_back(child->children[1]);
      child->children[1] = PushDownFilters(f);
    }
  } else {
    residual = conjuncts;
  }

  if (residual.empty()) return child;
  node->predicate = ConjunctionOf(residual);
  node->children[0] = child;
  return node;
}

// Reorders left-deep chains of inner joins: joins whose probe keys resolve
// against the chain's bottom input can run in any order, so run them
// smallest-build-first (classic star-join ordering). Returns the node's
// replacement — a Project restoring the original column order is added on
// top when the reordered chain's schema permuted (parents bind columns by
// index).
PlanPtr ReorderJoins(const Catalog& catalog, PlanPtr node,
                     bool in_chain = false) {
  const bool is_inner_join =
      node->kind == PlanKind::kJoin && node->join_type == JoinType::kInner;
  // Recurse; the probe child of an inner join is part of this node's chain,
  // so reordering is deferred to the chain's top (this node or above).
  for (size_t i = 0; i < node->children.size(); ++i) {
    node->children[i] = ReorderJoins(catalog, node->children[i],
                                     is_inner_join && i == 0);
  }
  if (!is_inner_join || in_chain) return node;
  const Schema original_schema = node->schema;
  // Reordering relies on name-unique columns for the restore projection.
  {
    std::set<std::string> names;
    for (const Field& f : original_schema.fields()) {
      if (!names.insert(f.name).second) return node;
    }
  }

  // Collect the chain J_n(..J_1(bottom, b_1).., b_n) ending at this node.
  struct Level {
    PlanPtr build;
    std::vector<std::string> left_keys;
    std::vector<std::string> right_keys;
    bool use_bloom;
  };
  std::vector<Level> levels;  // bottom-most first
  PlanPtr cursor = node;
  PlanPtr bottom;
  for (;;) {
    if (cursor->kind == PlanKind::kJoin &&
        cursor->join_type == JoinType::kInner) {
      levels.push_back(Level{cursor->children[1], cursor->left_keys,
                             cursor->right_keys, cursor->use_bloom});
      cursor = cursor->children[0];
    } else {
      bottom = cursor;
      break;
    }
  }
  std::reverse(levels.begin(), levels.end());
  if (levels.size() < 2) return node;

  // Only levels whose probe keys all come from the bottom input commute.
  const Schema& bottom_schema = bottom->schema;
  std::vector<size_t> free_levels;
  for (size_t i = 0; i < levels.size(); ++i) {
    bool free = true;
    for (const std::string& key : levels[i].left_keys) {
      if (bottom_schema.IndexOf(key) < 0) {
        free = false;
        break;
      }
    }
    if (free) free_levels.push_back(i);
  }
  if (free_levels.size() < 2) return node;

  // Sort the free levels' contents by estimated build size; dependent
  // levels stay in place.
  std::vector<Level> free_sorted;
  free_sorted.reserve(free_levels.size());
  for (size_t i : free_levels) free_sorted.push_back(levels[i]);
  std::stable_sort(free_sorted.begin(), free_sorted.end(),
                   [&](const Level& a, const Level& b) {
                     return EstimateRows(catalog, a.build) <
                            EstimateRows(catalog, b.build);
                   });
  for (size_t k = 0; k < free_levels.size(); ++k) {
    levels[free_levels[k]] = free_sorted[k];
  }

  // Rebuild the chain in place. Join output schemas must be recomputed
  // because build column blocks moved.
  PlanPtr probe = bottom;
  std::vector<PlanPtr> chain_nodes;
  cursor = node;
  for (size_t i = 0; i < levels.size(); ++i) {
    chain_nodes.push_back(cursor);
    cursor = cursor->children[0];
  }
  std::reverse(chain_nodes.begin(), chain_nodes.end());
  for (size_t i = 0; i < levels.size(); ++i) {
    PlanPtr join = chain_nodes[i];
    join->children[0] = probe;
    join->children[1] = levels[i].build;
    join->left_keys = levels[i].left_keys;
    join->right_keys = levels[i].right_keys;
    join->use_bloom = levels[i].use_bloom;
    std::vector<Field> fields = probe->schema.fields();
    for (const Field& f : levels[i].build->schema.fields()) {
      Field nf = f;
      nf.nullable = true;
      fields.push_back(nf);
    }
    join->schema = Schema(std::move(fields));
    probe = join;
  }

  // Restore the original column order for index-bound parent expressions.
  if (probe->schema.Equals(original_schema)) return probe;
  auto project = std::make_shared<LogicalPlan>();
  project->kind = PlanKind::kProject;
  project->schema = original_schema;
  for (const Field& f : original_schema.fields()) {
    project->exprs.push_back(expr::Column(probe->schema, f.name));
    project->names.push_back(f.name);
  }
  project->children.push_back(probe);
  return project;
}

// Finds the column store scan feeding the probe side and checks that
// `column` survives untouched from the scan to the join input.
bool ProbeKeyReachesScan(const PlanPtr& probe, const std::string& column) {
  PlanPtr cursor = probe;
  for (;;) {
    switch (cursor->kind) {
      case PlanKind::kScan:
        return cursor->schema.IndexOf(column) >= 0;
      case PlanKind::kFilter:
      case PlanKind::kLimit:
        cursor = cursor->children[0];
        break;
      case PlanKind::kJoin:
        // Probe columns pass through the join's probe side by name.
        if (cursor->children[0]->schema.IndexOf(column) >= 0) {
          cursor = cursor->children[0];
          break;
        }
        return false;
      default:
        return false;
    }
  }
}

// --- Column pruning ----------------------------------------------------------

// Resolves `names` in `schema` and inserts the indices into `out`.
void RequireNames(const Schema& schema, const std::vector<std::string>& names,
                  std::set<int>* out) {
  for (const std::string& name : names) {
    int idx = schema.IndexOf(name);
    VSTORE_CHECK(idx >= 0);
    out->insert(idx);
  }
}

// Rewrites `node` so it produces (at least) the original-schema columns in
// `required`. On return, `mapping` has one entry per original output
// column: its index in the new schema, or -1 if dropped. The new schema
// may contain extra columns (e.g. ones a residual filter reads); parents
// rebind through `mapping`.
PlanPtr PruneColumns(PlanPtr node, std::set<int> required,
                     std::vector<int>* mapping) {
  const int old_width = node->schema.num_columns();
  auto identity = [&] {
    mapping->resize(static_cast<size_t>(old_width));
    for (int i = 0; i < old_width; ++i) (*mapping)[static_cast<size_t>(i)] = i;
  };

  switch (node->kind) {
    case PlanKind::kScan: {
      if (required.empty() && old_width > 0) required.insert(0);
      std::vector<int> keep(required.begin(), required.end());
      mapping->assign(static_cast<size_t>(old_width), -1);
      node->scan_columns.clear();
      for (size_t k = 0; k < keep.size(); ++k) {
        (*mapping)[static_cast<size_t>(keep[k])] = static_cast<int>(k);
        node->scan_columns.push_back(node->schema.field(keep[k]).name);
      }
      node->schema = node->schema.Project(keep);
      return node;
    }

    case PlanKind::kFilter: {
      std::set<int> child_required = required;
      CollectColumnIndices(node->predicate, &child_required);
      std::vector<int> child_map;
      node->children[0] =
          PruneColumns(node->children[0], std::move(child_required),
                       &child_map);
      node->predicate = MapColumns(node->predicate, [&](int i) {
        return child_map[static_cast<size_t>(i)];
      });
      node->schema = node->children[0]->schema;
      *mapping = child_map;
      return node;
    }

    case PlanKind::kProject: {
      if (required.empty() && old_width > 0) required.insert(0);
      std::vector<int> keep(required.begin(), required.end());
      std::set<int> child_required;
      for (int k : keep) {
        CollectColumnIndices(node->exprs[static_cast<size_t>(k)],
                             &child_required);
      }
      std::vector<int> child_map;
      node->children[0] =
          PruneColumns(node->children[0], std::move(child_required),
                       &child_map);
      std::vector<ExprPtr> new_exprs;
      std::vector<std::string> new_names;
      std::vector<Field> fields;
      mapping->assign(static_cast<size_t>(old_width), -1);
      for (size_t k = 0; k < keep.size(); ++k) {
        int old_idx = keep[k];
        (*mapping)[static_cast<size_t>(old_idx)] = static_cast<int>(k);
        new_exprs.push_back(
            MapColumns(node->exprs[static_cast<size_t>(old_idx)], [&](int i) {
              return child_map[static_cast<size_t>(i)];
            }));
        new_names.push_back(node->names[static_cast<size_t>(old_idx)]);
        fields.push_back(node->schema.field(old_idx));
      }
      node->exprs = std::move(new_exprs);
      node->names = std::move(new_names);
      node->schema = Schema(std::move(fields));
      return node;
    }

    case PlanKind::kJoin: {
      const bool emit_build = node->join_type == JoinType::kInner ||
                              node->join_type == JoinType::kLeftOuter;
      const int probe_width = node->children[0]->schema.num_columns();
      std::set<int> probe_required, build_required;
      for (int i : required) {
        if (i < probe_width) {
          probe_required.insert(i);
        } else {
          build_required.insert(i - probe_width);
        }
      }
      RequireNames(node->children[0]->schema, node->left_keys,
                   &probe_required);
      RequireNames(node->children[1]->schema, node->right_keys,
                   &build_required);
      std::vector<int> probe_map, build_map;
      node->children[0] = PruneColumns(node->children[0],
                                       std::move(probe_required), &probe_map);
      node->children[1] = PruneColumns(node->children[1],
                                       std::move(build_required), &build_map);

      const int new_probe_width = node->children[0]->schema.num_columns();
      std::vector<Field> fields = node->children[0]->schema.fields();
      if (emit_build) {
        for (const Field& f : node->children[1]->schema.fields()) {
          Field nf = f;
          nf.nullable = true;
          fields.push_back(nf);
        }
      }
      node->schema = Schema(std::move(fields));
      mapping->assign(static_cast<size_t>(old_width), -1);
      for (int i = 0; i < old_width; ++i) {
        if (i < probe_width) {
          (*mapping)[static_cast<size_t>(i)] =
              probe_map[static_cast<size_t>(i)];
        } else if (emit_build) {
          int b = build_map[static_cast<size_t>(i - probe_width)];
          (*mapping)[static_cast<size_t>(i)] =
              b < 0 ? -1 : new_probe_width + b;
        }
      }
      return node;
    }

    case PlanKind::kAggregate: {
      // Output schema is determined by group/agg names; only the child is
      // prunable.
      std::set<int> child_required;
      RequireNames(node->children[0]->schema, node->group_by, &child_required);
      for (const NamedAggSpec& spec : node->aggregates) {
        if (!spec.column.empty()) {
          RequireNames(node->children[0]->schema, {spec.column},
                       &child_required);
        }
      }
      std::vector<int> child_map;
      node->children[0] =
          PruneColumns(node->children[0], std::move(child_required),
                       &child_map);
      identity();
      return node;
    }

    case PlanKind::kSort: {
      std::set<int> child_required = required;
      std::vector<std::string> key_names;
      for (const SortSpec& spec : node->sort_keys) key_names.push_back(spec.column);
      RequireNames(node->children[0]->schema, key_names, &child_required);
      std::vector<int> child_map;
      node->children[0] =
          PruneColumns(node->children[0], std::move(child_required),
                       &child_map);
      node->schema = node->children[0]->schema;
      *mapping = child_map;
      return node;
    }

    case PlanKind::kLimit: {
      std::vector<int> child_map;
      node->children[0] =
          PruneColumns(node->children[0], std::move(required), &child_map);
      node->schema = node->children[0]->schema;
      *mapping = child_map;
      return node;
    }

    case PlanKind::kUnionAll:
      // Children must keep identical schemas; no pruning through unions.
      identity();
      return node;
  }
  identity();
  return node;
}

// Rows stored for `table`, at least 1, or `fallback` when the table has no
// backing store (a system view) or is unknown.
double StoredRows(const Catalog& catalog, const std::string& table,
                  double fallback) {
  const Catalog::Entry* entry = catalog.Find(table);
  const int64_t rows = entry != nullptr ? entry->num_rows() : -1;
  return rows >= 0 ? std::max(1.0, static_cast<double>(rows)) : fallback;
}

void PlaceBloomFilters(const Catalog& catalog, const PlanPtr& node,
                       const OptimizerOptions& options) {
  for (const auto& child : node->children) {
    PlaceBloomFilters(catalog, child, options);
  }
  if (node->kind != PlanKind::kJoin) return;
  if (node->join_type != JoinType::kInner &&
      node->join_type != JoinType::kLeftSemi) {
    return;
  }
  const double build_rows = EstimateRows(catalog, node->children[1]);
  if (build_rows > options.bloom_max_build_rows) return;
  // An unselective build passes nearly every probe row through the filter,
  // making the per-row probe pure overhead. Require either a filtered
  // build (estimated selectivity vs its base table <= 50%) or a build that
  // is tiny relative to the probe side (classic star dimension).
  PlanPtr base = node->children[1];
  while (!base->children.empty()) base = base->children[0];
  const double raw_rows = base->kind == PlanKind::kScan
                              ? StoredRows(catalog, base->table, build_rows)
                              : build_rows;
  const double probe_rows = EstimateRows(catalog, node->children[0]);
  const bool filtered_build = build_rows <= raw_rows * 0.5;
  const bool tiny_dimension = build_rows * 100 <= probe_rows;
  if (!filtered_build && !tiny_dimension) return;
  // Every probe key must map down to a column store scan column.
  for (const std::string& key : node->left_keys) {
    if (!ProbeKeyReachesScan(node->children[0], key)) return;
  }
  node->use_bloom = true;
}

}  // namespace

double EstimateRows(const Catalog& catalog, const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      // System views have no backing store; keep the default guess.
      double rows = StoredRows(catalog, plan->table, 1000.0);
      // Each pushed predicate is assumed ~25% selective (equality tighter).
      for (const NamedScanPredicate& p : plan->pushed_predicates) {
        rows *= p.op == CompareOp::kEq ? 0.05 : 0.25;
      }
      return std::max(rows, 1.0);
    }
    case PlanKind::kFilter:
      return std::max(EstimateRows(catalog, plan->children[0]) * 0.25, 1.0);
    case PlanKind::kProject:
    case PlanKind::kSort:
      return EstimateRows(catalog, plan->children[0]);
    case PlanKind::kLimit:
      return std::min(EstimateRows(catalog, plan->children[0]),
                      static_cast<double>(plan->limit));
    case PlanKind::kJoin: {
      double probe = EstimateRows(catalog, plan->children[0]);
      // FK joins keep probe cardinality; filtered builds reduce it.
      double build = EstimateRows(catalog, plan->children[1]);
      double raw_build = 1.0;
      if (plan->children[1]->kind == PlanKind::kScan &&
          plan->children[1]->pushed_predicates.empty()) {
        return probe;
      }
      // Selectivity of the build side relative to its base table, bounded.
      PlanPtr base = plan->children[1];
      while (!base->children.empty()) base = base->children[0];
      if (base->kind == PlanKind::kScan) {
        raw_build = StoredRows(catalog, base->table, 1.0);
      }
      double selectivity = std::min(1.0, build / raw_build);
      return std::max(probe * selectivity, 1.0);
    }
    case PlanKind::kAggregate:
      return plan->group_by.empty()
                 ? 1.0
                 : std::max(
                       std::sqrt(EstimateRows(catalog, plan->children[0])),
                       1.0);
    case PlanKind::kUnionAll: {
      double total = 0;
      for (const auto& child : plan->children) {
        total += EstimateRows(catalog, child);
      }
      return total;
    }
  }
  return 1.0;
}

PlanPtr ClonePlan(const PlanPtr& plan) {
  auto copy = std::make_shared<LogicalPlan>(*plan);
  for (auto& child : copy->children) {
    child = ClonePlan(child);
  }
  return copy;
}

PlanPtr Optimize(const Catalog& catalog, const PlanPtr& plan,
                 const OptimizerOptions& options) {
  PlanPtr optimized = ClonePlan(plan);
  if (options.pushdown) {
    optimized = PushDownFilters(optimized);
  }
  if (options.join_reorder) {
    optimized = ReorderJoins(catalog, optimized);
  }
  if (options.column_pruning) {
    const Schema original = optimized->schema;
    std::set<int> all;
    for (int i = 0; i < original.num_columns(); ++i) all.insert(i);
    std::vector<int> mapping;
    optimized = PruneColumns(optimized, std::move(all), &mapping);
    // Residual columns (e.g. filter inputs) may remain in the pruned root;
    // restore the user-visible schema exactly.
    if (!optimized->schema.Equals(original)) {
      auto project = std::make_shared<LogicalPlan>();
      project->kind = PlanKind::kProject;
      project->schema = original;
      for (int i = 0; i < original.num_columns(); ++i) {
        VSTORE_CHECK(mapping[static_cast<size_t>(i)] >= 0);
        project->exprs.push_back(
            expr::ColumnAt(optimized->schema, mapping[static_cast<size_t>(i)]));
        project->names.push_back(original.field(i).name);
      }
      project->children.push_back(optimized);
      optimized = project;
    }
  }
  if (options.bloom_filters) {
    PlaceBloomFilters(catalog, optimized, options);
  }
  return optimized;
}

}  // namespace vstore
