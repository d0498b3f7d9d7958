#ifndef VSTORE_QUERY_CATALOG_H_
#define VSTORE_QUERY_CATALOG_H_

#include <map>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "storage/column_store.h"
#include "storage/durable_table.h"
#include "storage/row_store.h"
#include "storage/sharded_table.h"

namespace vstore {

class SystemViewProvider;

// Name -> table mapping. A logical table may have a column store
// representation, a row store representation, or both (benchmarks register
// both to compare access paths; the planner picks by execution mode) — or
// be a hash-partitioned ShardedTable, which the planner lowers into a
// scatter-gather exchange over per-shard scans. The
// "sys." prefix is a reserved namespace of virtual system views (DMVs):
// every catalog carries the built-in set (sys.tables, sys.segments,
// sys.query_stats, ...), resolved by Find like ordinary tables but
// materialized on demand from live engine state.
class Catalog {
 public:
  Catalog();
  ~Catalog();
  VSTORE_DISALLOW_COPY_AND_ASSIGN(Catalog);

  struct Entry {
    ColumnStoreTable* column_store = nullptr;  // owned by the catalog
    RowStoreTable* row_store = nullptr;
    ShardedTable* sharded_table = nullptr;  // owned by the catalog
    const SystemViewProvider* system_view = nullptr;  // owned by the catalog
    // Durability attachments (owned by the catalog; non-null only for
    // tables registered via the AddDurable* entry points). sys.storage_files
    // enumerates their WAL/checkpoint files.
    DurableTable* durable = nullptr;
    DurableShardedTable* durable_sharded = nullptr;

    const Schema& schema() const;
    // Rows in the backing store, or -1 for a system view, which has none.
    int64_t num_rows() const;
    bool has_column_store() const { return column_store != nullptr; }
    bool has_row_store() const { return row_store != nullptr; }
    bool has_sharded_table() const { return sharded_table != nullptr; }
    bool has_system_view() const { return system_view != nullptr; }
    bool has_durability() const {
      return durable != nullptr || durable_sharded != nullptr;
    }
  };

  Status AddColumnStore(std::unique_ptr<ColumnStoreTable> table);
  Status AddRowStore(std::unique_ptr<RowStoreTable> table);
  // A sharded table is a logical table's only representation: it cannot
  // share its name with a column- or row-store entry.
  Status AddShardedTable(std::unique_ptr<ShardedTable> table);
  // Registers a column store together with its durability attachment (the
  // caller opened the DurableTable against this table). The catalog owns
  // both and destroys the attachment first (it detaches its hook).
  Status AddDurableColumnStore(std::unique_ptr<ColumnStoreTable> table,
                               std::unique_ptr<DurableTable> durable);
  // Registers a durable sharded table (which owns its ShardedTable).
  Status AddDurableShardedTable(std::unique_ptr<DurableShardedTable> table);
  // Registers a virtual table under the reserved "sys." namespace.
  Status RegisterSystemView(std::unique_ptr<SystemViewProvider> view);

  // Returns nullptr when the table is unknown. System views resolve here
  // too, so plans reference them like any other table.
  const Entry* Find(const std::string& name) const;
  Result<const Entry*> FindOrError(const std::string& name) const;

  ColumnStoreTable* GetColumnStore(const std::string& name) const;
  RowStoreTable* GetRowStore(const std::string& name) const;
  ShardedTable* GetShardedTable(const std::string& name) const;

  // User tables only (system views excluded) — what sys.tables et al.
  // enumerate, so views never recurse into themselves.
  const std::map<std::string, Entry>& entries() const { return entries_; }

  // Operator-facing engine health report: refreshes every column store's
  // storage gauges, renders a per-table breakdown (live/delta/deleted row
  // counts, row-group and delta-store counts, size components), then
  // appends the full Prometheus-style text exposition of the global
  // metrics registry (query latency histogram, tuple-mover pass stats,
  // reorg conflicts, cumulative operator roll-ups, ...). Deterministic
  // ordering (catalog map + sorted registry) keeps diffs stable.
  std::string StatsReport() const;

 private:
  std::map<std::string, Entry> entries_;
  // System views live in their own map so entries_ iteration (StatsReport,
  // the sys.* materializers) sees user tables only.
  std::map<std::string, Entry> system_entries_;
  std::vector<std::unique_ptr<ColumnStoreTable>> column_stores_;
  std::vector<std::unique_ptr<RowStoreTable>> row_stores_;
  std::vector<std::unique_ptr<ShardedTable>> sharded_tables_;
  std::vector<std::unique_ptr<SystemViewProvider>> system_views_;
  // Declared after the table vectors so attachments are destroyed first —
  // a DurableTable detaches its WAL hook from a still-live table.
  std::vector<std::unique_ptr<DurableTable>> durable_tables_;
  std::vector<std::unique_ptr<DurableShardedTable>> durable_sharded_tables_;
};

}  // namespace vstore

#endif  // VSTORE_QUERY_CATALOG_H_
