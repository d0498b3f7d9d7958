#include "query/catalog.h"

#include <cstdio>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "query/system_views.h"

namespace vstore {

namespace {

void AppendLine(std::string* out, const char* key, int64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  %-22s %lld\n", key,
                static_cast<long long>(value));
  *out += buf;
}

}  // namespace

Catalog::Catalog() { RegisterBuiltinSystemViews(this); }

Catalog::~Catalog() = default;

const Schema& Catalog::Entry::schema() const {
  if (column_store != nullptr) return column_store->schema();
  if (row_store != nullptr) return row_store->schema();
  if (sharded_table != nullptr) return sharded_table->schema();
  return system_view->schema();
}

int64_t Catalog::Entry::num_rows() const {
  if (column_store != nullptr) return column_store->num_rows();
  if (sharded_table != nullptr) return sharded_table->num_rows();
  if (row_store != nullptr) return row_store->num_rows();
  return -1;
}

Status Catalog::AddColumnStore(std::unique_ptr<ColumnStoreTable> table) {
  if (IsSystemViewName(table->name())) {
    return Status::InvalidArgument("the sys. namespace is reserved: " +
                                   table->name());
  }
  Entry& entry = entries_[table->name()];
  if (entry.sharded_table != nullptr) {
    return Status::AlreadyExists("sharded table already registered: " +
                                 table->name());
  }
  if (entry.column_store != nullptr) {
    return Status::AlreadyExists("column store already registered: " +
                                 table->name());
  }
  if (entry.row_store != nullptr &&
      !entry.row_store->schema().Equals(table->schema())) {
    return Status::InvalidArgument(
        "schema mismatch between representations of " + table->name());
  }
  entry.column_store = table.get();
  column_stores_.push_back(std::move(table));
  return Status::OK();
}

Status Catalog::AddRowStore(std::unique_ptr<RowStoreTable> table) {
  if (IsSystemViewName(table->name())) {
    return Status::InvalidArgument("the sys. namespace is reserved: " +
                                   table->name());
  }
  Entry& entry = entries_[table->name()];
  if (entry.sharded_table != nullptr) {
    return Status::AlreadyExists("sharded table already registered: " +
                                 table->name());
  }
  if (entry.row_store != nullptr) {
    return Status::AlreadyExists("row store already registered: " +
                                 table->name());
  }
  if (entry.column_store != nullptr &&
      !entry.column_store->schema().Equals(table->schema())) {
    return Status::InvalidArgument(
        "schema mismatch between representations of " + table->name());
  }
  entry.row_store = table.get();
  row_stores_.push_back(std::move(table));
  return Status::OK();
}

Status Catalog::AddShardedTable(std::unique_ptr<ShardedTable> table) {
  if (IsSystemViewName(table->name())) {
    return Status::InvalidArgument("the sys. namespace is reserved: " +
                                   table->name());
  }
  auto it = entries_.find(table->name());
  if (it != entries_.end()) {
    return Status::AlreadyExists("table already registered: " + table->name());
  }
  entries_[table->name()].sharded_table = table.get();
  sharded_tables_.push_back(std::move(table));
  return Status::OK();
}

Status Catalog::AddDurableColumnStore(std::unique_ptr<ColumnStoreTable> table,
                                      std::unique_ptr<DurableTable> durable) {
  if (durable->table() != table.get()) {
    return Status::InvalidArgument(
        "durability attachment belongs to a different table: " +
        table->name());
  }
  const std::string name = table->name();
  VSTORE_RETURN_IF_ERROR(AddColumnStore(std::move(table)));
  entries_[name].durable = durable.get();
  durable_tables_.push_back(std::move(durable));
  return Status::OK();
}

Status Catalog::AddDurableShardedTable(
    std::unique_ptr<DurableShardedTable> table) {
  ShardedTable* sharded = table->table();
  if (IsSystemViewName(sharded->name())) {
    return Status::InvalidArgument("the sys. namespace is reserved: " +
                                   sharded->name());
  }
  auto it = entries_.find(sharded->name());
  if (it != entries_.end()) {
    return Status::AlreadyExists("table already registered: " +
                                 sharded->name());
  }
  Entry& entry = entries_[sharded->name()];
  entry.sharded_table = sharded;
  entry.durable_sharded = table.get();
  durable_sharded_tables_.push_back(std::move(table));
  return Status::OK();
}

Status Catalog::RegisterSystemView(std::unique_ptr<SystemViewProvider> view) {
  const std::string& name = view->name();
  if (!IsSystemViewName(name)) {
    return Status::InvalidArgument("system view names must start with sys.: " +
                                   name);
  }
  Entry& entry = system_entries_[name];
  if (entry.system_view != nullptr) {
    return Status::AlreadyExists("system view already registered: " + name);
  }
  entry.system_view = view.get();
  system_views_.push_back(std::move(view));
  return Status::OK();
}

const Catalog::Entry* Catalog::Find(const std::string& name) const {
  auto it = entries_.find(name);
  if (it != entries_.end()) return &it->second;
  auto sys_it = system_entries_.find(name);
  return sys_it == system_entries_.end() ? nullptr : &sys_it->second;
}

Result<const Catalog::Entry*> Catalog::FindOrError(
    const std::string& name) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) return Status::NotFound("unknown table: " + name);
  return entry;
}

ColumnStoreTable* Catalog::GetColumnStore(const std::string& name) const {
  const Entry* entry = Find(name);
  return entry == nullptr ? nullptr : entry->column_store;
}

RowStoreTable* Catalog::GetRowStore(const std::string& name) const {
  const Entry* entry = Find(name);
  return entry == nullptr ? nullptr : entry->row_store;
}

ShardedTable* Catalog::GetShardedTable(const std::string& name) const {
  const Entry* entry = Find(name);
  return entry == nullptr ? nullptr : entry->sharded_table;
}

std::string Catalog::StatsReport() const {
  std::string out = "== tables ==\n";
  for (const auto& [name, entry] : entries_) {
    out += name + ":\n";
    if (entry.column_store != nullptr) {
      const ColumnStoreTable* cs = entry.column_store;
      cs->RefreshStorageGauges();
      TableSnapshot snap = cs->Snapshot();
      ColumnStoreTable::SizeBreakdown sizes = cs->Sizes();
      AppendLine(&out, "rows", snap->num_rows());
      AppendLine(&out, "delta_rows", snap->num_delta_rows());
      AppendLine(&out, "deleted_rows", snap->num_deleted_rows());
      AppendLine(&out, "row_groups", snap->num_row_groups());
      AppendLine(&out, "delta_stores", snap->num_delta_stores());
      AppendLine(&out, "segment_bytes", sizes.segment_bytes);
      AppendLine(&out, "dictionary_bytes", sizes.dictionary_bytes);
      AppendLine(&out, "delete_bitmap_bytes", sizes.delete_bitmap_bytes);
      AppendLine(&out, "delta_store_bytes", sizes.delta_store_bytes);
      AppendLine(&out, "total_bytes", sizes.Total());
    }
    if (entry.row_store != nullptr) {
      AppendLine(&out, "row_store_rows", entry.row_store->num_rows());
    }
    if (entry.sharded_table != nullptr) {
      // Aggregate across all shards (each shard's numbers are also
      // published per shard under {table=,shard=} metric labels). Reads
      // one pinned snapshot per shard so row counts are internally
      // consistent per shard, like the unsharded branch above.
      const ShardedTable* st = entry.sharded_table;
      st->RefreshStorageGauges();
      std::vector<TableSnapshot> snaps = st->SnapshotAll();
      int64_t rows = 0, delta_rows = 0, deleted_rows = 0;
      int64_t row_groups = 0, delta_stores = 0;
      for (const TableSnapshot& snap : snaps) {
        rows += snap->num_rows();
        delta_rows += snap->num_delta_rows();
        deleted_rows += snap->num_deleted_rows();
        row_groups += snap->num_row_groups();
        delta_stores += snap->num_delta_stores();
      }
      ColumnStoreTable::SizeBreakdown sizes = st->Sizes();
      AppendLine(&out, "shards", st->num_shards());
      AppendLine(&out, "rows", rows);
      AppendLine(&out, "delta_rows", delta_rows);
      AppendLine(&out, "deleted_rows", deleted_rows);
      AppendLine(&out, "row_groups", row_groups);
      AppendLine(&out, "delta_stores", delta_stores);
      AppendLine(&out, "segment_bytes", sizes.segment_bytes);
      AppendLine(&out, "dictionary_bytes", sizes.dictionary_bytes);
      AppendLine(&out, "delete_bitmap_bytes", sizes.delete_bitmap_bytes);
      AppendLine(&out, "delta_store_bytes", sizes.delta_store_bytes);
      AppendLine(&out, "total_bytes", sizes.Total());
    }
  }
  // Publish tracker/RSS/mapped gauges so the metrics dump below carries
  // fresh vstore_mem_bytes{category=...} values.
  PublishMemoryGauges();
  out += "\n== metrics ==\n";
  out += MetricsToText();
  return out;
}

}  // namespace vstore
