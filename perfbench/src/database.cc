#include "database.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "harness.h"
#include "query/executor.h"

namespace perfbench {

using vstore::ColumnStoreTable;
using vstore::DurableShardedTable;
using vstore::DurableTable;
using vstore::ShardedTable;
using vstore::ShardRowId;
using vstore::Status;
using vstore::Value;

namespace {

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

ColumnStoreTable::Options TableOptions(int64_t row_group_size) {
  ColumnStoreTable::Options options;
  options.row_group_size = row_group_size;
  return options;
}

ShardedTable::Options ShardOptions(const std::string& partition_key) {
  ShardedTable::Options options;
  options.num_shards = kNumShards;
  options.partition_key = partition_key;
  options.shard_options = TableOptions(kShardRowGroupSize);
  return options;
}

class UnshardedFact : public FactTable {
 public:
  explicit UnshardedFact(ColumnStoreTable* table) : table_(table) {
    IndexLoadedRows(0, *table);
  }

  vstore::Result<ShardRowId> Insert(const std::vector<Value>& row) override {
    VSTORE_ASSIGN_OR_RETURN(vstore::RowId id, table_->Insert(row));
    return ShardRowId{0, id};
  }
  Status Update(ShardRowId id, const std::vector<Value>& row) override {
    return table_->Update(id.row, row).status();
  }
  Status Delete(ShardRowId id) override { return table_->Delete(id.row); }
  Status GetRow(ShardRowId id, std::vector<Value>* row) const override {
    return table_->GetRow(id.row, row);
  }
  int64_t LiveRows() const override { return table_->num_rows(); }
  int64_t DeltaRows() const override { return table_->num_delta_rows(); }
  int64_t StoredBytes() const override { return table_->Sizes().Total(); }
  int64_t MinRowGroupsPerShard() const override {
    return table_->num_row_groups();
  }

 private:
  ColumnStoreTable* table_;
};

class ShardedFact : public FactTable {
 public:
  explicit ShardedFact(ShardedTable* table) : table_(table) {
    for (int s = 0; s < table->num_shards(); ++s) {
      IndexLoadedRows(s, *table->shard(s));
    }
  }

  vstore::Result<ShardRowId> Insert(const std::vector<Value>& row) override {
    return table_->Insert(row);
  }
  Status Update(ShardRowId id, const std::vector<Value>& row) override {
    return table_->Update(id, row).status();
  }
  Status Delete(ShardRowId id) override { return table_->Delete(id); }
  Status GetRow(ShardRowId id, std::vector<Value>* row) const override {
    return table_->GetRow(id, row);
  }
  int64_t LiveRows() const override { return table_->num_rows(); }
  int64_t DeltaRows() const override { return table_->num_delta_rows(); }
  int64_t StoredBytes() const override { return table_->Sizes().Total(); }
  int64_t MinRowGroupsPerShard() const override {
    int64_t fewest = INT64_MAX;
    for (int s = 0; s < table_->num_shards(); ++s) {
      fewest = std::min(fewest, table_->shard(s)->num_row_groups());
    }
    return fewest;
  }

 private:
  ShardedTable* table_;
};

// Bulk-loads a non-durable table and compresses its load tail, so every row
// is columnar (what tpch::LoadIntoCatalog does per table).
std::unique_ptr<ColumnStoreTable> LoadColumnStore(
    const std::string& name, const vstore::TableData& data) {
  auto table = std::make_unique<ColumnStoreTable>(name, data.schema(),
                                                  TableOptions(kRowGroupSize));
  Check(table->BulkLoad(data), "bulk load " + name);
  Check(table->CompressDeltaStores(true).status(), "compress " + name);
  return table;
}

std::unique_ptr<ShardedTable> LoadShardedTable(const std::string& name,
                                               const std::string& key,
                                               const vstore::TableData& data) {
  auto table =
      std::make_unique<ShardedTable>(name, data.schema(), ShardOptions(key));
  Check(table->BulkLoad(data), "bulk load " + name);
  for (int s = 0; s < table->num_shards(); ++s) {
    Check(table->shard(s)->CompressDeltaStores(true).status(),
          "compress " + name);
  }
  return table;
}

}  // namespace

ShardRowId FactTable::LoadedRow(int64_t index) const {
  auto it = std::upper_bound(
      spans_.begin(), spans_.end(), index,
      [](int64_t i, const Span& span) { return i < span.first; });
  const Span& span = *(it - 1);
  return ShardRowId{
      span.shard, vstore::MakeCompressedRowId(span.group, index - span.first)};
}

void FactTable::IndexLoadedRows(int shard, const ColumnStoreTable& table) {
  vstore::TableSnapshot snapshot = table.Snapshot();
  for (int64_t g = 0; g < snapshot->num_row_groups(); ++g) {
    spans_.push_back(Span{loaded_rows_, shard, g});
    loaded_rows_ += snapshot->row_group(g).num_rows();
  }
}

Database LoadDatabase(const vstore::tpch::Tables& tables, Layout layout,
                      const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Database db;
  db.catalog = std::make_unique<vstore::Catalog>();
  const std::pair<const char*, const vstore::TableData*> dimensions[] = {
      {"region", &tables.region},     {"nation", &tables.nation},
      {"supplier", &tables.supplier}, {"customer", &tables.customer},
      {"part", &tables.part},         {"partsupp", &tables.partsupp}};
  for (const auto& [name, data] : dimensions) {
    Check(db.catalog->AddColumnStore(LoadColumnStore(name, *data)),
          std::string("register ") + name);
  }

  if (layout == Layout::kUnsharded) {
    Check(db.catalog->AddColumnStore(LoadColumnStore("orders", tables.orders)),
          "register orders");
    auto table = std::make_unique<ColumnStoreTable>(
        "lineitem", tables.lineitem.schema(), TableOptions(kRowGroupSize));
    auto durable = DurableTable::Open(dir, table.get());
    Check(durable.status(), "open durable lineitem");
    Check(table->BulkLoad(tables.lineitem), "bulk load lineitem");
    Check(table->CompressDeltaStores(true).status(), "compress lineitem");
    Check((*durable)->Checkpoint(), "checkpoint lineitem");
    db.lineitem = table.get();
    db.durable = durable->get();
    db.fact = std::make_unique<UnshardedFact>(table.get());
    Check(db.catalog->AddDurableColumnStore(std::move(table),
                                            std::move(durable).value()),
          "register lineitem");
    return db;
  }

  Check(db.catalog->AddShardedTable(
            LoadShardedTable("orders", "o_orderkey", tables.orders)),
        "register orders");
  auto durable = DurableShardedTable::Open(dir, "lineitem",
                                           tables.lineitem.schema(),
                                           ShardOptions("l_orderkey"), {});
  Check(durable.status(), "open durable lineitem");
  ShardedTable* table = (*durable)->table();
  Check(table->BulkLoad(tables.lineitem), "bulk load lineitem");
  for (int s = 0; s < table->num_shards(); ++s) {
    Check(table->shard(s)->CompressDeltaStores(true).status(),
          "compress lineitem");
  }
  Check((*durable)->Checkpoint(), "checkpoint lineitem");
  db.fact = std::make_unique<ShardedFact>(table);
  Check(db.catalog->AddDurableShardedTable(std::move(durable).value()),
        "register lineitem");
  return db;
}

void SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0 || syncfs(fd) != 0) Fail("syncfs " + dir + " failed");
  close(fd);
}

Reopened ReopenLineitem(Layout layout, const std::string& dir) {
  Reopened out;
  out.db.catalog = std::make_unique<vstore::Catalog>();
  const vstore::Schema schema = vstore::tpch::SchemaOf("lineitem");
  if (layout == Layout::kUnsharded) {
    auto table = std::make_unique<ColumnStoreTable>(
        "lineitem", schema, TableOptions(kRowGroupSize));
    auto start = Clock::now();
    auto durable = DurableTable::Open(dir, table.get());
    out.open_s = MsBetween(start, Clock::now()) / 1000;
    Check(durable.status(), "reopen lineitem");
    out.records_replayed = (*durable)->recovery_stats().wal_records_replayed;
    out.db.lineitem = table.get();
    out.db.durable = durable->get();
    out.db.fact = std::make_unique<UnshardedFact>(table.get());
    Check(out.db.catalog->AddDurableColumnStore(std::move(table),
                                                std::move(durable).value()),
          "register reopened lineitem");
    return out;
  }
  auto start = Clock::now();
  auto durable = DurableShardedTable::Open(dir, "lineitem", schema,
                                           ShardOptions("l_orderkey"), {});
  out.open_s = MsBetween(start, Clock::now()) / 1000;
  Check(durable.status(), "reopen lineitem");
  for (int s = 0; s < (*durable)->num_shards(); ++s) {
    out.records_replayed +=
        (*durable)->shard_durability(s)->recovery_stats().wal_records_replayed;
  }
  out.db.fact = std::make_unique<ShardedFact>((*durable)->table());
  Check(out.db.catalog->AddDurableShardedTable(std::move(durable).value()),
        "register reopened lineitem");
  return out;
}

namespace {

// Column positions of the checksum columns in lineitem's schema.
struct ChecksumColumns {
  int orderkey, partkey, suppkey, linenumber, quantity;
};

const ChecksumColumns& Columns() {
  static const ChecksumColumns columns = [] {
    const vstore::Schema schema = vstore::tpch::SchemaOf("lineitem");
    return ChecksumColumns{
        schema.IndexOf("l_orderkey"), schema.IndexOf("l_partkey"),
        schema.IndexOf("l_suppkey"), schema.IndexOf("l_linenumber"),
        schema.IndexOf("l_quantity")};
  }();
  return columns;
}

int64_t WholeNumber(double v) { return static_cast<int64_t>(std::llround(v)); }

}  // namespace

void Checksum::Add(const std::vector<Value>& row, int sign) {
  const ChecksumColumns& c = Columns();
  rows += sign;
  orderkey += sign * row[static_cast<size_t>(c.orderkey)].int64();
  partkey += sign * row[static_cast<size_t>(c.partkey)].int64();
  suppkey += sign * row[static_cast<size_t>(c.suppkey)].int64();
  linenumber += sign * row[static_cast<size_t>(c.linenumber)].int64();
  quantity += sign * WholeNumber(row[static_cast<size_t>(c.quantity)].dbl());
}

Checksum& Checksum::operator+=(const Checksum& other) {
  rows += other.rows;
  orderkey += other.orderkey;
  partkey += other.partkey;
  suppkey += other.suppkey;
  linenumber += other.linenumber;
  quantity += other.quantity;
  return *this;
}

bool Checksum::operator==(const Checksum& other) const {
  return rows == other.rows && orderkey == other.orderkey &&
         partkey == other.partkey && suppkey == other.suppkey &&
         linenumber == other.linenumber && quantity == other.quantity;
}

std::string Checksum::ToString() const {
  return "rows=" + std::to_string(rows) +
         " orderkey=" + std::to_string(orderkey) +
         " partkey=" + std::to_string(partkey) +
         " suppkey=" + std::to_string(suppkey) +
         " linenumber=" + std::to_string(linenumber) +
         " quantity=" + std::to_string(quantity);
}

Checksum ChecksumOf(const vstore::TableData& lineitem) {
  const ChecksumColumns& c = Columns();
  Checksum sum;
  sum.rows = lineitem.num_rows();
  for (int64_t i = 0; i < lineitem.num_rows(); ++i) {
    sum.orderkey += lineitem.column(c.orderkey).GetInt64(i);
    sum.partkey += lineitem.column(c.partkey).GetInt64(i);
    sum.suppkey += lineitem.column(c.suppkey).GetInt64(i);
    sum.linenumber += lineitem.column(c.linenumber).GetInt64(i);
    sum.quantity += WholeNumber(lineitem.column(c.quantity).GetDouble(i));
  }
  return sum;
}

Checksum QueryChecksum(const vstore::Catalog& catalog) {
  using vstore::AggFn;
  vstore::PlanBuilder b = vstore::PlanBuilder::Scan(catalog, "lineitem");
  b.Aggregate({}, {{AggFn::kCountStar, "", "rows"},
                   {AggFn::kSum, "l_orderkey", "orderkey"},
                   {AggFn::kSum, "l_partkey", "partkey"},
                   {AggFn::kSum, "l_suppkey", "suppkey"},
                   {AggFn::kSum, "l_linenumber", "linenumber"},
                   {AggFn::kSum, "l_quantity", "quantity"}});
  vstore::QueryOptions options;
  options.mode = vstore::ExecutionMode::kBatch;
  auto result = vstore::QueryExecutor(&catalog, options).Execute(b.Build());
  Check(result.status(), "checksum query");
  const vstore::TableData& data = result->data;
  if (data.num_rows() != 1) Fail("checksum query returned no row");
  auto read = [&](int col) {
    Value v = data.column(col).GetValue(0);
    return v.type() == vstore::DataType::kDouble ? WholeNumber(v.dbl())
                                                 : v.int64();
  };
  return Checksum{read(0), read(1), read(2), read(3), read(4), read(5)};
}

}  // namespace perfbench
