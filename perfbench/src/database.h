#ifndef PERFBENCH_DATABASE_H_
#define PERFBENCH_DATABASE_H_

// The TPC-H database every workload runs on: generation and load (the
// measured set-up), the durable fact table the writers target, reopen after
// the run, and the independent answers the run is checked against.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/catalog.h"
#include "storage/durable_table.h"
#include "storage/sharded_table.h"
#include "tpch/dbgen.h"

namespace perfbench {

// SF 0.05: about 300k lineitem rows, 5 row groups of 64Ki when unsharded.
// Small enough that a run executes each query a few hundred times, which
// the per-query statistics need on a shared host (see README, Host noise).
inline constexpr double kScaleFactor = 0.05;
inline constexpr int64_t kRowGroupSize = 1 << 16;
// Each of the 8 shards holds 1/8 of a table; 4Ki groups give every
// lineitem shard at least 4 x dop row groups at dop 2.
inline constexpr int kNumShards = 8;
inline constexpr int64_t kShardRowGroupSize = 1 << 12;

enum class Layout {
  kUnsharded,  // every table one ColumnStoreTable
  kSharded,    // lineitem and orders as 8-shard tables hashed on the order key
};

// lineitem as the workloads write, size and reopen it: a durable table,
// either one ColumnStoreTable or an 8-shard ShardedTable. Row addresses
// are (shard, RowId); shard is 0 when unsharded.
class FactTable {
 public:
  virtual ~FactTable() = default;

  virtual vstore::Result<vstore::ShardRowId> Insert(
      const std::vector<vstore::Value>& row) = 0;
  virtual vstore::Status Update(vstore::ShardRowId id,
                                const std::vector<vstore::Value>& row) = 0;
  virtual vstore::Status Delete(vstore::ShardRowId id) = 0;
  virtual vstore::Status GetRow(vstore::ShardRowId id,
                                std::vector<vstore::Value>* row) const = 0;

  virtual int64_t LiveRows() const = 0;
  virtual int64_t DeltaRows() const = 0;
  virtual int64_t StoredBytes() const = 0;  // Sizes().Total()
  virtual int64_t MinRowGroupsPerShard() const = 0;

  // Compressed rows present right after the load, addressable by index.
  int64_t LoadedRows() const { return loaded_rows_; }
  vstore::ShardRowId LoadedRow(int64_t index) const;

 protected:
  // Records the compressed row groups of `table` as shard `shard`.
  void IndexLoadedRows(int shard, const vstore::ColumnStoreTable& table);

 private:
  struct Span {
    int64_t first;  // index of the span's first row
    int shard;
    int64_t group;
  };
  std::vector<Span> spans_;
  int64_t loaded_rows_ = 0;
};

struct Database {
  std::unique_ptr<vstore::Catalog> catalog;
  // Points into catalog-owned tables; declared second so it dies first.
  std::unique_ptr<FactTable> fact;
  // Set for the unsharded layout: the handles the tuple mover needs.
  vstore::ColumnStoreTable* lineitem = nullptr;
  vstore::DurableTable* durable = nullptr;
};

// Loads every table into a fresh catalog. lineitem goes into a durable
// table under `dir`: bulk load, compression of the load tail, and the
// first checkpoint.
Database LoadDatabase(const vstore::tpch::Tables& tables, Layout layout,
                      const std::string& dir);

// Flushes the filesystem holding `dir` (syncfs). Set-up writes and deletes
// hundreds of MB of checkpoints; without this their journal and writeback
// work lands at random inside later fsync-timed phases.
void SyncFilesystem(const std::string& dir);

// Reopens the durable lineitem left in `dir` (checkpoint mmap plus WAL
// replay) as the only table of a fresh catalog.
struct Reopened {
  Database db;
  double open_s = 0;
  uint64_t records_replayed = 0;
};
Reopened ReopenLineitem(Layout layout, const std::string& dir);

// Sums over lineitem that a writer can track statement by statement: a
// content checksum of the table that needs no scan of the model side.
struct Checksum {
  int64_t rows = 0;
  int64_t orderkey = 0;
  int64_t partkey = 0;
  int64_t suppkey = 0;
  int64_t linenumber = 0;
  int64_t quantity = 0;  // l_quantity values are whole numbers

  void Add(const std::vector<vstore::Value>& row, int sign);
  Checksum& operator+=(const Checksum& other);
  bool operator==(const Checksum& other) const;
  std::string ToString() const;
};
Checksum ChecksumOf(const vstore::TableData& lineitem);
// The same sums read through the engine (batch mode, one aggregate query).
Checksum QueryChecksum(const vstore::Catalog& catalog);

}  // namespace perfbench

#endif  // PERFBENCH_DATABASE_H_
