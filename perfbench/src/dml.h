#ifndef PERFBENCH_DML_H_
#define PERFBENCH_DML_H_

// The write side: a seeded statement stream against lineitem, the
// open-loop writer that issues it on a fixed schedule, and the tuple-mover
// thread that compacts behind it.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "database.h"
#include "storage/durable_table.h"

namespace perfbench {

// Open-loop statements per second: about 10% of the single-writer fsync
// ceiling measured on a 4-vCPU host, so the WAL is exercised but a slow
// moment of the host's disk does not build a backlog that outlasts it.
inline constexpr double kDmlRate = 1000;
// The mover runs after every this many statements (a count, not a timer,
// so the background work per run repeats).
inline constexpr int64_t kMoverEvery = 2000;

struct Statement {
  enum class Kind { kInsert = 0, kUpdate = 1, kDelete = 2 };
  Kind kind;
  vstore::ShardRowId target;            // update / delete
  std::vector<vstore::Value> row;       // insert / update: the new row
  std::vector<vstore::Value> old_row;   // update / delete: the row replaced
};
inline constexpr int kNumKinds = 3;
const char* KindName(Statement::Kind kind);

// `n` statements: 80% single-row inserts (copies of generated lineitem
// rows with a shifted l_linenumber), 10% updates (a new l_quantity) and
// 10% deletes. Updates and deletes target distinct bulk-loaded rows.
std::vector<Statement> MakeStatements(const FactTable& fact,
                                      const vstore::TableData& lineitem,
                                      int64_t n, uint64_t seed);

// Shared between the writer and the mover thread: the writer's progress,
// which triggers mover passes. The two never wait on each other otherwise.
struct MoverHandoff {
  std::mutex mu;
  std::condition_variable progressed;
  int64_t completed = 0;     // guarded by mu
  bool writer_done = false;  // guarded by mu
};

struct WriterResult {
  // Per kind, indexed by Statement::Kind.
  std::vector<double> service_us[kNumKinds];  // inside the storage call
  std::vector<double> latency_us;  // completion minus due time, all kinds
  std::vector<double> cpu_us;      // writer thread CPU per call
  // Due time to send time, for statements the writer was idle before:
  // how late the generator itself ran.
  std::vector<double> lag_us;
  int64_t failed = 0;
  Checksum applied;  // net effect of the acknowledged statements
};

// Open loop: issues statement i at start + i / kDmlRate, whatever the
// previous ones took, in order on the calling thread. `handoff` is null
// when no mover runs beside the writer.
WriterResult RunWriter(FactTable* fact, const std::vector<Statement>& stmts,
                       MoverHandoff* handoff);

struct MoverResult {
  std::vector<double> pass_ms;      // RunOnce, including the checkpoint
  std::vector<double> pass_cpu_ms;  // mover thread CPU of the same
  int64_t stores_compressed = 0;
  int64_t rows_moved = 0;
  int64_t conflicts = 0;
  std::string error;  // first failed pass, empty when all succeeded
};

// Runs one mover pass (open stores included, rebuild off, the checkpoint
// as its hook) each time the writer completes another kMoverEvery
// statements, for every multiple below `total`: the statements after the
// last pass are left for recovery to replay on reopen.
MoverResult RunMover(vstore::ColumnStoreTable* table,
                     vstore::DurableTable* durable, int64_t total,
                     MoverHandoff* handoff);

}  // namespace perfbench

#endif  // PERFBENCH_DML_H_
