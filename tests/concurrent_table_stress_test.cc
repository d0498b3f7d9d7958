// ThreadSanitizer-targeted stress test for the column store's snapshot
// versioning: scanner threads run aggregate queries (serial and parallel
// fragments) while writer threads insert, update and delete rows and a live
// TupleMover compacts delta stores and rebuilds deleted-heavy row groups.
// Every row carries the invariant a + b = kInvariant, so any torn read,
// half-applied update, or scan that mixes two table versions shows up as
// SUM(a) + SUM(b) != kInvariant * COUNT(*) within a single query snapshot.
// Build with -DVSTORE_SANITIZE=thread to let TSan watch the version
// publishes and copy-on-write clones; the ctest label "stress" lets CI
// schedule it separately.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "query/executor.h"
#include "storage/tuple_mover.h"

namespace vstore {
namespace {

constexpr int64_t kInvariant = 1000;
constexpr int64_t kInitialRows = 4000;
constexpr int64_t kRowGroupSize = 500;

int ScansPerThread() {
  const char* v = std::getenv("VSTORE_STRESS_REPEATS");
  int n = v == nullptr ? 25 : std::atoi(v);
  return n > 0 ? n : 25;
}

Schema StressSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"a", DataType::kInt64, false},
                 {"b", DataType::kInt64, false}});
}

std::vector<Value> StressRow(int64_t id) {
  int64_t a = id % kInvariant;
  return {Value::Int64(id), Value::Int64(a), Value::Int64(kInvariant - a)};
}

struct StressFixture {
  Catalog catalog;
  ColumnStoreTable* table = nullptr;

  StressFixture() {
    Schema schema = StressSchema();
    TableData data(schema);
    for (int64_t id = 0; id < kInitialRows; ++id) {
      for (size_t c = 0; c < 3; ++c) {
        data.column(c).AppendValue(StressRow(id)[c]);
      }
    }
    ColumnStoreTable::Options options;
    options.row_group_size = kRowGroupSize;
    options.min_compress_rows = 50;
    auto cs =
        std::make_unique<ColumnStoreTable>("t", schema, options);
    cs->BulkLoad(data).CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
    table = catalog.GetColumnStore("t");
  }
};

PlanPtr AggregatePlan(const Catalog& catalog, const std::string& table = "t") {
  PlanBuilder b = PlanBuilder::Scan(catalog, table);
  b.Aggregate({}, {{AggFn::kSum, "a", "sum_a"},
                   {AggFn::kSum, "b", "sum_b"},
                   {AggFn::kCountStar, "", "cnt"}});
  return b.Build();
}

TEST(ConcurrentTableStressTest, ScansSeeConsistentSnapshotsUnderChurn) {
  // Metric baselines before the fixture bulk-loads: the registry is
  // process-global, so wiring assertions below are deltas from here.
  Counter* rows_inserted_metric = MetricsRegistry::Global().GetCounter(
      "vstore_table_rows_inserted_total", "table", "t");
  Counter* rows_deleted_metric = MetricsRegistry::Global().GetCounter(
      "vstore_table_rows_deleted_total", "table", "t");
  const int64_t inserted_metric0 = rows_inserted_metric->Value();
  const int64_t deleted_metric0 = rows_deleted_metric->Value();

  StressFixture f;
  ColumnStoreTable* table = f.table;

  std::atomic<bool> stop{false};
  // Bounds for COUNT(*): attempts are counted *before* the mutation, so a
  // counter read *after* a scan completes covers every mutation that scan
  // could have observed.
  std::atomic<int64_t> inserts_attempted{0};
  std::atomic<int64_t> deletes_attempted{0};

  TupleMover::Options mover_options;
  mover_options.rebuild_deleted_fraction = 0.2;
  TupleMover mover(table, mover_options);
  mover.Start(std::chrono::milliseconds(2));

  // --- Scanners: scalar aggregate, serial and fragmented ---------------
  PlanPtr plan = AggregatePlan(f.catalog);
  const int scans = ScansPerThread();
  // Run for the requested scan count but also a minimum wall-clock window
  // so the 2ms-period mover gets real interleaving with open scans.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  auto scanner = [&](int which) {
    // Counters read while writers run must never appear to move backwards
    // (monotonicity is the one guarantee relaxed reads keep).
    int64_t last_inserted = rows_inserted_metric->Value();
    int64_t last_deleted = rows_deleted_metric->Value();
    for (int r = 0; r < scans || std::chrono::steady_clock::now() < deadline;
         ++r) {
      QueryOptions options;
      options.mode = ExecutionMode::kBatch;
      options.dop = (r % 2 == 0) ? 1 : 4;
      QueryExecutor exec(&f.catalog, options);
      QueryResult result = exec.Execute(plan).ValueOrDie();
      ASSERT_EQ(result.rows_returned, 1);
      int64_t sum_a = result.data.column(0).GetInt64(0);
      int64_t sum_b = result.data.column(1).GetInt64(0);
      int64_t count = result.data.column(2).GetInt64(0);
      // The invariant holds within one snapshot no matter how much churn
      // happened while the scan was running.
      ASSERT_EQ(sum_a + sum_b, kInvariant * count)
          << "scanner " << which << " run " << r << " dop " << options.dop
          << ": scan mixed rows from different table versions";
      // Counter reads after the scan bound what it could have seen.
      int64_t max_count = kInitialRows + inserts_attempted.load();
      int64_t min_count = kInitialRows - deletes_attempted.load();
      ASSERT_GE(count, min_count) << "scanner " << which << " run " << r;
      ASSERT_LE(count, max_count) << "scanner " << which << " run " << r;
      int64_t inserted_now = rows_inserted_metric->Value();
      int64_t deleted_now = rows_deleted_metric->Value();
      ASSERT_GE(inserted_now, last_inserted)
          << "scanner " << which << ": rows_inserted counter went backwards";
      ASSERT_GE(deleted_now, last_deleted)
          << "scanner " << which << ": rows_deleted counter went backwards";
      last_inserted = inserted_now;
      last_deleted = deleted_now;
    }
  };

  // --- Updater: chases its own rows through update chains --------------
  auto updater = [&] {
    Random rng(101);
    std::vector<RowId> mine;
    int64_t next_id = 1000000;
    for (int i = 0; i < 64; ++i) {
      inserts_attempted.fetch_add(1);
      mine.push_back(table->Insert(StressRow(next_id++)).ValueOrDie());
    }
    while (!stop.load(std::memory_order_relaxed)) {
      size_t slot = static_cast<size_t>(rng.Next() % mine.size());
      auto updated = table->Update(mine[slot], StressRow(next_id++));
      if (updated.ok()) {
        mine[slot] = updated.value();
      } else {
        // The mover compacted the delta store this rowid lived in; the row
        // is now at a compressed rowid we no longer know. Adopt a fresh one.
        ASSERT_TRUE(updated.status().IsNotFound()) << updated.status().ToString();
        inserts_attempted.fetch_add(1);
        mine[slot] = table->Insert(StressRow(next_id++)).ValueOrDie();
      }
      if (rng.Next() % 8 == 0) {
        std::vector<Value> row;
        Status got = table->GetRow(mine[slot], &row);
        if (got.ok()) {
          ASSERT_EQ(row[1].int64() + row[2].int64(), kInvariant)
              << "torn row read";
        } else {
          ASSERT_TRUE(got.IsNotFound()) << got.ToString();
        }
      }
    }
  };

  // --- Churner: trickle inserts plus deletes of old compressed rows ----
  auto churner = [&] {
    Random rng(202);
    int64_t next_id = 2000000;
    while (!stop.load(std::memory_order_relaxed)) {
      inserts_attempted.fetch_add(1);
      table->Insert(StressRow(next_id++)).status().CheckOK();
      if (rng.Next() % 4 == 0) {
        // Target the initial groups; the generation may be stale by the
        // time the delete runs, in which case it must fail cleanly.
        int64_t group = static_cast<int64_t>(rng.Next() % 8);
        int64_t offset =
            static_cast<int64_t>(rng.Next() % kRowGroupSize);
        RowId id = MakeCompressedRowId(group, offset, table->generation(group));
        deletes_attempted.fetch_add(1);
        Status st = table->Delete(id);
        ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(scanner, 0);
  threads.emplace_back(scanner, 1);
  std::thread update_thread(updater);
  std::thread churn_thread(churner);
  for (auto& t : threads) t.join();
  stop.store(true);
  update_thread.join();
  churn_thread.join();
  ASSERT_TRUE(mover.Stop().ok());

  // Post-quiescence: the final state still satisfies the invariant.
  QueryOptions options;
  options.mode = ExecutionMode::kBatch;
  QueryExecutor exec(&f.catalog, options);
  QueryResult result = exec.Execute(plan).ValueOrDie();
  int64_t sum_a = result.data.column(0).GetInt64(0);
  int64_t sum_b = result.data.column(1).GetInt64(0);
  int64_t count = result.data.column(2).GetInt64(0);
  EXPECT_EQ(sum_a + sum_b, kInvariant * count);
  EXPECT_EQ(count, table->num_rows());

  // Metrics are exactly consistent at quiescence: every successful insert
  // and delete (updates count as one of each) was recorded, so the counter
  // deltas reconcile with the surviving row count — nothing was lost to a
  // race and nothing double-counted.
  EXPECT_EQ((rows_inserted_metric->Value() - inserted_metric0) -
                (rows_deleted_metric->Value() - deleted_metric0),
            table->num_rows());

  // And the published gauges agree with the storage snapshot.
  table->RefreshStorageGauges();
  EXPECT_EQ(table->metrics().delta_rows->Value(), table->num_delta_rows());
  EXPECT_EQ(table->metrics().row_groups->Value(), table->num_row_groups());
}

// An evicted archived segment decompresses on first touch
// (ColumnSegment::EnsureResident). Scans on several threads that touch it
// at once race on its residency flag: one fills the buffers under the lock
// while the others read the flag without it, so a reader that sees the
// segment resident must also see the filled buffers. Evictions run between
// rounds, with no reader active, as ColumnStoreTable requires.
TEST(ConcurrentTableStressTest, ScansRehydrateEvictedArchivedSegments) {
  constexpr int64_t kRows = 200000;
  constexpr int kThreads = 4;
  Schema schema = StressSchema();
  TableData data(schema);
  int64_t sum_a = 0;
  for (int64_t id = 0; id < kRows; ++id) {
    const std::vector<Value> row = StressRow(id);
    for (size_t c = 0; c < 3; ++c) data.column(c).AppendValue(row[c]);
    sum_a += row[1].int64();
  }
  Catalog catalog;
  auto cs = std::make_unique<ColumnStoreTable>("archived", schema,
                                               ColumnStoreTable::Options());
  cs->BulkLoad(data).CheckOK();
  ASSERT_TRUE(cs->Archive().ok());
  catalog.AddColumnStore(std::move(cs)).CheckOK();
  const ColumnStoreTable* table = catalog.GetColumnStore("archived");
  ASSERT_GT(table->Sizes().TotalArchived(), 0);
  PlanPtr plan = AggregatePlan(catalog, "archived");

  for (int round = 0; round < 5; ++round) {
    table->EvictAll();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        QueryOptions options;
        options.mode = ExecutionMode::kBatch;
        QueryExecutor exec(&catalog, options);
        QueryResult result = exec.Execute(plan).ValueOrDie();
        EXPECT_EQ(result.data.column(0).GetInt64(0), sum_a);
        EXPECT_EQ(result.data.column(1).GetInt64(0),
                  kInvariant * kRows - sum_a);
        EXPECT_EQ(result.data.column(2).GetInt64(0), kRows);
      });
    }
    for (auto& t : threads) t.join();
  }
}

}  // namespace
}  // namespace vstore
