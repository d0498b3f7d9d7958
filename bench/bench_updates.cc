// Experiment E6 — updatable column store overheads (paper §3): trickle
// insert throughput into delta stores, scan slowdown as the delta-store
// fraction grows, the tuple mover's effect, and the cost of scanning with
// increasingly populated delete bitmaps.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "storage/durable_table.h"
#include "storage/sharded_table.h"
#include "storage/tuple_mover.h"

namespace vstore {
namespace {

QueryResult RunCount(const Catalog& catalog, const char* table) {
  PlanBuilder b = PlanBuilder::Scan(catalog, table);
  b.Aggregate({}, {{AggFn::kSum, "units", "u"}, {AggFn::kCountStar, "", "c"}});
  QueryExecutor exec(&catalog);
  return exec.Execute(b.Build()).ValueOrDie();
}

}  // namespace
}  // namespace vstore

int main() {
  using namespace vstore;
  const int64_t base_rows =
      static_cast<int64_t>(bench::EnvDouble("VSTORE_BENCH_ROWS", 1000000));

  std::printf("E6: update support overheads, base table %lld rows\n\n",
              static_cast<long long>(base_rows));

  // --- Part 1: trickle insert throughput --------------------------------
  {
    TableData data = bench::SortedFactTable(1000, 1);
    ColumnStoreTable table("t", data.schema());
    const int64_t inserts = 200000;
    double ms = bench::TimeMs(
        [&] {
          for (int64_t i = 0; i < inserts; ++i) {
            table.Insert(data.GetRow(i % 1000)).ValueOrDie();
          }
        },
        1);
    std::printf("trickle insert: %lld rows in %.1f ms  (%.0f Krows/s)\n",
                static_cast<long long>(inserts), ms,
                static_cast<double>(inserts) / ms);
  }

  // --- Part 2: scan cost vs delta fraction -------------------------------
  std::printf("\n%-16s %12s %14s | %8s\n", "delta fraction", "scan ms",
              "post-move ms", "penalty");
  for (double fraction : {0.0, 0.01, 0.05, 0.20}) {
    TableData data = bench::SortedFactTable(base_rows, 2);
    int64_t compressed_rows =
        static_cast<int64_t>(static_cast<double>(base_rows) * (1 - fraction));

    Catalog catalog;
    ColumnStoreTable::Options options;
    options.min_compress_rows = 1;
    auto table =
        std::make_unique<ColumnStoreTable>("t", data.schema(), options);
    {
      TableData bulk(data.schema());
      for (int64_t i = 0; i < compressed_rows; ++i) {
        bulk.AppendRow(data.GetRow(i));
      }
      table->BulkLoad(bulk).CheckOK();
      table->CompressDeltaStores(true).status().CheckOK();
    }
    for (int64_t i = compressed_rows; i < base_rows; ++i) {
      table->Insert(data.GetRow(i)).ValueOrDie();
    }
    ColumnStoreTable* raw = table.get();
    catalog.AddColumnStore(std::move(table)).CheckOK();

    double scan_ms = bench::TimeMs([&] { RunCount(catalog, "t"); });

    // Tuple mover compresses the delta stores; rescan.
    TupleMover::Options mover_options;
    mover_options.include_open_stores = true;
    TupleMover mover(raw, mover_options);
    mover.RunOnce().ValueOrDie();
    double moved_ms = bench::TimeMs([&] { RunCount(catalog, "t"); });

    char label[24];
    std::snprintf(label, sizeof(label), "%5.1f%%", fraction * 100);
    std::printf("%-16s %12.2f %14.2f | %7.2fx\n", label, scan_ms, moved_ms,
                scan_ms / moved_ms);
  }

  // --- Part 3: delete bitmap overhead -------------------------------------
  std::printf("\n%-16s %12s %12s\n", "deleted rows", "scan ms", "rows out");
  {
    TableData data = bench::SortedFactTable(base_rows, 3);
    Catalog catalog;
    ColumnStoreTable::Options options;
    options.min_compress_rows = 1;
    auto table =
        std::make_unique<ColumnStoreTable>("t", data.schema(), options);
    table->BulkLoad(data).CheckOK();
    table->CompressDeltaStores(true).status().CheckOK();
    ColumnStoreTable* raw = table.get();
    catalog.AddColumnStore(std::move(table)).CheckOK();

    int64_t deleted = 0;
    for (double target : {0.0, 0.01, 0.10, 0.30}) {
      int64_t want = static_cast<int64_t>(static_cast<double>(base_rows) *
                                          target);
      // Spread deletions uniformly.
      while (deleted < want) {
        int64_t i = deleted * 7919 % base_rows;
        RowId id = MakeCompressedRowId(i / raw->options().row_group_size,
                                       i % raw->options().row_group_size);
        if (raw->Delete(id).ok()) ++deleted;
      }
      QueryResult probe = RunCount(catalog, "t");
      double ms = bench::TimeMs([&] { RunCount(catalog, "t"); });
      char label[24];
      std::snprintf(label, sizeof(label), "%5.1f%%", target * 100);
      std::printf("%-16s %12.2f %12lld\n", label, ms,
                  static_cast<long long>(probe.data.column(1).GetInt64(0)));
    }
  }

  // --- Part 4: scan latency under concurrent churn ------------------------
  // Scans pin an immutable table snapshot at open, so trickle inserts and
  // background compaction never block them: interference should be memory
  // bandwidth and CoW cloning, not lock waits.
  std::printf("\n%-20s %12s %12s\n", "mixed workload", "avg ms", "p95 ms");
  {
    const int64_t rows = std::min<int64_t>(base_rows, 200000);
    const int scans = 32;
    TableData data = bench::SortedFactTable(rows, 4);
    Catalog catalog;
    ColumnStoreTable::Options options;
    options.row_group_size = 1 << 16;  // several groups even at small sizes
    options.min_compress_rows = 1024;
    auto table =
        std::make_unique<ColumnStoreTable>("t", data.schema(), options);
    table->BulkLoad(data).CheckOK();
    table->CompressDeltaStores(true).status().CheckOK();
    ColumnStoreTable* raw = table.get();
    catalog.AddColumnStore(std::move(table)).CheckOK();

    auto measure = [&](const char* label) {
      std::vector<double> ms;
      ms.reserve(scans);
      for (int i = 0; i < scans; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        RunCount(catalog, "t");
        std::chrono::duration<double, std::milli> d =
            std::chrono::steady_clock::now() - t0;
        ms.push_back(d.count());
      }
      std::sort(ms.begin(), ms.end());
      double sum = 0;
      for (double v : ms) sum += v;
      std::printf("%-20s %12.2f %12.2f\n", label,
                  sum / static_cast<double>(scans),
                  ms[static_cast<size_t>(static_cast<double>(scans) * 0.95)]);
    };

    measure("quiescent");

    std::atomic<bool> stop{false};
    TupleMover mover(raw);
    mover.Start(std::chrono::milliseconds(10));
    std::thread writer([&] {
      // Trickle at a bounded rate (~100K rows/s) so the delta fraction
      // stays realistic instead of racing ahead of the mover.
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int burst = 0; burst < 100; ++burst) {
          raw->Insert(data.GetRow(i++ % rows)).ValueOrDie();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    measure("under churn");
    stop.store(true);
    writer.join();
    (void)mover.Stop();
  }

  // --- Part 5: sharded tables — multithreaded DML scaling + pruning -------
  // Each shard has its own delta stores and mutex, so concurrent writers
  // that hash to different shards never contend: DML throughput should
  // scale with shard count until routing collisions or memory bandwidth
  // take over. The PROFILE_JSON body is a partition-key point query, whose
  // scan's counters carry shards_total/shards_pruned (7 of 8 pruned).
  std::printf("\n%-10s %14s %10s\n", "shards", "DML Krows/s", "scaling");
  {
    const int kWriters = 8;
    const int64_t per_writer = 25000;
    TableData source = bench::SortedFactTable(1000, 5);
    double rate1 = 1;
    for (int shards : {1, 2, 4, 8}) {
      Catalog catalog;
      ShardedTable::Options options;
      options.num_shards = shards;
      options.partition_key = "product_id";
      auto table = std::make_unique<ShardedTable>("st", source.schema(),
                                                  std::move(options));
      ShardedTable* raw = table.get();
      catalog.AddShardedTable(std::move(table)).CheckOK();

      double ms = bench::TimeMs(
          [&] {
            std::vector<std::thread> writers;
            for (int w = 0; w < kWriters; ++w) {
              writers.emplace_back([&, w] {
                for (int64_t i = 0; i < per_writer; ++i) {
                  raw->Insert(source.GetRow((w * 131 + i) % 1000))
                      .ValueOrDie();
                }
              });
            }
            for (auto& t : writers) t.join();
          },
          1);
      double rate = static_cast<double>(kWriters * per_writer) / ms;
      if (shards == 1) rate1 = rate;
      std::printf("%-10d %14.0f %9.2fx\n", shards, rate, rate / rate1);

      if (bench::ProfileJsonEnabled()) {
        // Probe a key that exists so the pruned plan returns real rows.
        int64_t key = source.GetRow(0)[2].int64();
        PlanBuilder b = PlanBuilder::Scan(catalog, "st");
        b.Filter(expr::Eq(expr::Column(b.schema(), "product_id"),
                          expr::Lit(Value::Int64(key))));
        QueryExecutor exec(&catalog);
        QueryResult result = exec.Execute(b.Build()).ValueOrDie();
        char extra[96];
        std::snprintf(extra, sizeof(extra),
                      ",\"shards\":%d,\"dml_krows_per_s\":%.1f,"
                      "\"dml_scaling_vs_1shard\":%.3f",
                      shards, rate, rate / rate1);
        bench::EmitProfileJson("sharded_dml/shards" + std::to_string(shards),
                               result, extra);
      }
    }
  }

  // --- Part 6: durability cost — WAL commits + mmap-cold scans ------------
  // The WAL prices each DML commit at one record append plus (with
  // sync_commits) one fsync; batches amortize the fsync across the whole
  // batch via group commit. The scan comparison reopens a checkpointed
  // table so segments decode straight from the mmap'd checkpoint (cold:
  // page faults + decode) and then rescans the same mapping (warm).
  std::printf("\n%-28s %14s\n", "durable DML", "Krows/s");
  {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "vstore_bench_durable")
            .string();
    TableData source = bench::SortedFactTable(1000, 6);
    const int64_t inserts = 20000;
    // Each synchronous WAL commit costs an fsync (hundreds of µs), so the
    // per-commit configuration gets a smaller loop than the others.
    const int64_t wal_inserts = 2000;

    auto run_inserts = [&](ColumnStoreTable& table, int64_t count) {
      return bench::TimeMs(
          [&] {
            for (int64_t i = 0; i < count; ++i) {
              table.Insert(source.GetRow(i % 1000)).ValueOrDie();
            }
          },
          1);
    };
    double mem_ms;
    {
      ColumnStoreTable table("t", source.schema());
      mem_ms = run_inserts(table, inserts);
    }
    double wal_ms;
    {
      std::filesystem::remove_all(dir);
      ColumnStoreTable table("t", source.schema());
      auto durable = DurableTable::Open(dir, &table).ValueOrDie();
      wal_ms = run_inserts(table, wal_inserts);
    }
    double batch_ms;
    {
      std::filesystem::remove_all(dir);
      ColumnStoreTable table("t", source.schema());
      auto durable = DurableTable::Open(dir, &table).ValueOrDie();
      std::vector<const std::vector<Value>*> rows;
      std::vector<std::vector<Value>> storage;
      storage.reserve(1000);
      for (int64_t i = 0; i < 1000; ++i) {
        storage.push_back(source.GetRow(i));
      }
      for (const auto& row : storage) rows.push_back(&row);
      batch_ms = bench::TimeMs(
          [&] {
            for (int64_t b = 0; b < inserts / 1000; ++b) {
              table.InsertBatch(rows).ValueOrDie();
            }
          },
          1);
    }
    double mem_rate = static_cast<double>(inserts) / mem_ms;
    double wal_rate = static_cast<double>(wal_inserts) / wal_ms;
    double batch_rate = static_cast<double>(inserts) / batch_ms;
    std::printf("%-28s %14.1f\n", "memory-only trickle", mem_rate);
    std::printf("%-28s %14.1f  (%.0fx slower)\n", "WAL trickle (fsync/commit)",
                wal_rate, wal_rate > 0 ? mem_rate / wal_rate : 0.0);
    std::printf("%-28s %14.1f  (fsync/batch)\n", "WAL batched x1000",
                batch_rate);

    // Cold-vs-warm scan: checkpoint a bulk-loaded table, reopen it, and
    // compare the first scan (decoding from the fresh mmap) with a rescan.
    const int64_t scan_rows = std::min<int64_t>(base_rows, 500000);
    TableData data = bench::SortedFactTable(scan_rows, 7);
    ColumnStoreTable::Options scan_options;
    scan_options.row_group_size = 1 << 16;
    scan_options.min_compress_rows = 1;  // everything lands in segments
    std::filesystem::remove_all(dir);
    {
      ColumnStoreTable table("t", data.schema(), scan_options);
      auto durable = DurableTable::Open(dir, &table).ValueOrDie();
      table.BulkLoad(data).CheckOK();  // checkpoints synchronously
    }
    Catalog catalog;
    auto reopened =
        std::make_unique<ColumnStoreTable>("t", data.schema(), scan_options);
    ColumnStoreTable* raw = reopened.get();
    auto durable = DurableTable::Open(dir, raw).ValueOrDie();
    catalog.AddDurableColumnStore(std::move(reopened), std::move(durable))
        .CheckOK();
    auto scan_once = [&] {
      auto t0 = std::chrono::steady_clock::now();
      QueryResult r = RunCount(catalog, "t");
      std::chrono::duration<double, std::milli> d =
          std::chrono::steady_clock::now() - t0;
      return d.count();
    };
    double cold_ms = scan_once();
    double warm_ms = bench::TimeMs([&] { RunCount(catalog, "t"); });
    std::printf("\n%-28s %12s\n", "checkpointed scan", "ms");
    std::printf("%-28s %12.2f\n", "cold (first mmap scan)", cold_ms);
    std::printf("%-28s %12.2f  (%.2fx)\n", "warm (rescan)", warm_ms,
                warm_ms > 0 ? cold_ms / warm_ms : 0.0);

    if (bench::ProfileJsonEnabled()) {
      QueryResult result = RunCount(catalog, "t");
      char extra[224];
      std::snprintf(extra, sizeof(extra),
                    ",\"wal_trickle_krows_per_s\":%.1f,"
                    "\"memory_trickle_krows_per_s\":%.1f,"
                    "\"wal_batch_krows_per_s\":%.1f,"
                    "\"cold_scan_ms\":%.3f,\"warm_scan_ms\":%.3f",
                    wal_rate, mem_rate, batch_rate, cold_ms, warm_ms);
      bench::EmitProfileJson("durable/cold_vs_warm", result, extra);
    }
    std::filesystem::remove_all(dir);
  }

  std::printf(
      "\nExpected shape: trickle inserts sustain high rates (B-tree delta\n"
      "store); scans slow as delta fraction grows and recover after the\n"
      "tuple mover runs; delete bitmaps add only incremental scan cost;\n"
      "under-churn scan latency stays close to quiescent because scans\n"
      "read immutable snapshots and never wait on writers or the mover;\n"
      "multithreaded DML throughput scales with shard count (>=3x at 8\n"
      "shards) because writers hashing to different shards never share a\n"
      "lock; WAL trickle pays roughly one fsync per commit while batched\n"
      "commits amortize it to near memory-only rates; the first scan of a\n"
      "reopened checkpoint pays page-fault + decode cost once, then warm\n"
      "rescans match an always-in-memory table.\n");
  unsigned hc = std::thread::hardware_concurrency();
  if (hc <= 1) {
    std::printf(
        "NOTE: this host reports a single CPU; the sharded DML writers\n"
        "time-slice one core, so shard-count scaling measures only the\n"
        "removed lock contention, not the parallel speedup a multicore\n"
        "host shows.\n");
  }
  if (bench::MetricsJsonEnabled()) bench::EmitMetricsJson("bench_updates");
  return 0;
}
