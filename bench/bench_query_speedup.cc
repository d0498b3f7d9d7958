// Experiment E2 — the paper's headline result: typical data-warehouse
// queries run 10X-100X faster on column store indexes with batch-mode
// processing than on row stores with row-at-a-time processing. Reproduced
// on TPC-H: each query runs (a) row store + row mode, (b) column store +
// batch mode, (c) batch mode with DOP 4. The absolute numbers differ from
// the paper's testbed; the shape to check is batch-mode speedups in the
// 10x-100x band.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/span_trace.h"
#include "storage/sharded_table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace {

// Does the plan contain a hash join anywhere? Join queries get a
// dop-scaling factor in their PROFILE_JSON line: dop 4 must pull its
// weight on the shared-build parallel join, not just on scans.
bool PlanHasJoin(const vstore::PlanPtr& plan) {
  if (plan == nullptr) return false;
  if (plan->kind == vstore::PlanKind::kJoin) return true;
  for (const vstore::PlanPtr& child : plan->children) {
    if (PlanHasJoin(child)) return true;
  }
  return false;
}

}  // namespace

int main() {
  using namespace vstore;
  double sf = bench::EnvDouble("VSTORE_BENCH_SF", 0.05);
  std::printf("E2: TPC-H query elapsed times, SF=%.3f\n", sf);

  tpch::Tables tables = tpch::Generate(sf);
  Catalog catalog;
  ColumnStoreTable::Options cs_options;
  cs_options.optimize_row_order = false;  // keep load fast; E8 covers this
  // Laptop-scale row groups (the paper's 1M-row groups assume much larger
  // tables): gives segment elimination and DOP parallelism something to
  // work with at small scale factors.
  cs_options.row_group_size = 1 << 17;
  tpch::LoadIntoCatalog(&catalog, tables, /*column_store=*/true,
                        /*row_store=*/true, cs_options)
      .CheckOK();
  std::printf("lineitem rows: %lld\n\n",
              static_cast<long long>(tables.lineitem.num_rows()));

  std::printf("%-5s %12s %14s %14s | %9s %9s %9s\n", "query", "row-mode ms",
              "batch ms", "batch dop4 ms", "speedup", "dop4 x", "dop scal");

  auto run = [&](const std::string& label, const PlanPtr& plan,
                 ExecutionMode mode, int dop) {
    QueryOptions options;
    options.mode = mode;
    options.dop = dop;
    QueryExecutor exec(&catalog, options);
    double ms = bench::TimeMs(
        [&] { exec.Execute(plan).status().CheckOK(); },
        mode == ExecutionMode::kRow ? 1 : 3);
    if (bench::ProfileJsonEnabled()) {
      QueryResult result = exec.Execute(plan).ValueOrDie();
      bench::EmitProfileJson(label, result);
    }
    return ms;
  };

  for (const auto& named : tpch::AllQueries(catalog)) {
    bool has_join = PlanHasJoin(named.plan);
    double row_ms = run(named.name + "/row", named.plan,
                        ExecutionMode::kRow, 1);
    double batch_ms = run(named.name + "/batch", named.plan,
                          ExecutionMode::kBatch, 1);
    // For join queries the dop-4 run carries its scaling factor
    // (batch dop1 / batch dop4) in the PROFILE_JSON line, so scrapers
    // can track parallel-join scaling per query over time.
    double batch4_ms = batch_ms;
    {
      // First time the dop-4 plan to know the scaling factor, then emit.
      QueryOptions options;
      options.mode = ExecutionMode::kBatch;
      options.dop = 4;
      QueryExecutor exec(&catalog, options);
      batch4_ms = bench::TimeMs(
          [&] { exec.Execute(named.plan).status().CheckOK(); }, 3);
      if (bench::ProfileJsonEnabled()) {
        QueryResult result = exec.Execute(named.plan).ValueOrDie();
        std::string extra;
        if (has_join) {
          char buf[48];
          std::snprintf(buf, sizeof(buf), ",\"dop_scaling\":%.3f",
                        batch_ms / batch4_ms);
          extra = buf;
        }
        bench::EmitProfileJson(named.name + "/batch-dop4", result, extra);
      }
    }
    char scaling[16] = "        -";
    if (has_join) {
      std::snprintf(scaling, sizeof(scaling), "%8.1fx", batch_ms / batch4_ms);
    }
    std::printf("%-5s %12.1f %14.2f %14.2f | %8.1fx %8.1fx %s\n",
                named.name.c_str(), row_ms, batch_ms, batch4_ms,
                row_ms / batch_ms, row_ms / batch4_ms, scaling);
  }

  // --- Sharded tables: aggregate over shard ranges + partition pruning ----
  // lineitem reloaded into an 8-shard table hashed on l_orderkey. The
  // aggregate's scan reads one range per shard (its pinned snapshot), cut
  // into at most dop fragments at row-group granularity exactly as the
  // unsharded table's groups are; at dop 1 it is one scan on the query's
  // thread. The point query on the partition key prunes 7 of 8 shards,
  // visible in its scan's counters when VSTORE_BENCH_PROFILE=1.
  std::printf("\n%-24s %12s %12s\n", "sharded (8 x orderkey)", "batch ms",
              "dop4 ms");
  {
    ShardedTable::Options soptions;
    soptions.num_shards = 8;
    soptions.partition_key = "l_orderkey";
    soptions.shard_options = cs_options;
    // Each shard sees 1/8 of lineitem: shrink groups and the compression
    // floor so small scale factors still compress instead of leaving
    // every shard's rows in delta stores.
    soptions.shard_options.row_group_size = 1 << 14;
    soptions.shard_options.min_compress_rows = 1;
    auto sharded = std::make_unique<ShardedTable>(
        "lineitem_sharded", tables.lineitem.schema(), std::move(soptions));
    sharded->BulkLoad(tables.lineitem).CheckOK();
    ShardedTable* raw_sharded = sharded.get();
    catalog.AddShardedTable(std::move(sharded)).CheckOK();
    TupleMover::Options mover_options;
    mover_options.include_open_stores = true;
    ShardedTupleMover(raw_sharded, mover_options).RunOnce().ValueOrDie();

    auto agg_plan = [&](const char* tbl) {
      PlanBuilder b = PlanBuilder::Scan(catalog, tbl);
      b.Aggregate({"l_returnflag"},
                  {{AggFn::kSum, "l_quantity", "sum_qty"},
                   {AggFn::kSum, "l_extendedprice", "sum_price"},
                   {AggFn::kCountStar, "", "cnt"}});
      return b.Build();
    };
    for (const char* tbl : {"lineitem", "lineitem_sharded"}) {
      PlanPtr plan = agg_plan(tbl);
      double ms1 = run(std::string("sharded_agg/") + tbl + "/dop1", plan,
                       ExecutionMode::kBatch, 1);
      double ms4 = run(std::string("sharded_agg/") + tbl + "/dop4", plan,
                       ExecutionMode::kBatch, 4);
      std::printf("%-24s %12.2f %12.2f\n", tbl, ms1, ms4);
    }

    PlanBuilder b = PlanBuilder::Scan(catalog, "lineitem_sharded");
    b.Filter(expr::Eq(expr::Column(b.schema(), "l_orderkey"),
                      expr::Lit(Value::Int64(1))));
    double point_ms = run("sharded_point/pruned", b.Build(),
                          ExecutionMode::kBatch, 1);
    std::printf("%-24s %12.2f %12s\n", "point query (7/8 pruned)", point_ms,
                "-");
  }

  // --- Tracer overhead (acceptance: <3% on batch-mode TPC-H) --------------
  // Same queries, batch mode, tracing on vs off. Tracing is on by default
  // in production, so this is the number that justifies the default: one
  // span per operator execution plus a thread-local pointer swap per
  // protocol call must stay in the noise.
  {
    // Arms are interleaved per query (off/on/off/on, best-of across both
    // rounds) so clock drift and cache warmup on the host cannot bias one
    // arm — sequential whole-suite arms showed several percent of pure
    // machine drift, larger than the effect being measured.
    auto best_ms = [&](const PlanPtr& plan, bool trace_on) {
      QueryOptions options;
      options.mode = ExecutionMode::kBatch;
      options.trace = trace_on;
      QueryExecutor exec(&catalog, options);
      return bench::TimeMs(
          [&] { exec.Execute(plan).status().CheckOK(); }, 5);
    };
    double off_ms = 0;
    double on_ms = 0;
    for (const auto& named : tpch::AllQueries(catalog)) {
      double off = best_ms(named.plan, false);
      double on = best_ms(named.plan, true);
      off = std::min(off, best_ms(named.plan, false));
      on = std::min(on, best_ms(named.plan, true));
      off_ms += off;
      on_ms += on;
    }
    double overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
    std::printf(
        "\ntracer overhead: trace-off %.2f ms, trace-on %.2f ms -> %.2f%% "
        "(target < 3%%)\n",
        off_ms, on_ms, overhead_pct);
    if (bench::ProfileJsonEnabled()) {
      std::printf(
          "PROFILE_JSON {\"label\":\"trace_overhead\",\"trace_off_ms\":%.3f,"
          "\"trace_on_ms\":%.3f,\"trace_overhead_pct\":%.2f}\n",
          off_ms, on_ms, overhead_pct);
    }
  }

  // --- Memory-accounting overhead (acceptance: <3% on batch-mode TPC-H) ---
  // Same discipline as the tracer gate above: memory tracking is on by
  // default, so the relaxed-atomic charge path (arena blocks, hash-table
  // bucket arrays, sort buffers, exchange queues) must also stay in the
  // noise. Arms are interleaved per query, best-of across two rounds.
  {
    auto best_ms = [&](const PlanPtr& plan, bool track_on) {
      QueryOptions options;
      options.mode = ExecutionMode::kBatch;
      options.track_memory = track_on;
      QueryExecutor exec(&catalog, options);
      return bench::TimeMs(
          [&] { exec.Execute(plan).status().CheckOK(); }, 5);
    };
    double off_ms = 0;
    double on_ms = 0;
    for (const auto& named : tpch::AllQueries(catalog)) {
      double off = best_ms(named.plan, false);
      double on = best_ms(named.plan, true);
      off = std::min(off, best_ms(named.plan, false));
      on = std::min(on, best_ms(named.plan, true));
      off_ms += off;
      on_ms += on;
    }
    double overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
    std::printf(
        "\nmemory-accounting overhead: track-off %.2f ms, track-on %.2f ms "
        "-> %.2f%% (target < 3%%)\n",
        off_ms, on_ms, overhead_pct);
    if (bench::ProfileJsonEnabled()) {
      std::printf(
          "PROFILE_JSON {\"label\":\"mem_overhead\",\"mem_off_ms\":%.3f,"
          "\"mem_on_ms\":%.3f,\"mem_overhead_pct\":%.2f}\n",
          off_ms, on_ms, overhead_pct);
    }
  }

  // --- Per-query peak memory (VSTORE_BENCH_METRICS=1) ---------------------
  // The memory-attribution columns: per-query tracker peak and spill
  // bytes at dop 1 and dop 4, the numbers sys.query_stats folds per
  // fingerprint.
  if (bench::MetricsJsonEnabled()) {
    std::printf("\n%-5s %14s %14s %12s\n", "query", "peak dop1", "peak dop4",
                "spill");
    for (const auto& named : tpch::AllQueries(catalog)) {
      int64_t peak[2] = {0, 0};
      int64_t spill = 0;
      for (int i = 0; i < 2; ++i) {
        QueryOptions options;
        options.mode = ExecutionMode::kBatch;
        options.dop = i == 0 ? 1 : 4;
        QueryExecutor exec(&catalog, options);
        QueryResult result = exec.Execute(named.plan).ValueOrDie();
        peak[i] = result.peak_memory_bytes;
        spill += result.spill_bytes;
      }
      std::printf("%-5s %12.2fMB %12.2fMB %10lldB\n", named.name.c_str(),
                  bench::MiB(peak[0]), bench::MiB(peak[1]),
                  static_cast<long long>(spill));
    }
  }

  // --- Span-tree export (VSTORE_BENCH_TRACE=1) ----------------------------
  // Dumps the Chrome-trace span tree of the dop-4 join query: one line to
  // redirect into a .json and load in chrome://tracing (see README). The
  // TraceRing is merged in, so concurrent mover passes line up against the
  // query timeline.
  {
    const char* v = std::getenv("VSTORE_BENCH_TRACE");
    if (v != nullptr && v[0] != '\0' && v[0] != '0') {
      QueryOptions options;
      options.mode = ExecutionMode::kBatch;
      options.dop = 4;
      QueryExecutor exec(&catalog, options);
      QueryResult result = exec.Execute(tpch::Q3(catalog)).ValueOrDie();
      std::printf("TRACE_JSON %s\n",
                  TraceToChromeJson(result.trace, /*include_trace_ring=*/true)
                      .c_str());
    }
  }

  std::printf(
      "\nExpected shape: batch mode 10x-100x faster than row mode, with\n"
      "the largest gains on scan-heavy aggregation queries (Q1, Q6).\n");
  unsigned hc = std::thread::hardware_concurrency();
  if (hc <= 1) {
    std::printf(
        "NOTE: this host reports a single CPU; DOP-4 plans (parallel scan +\n"
        "partial aggregation under an exchange) cannot beat DOP-1 here and\n"
        "mainly measure threading overhead.\n");
  }
  if (bench::MetricsJsonEnabled()) {
    bench::EmitMetricsJson("bench_query_speedup");
    bench::EmitQueryStoreJson("bench_query_speedup");
  }
  return 0;
}
