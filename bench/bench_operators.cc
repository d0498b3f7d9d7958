// Experiment E4 — batch-mode vs row-mode operator microbenchmarks
// (paper §5: batch operators amortize per-tuple interpretation cost).
// google-benchmark fixtures compare per-row cost of filter, hash join
// probe, and hash aggregation in both engines.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "exec/expr_kernels.h"
#include "exec/expr_program.h"
#include "exec/expression.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/hash_table.h"
#include "exec/row/row_operator.h"
#include "exec/scan.h"
#include "query/catalog.h"
#include "storage/bit_pack.h"

namespace vstore {
namespace {

constexpr int64_t kRows = 1 << 18;

// Shared fixture data: one column store + one row store with the same rows.
struct Fixture {
  TableData data;
  std::unique_ptr<ColumnStoreTable> column_store;
  std::unique_ptr<RowStoreTable> row_store;

  Fixture() : data(bench::SortedFactTable(kRows, 7)) {
    ColumnStoreTable::Options options;
    options.min_compress_rows = 1;
    column_store =
        std::make_unique<ColumnStoreTable>("t", data.schema(), options);
    column_store->BulkLoad(data).CheckOK();
    column_store->CompressDeltaStores(true).status().CheckOK();
    row_store = std::make_unique<RowStoreTable>("t", data.schema());
    row_store->Append(data).CheckOK();
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

int64_t DrainBatchCount(BatchOperator* op) {
  op->Open().CheckOK();
  int64_t count = 0;
  for (;;) {
    Batch* batch = op->Next().ValueOrDie();
    if (batch == nullptr) break;
    count += batch->active_count();
  }
  op->Close();
  return count;
}

int64_t DrainRowCount(RowOperator* op) {
  op->Open().CheckOK();
  int64_t count = 0;
  std::vector<Value> row;
  for (;;) {
    auto more = op->Next(&row);
    more.status().CheckOK();
    if (!more.value()) break;
    ++count;
  }
  op->Close();
  return count;
}

void BM_BatchScanFilter(benchmark::State& state) {
  Fixture& f = GetFixture();
  ExecContext ctx;
  for (auto _ : state) {
    ColumnStoreScanOperator::Options options;
    options.predicates = {{1, CompareOp::kLt, Value::Int64(20)}};
    ColumnStoreScanOperator scan(f.column_store.get(), options, &ctx);
    benchmark::DoNotOptimize(DrainBatchCount(&scan));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_BatchScanFilter);

void BM_RowScanFilter(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    auto scan = std::make_unique<RowStoreScanOperator>(f.row_store.get());
    ExprPtr pred = expr::Lt(expr::Column(f.data.schema(), "store_id"),
                            expr::Lit(Value::Int64(20)));
    RowFilterOperator filter(std::move(scan), pred);
    benchmark::DoNotOptimize(DrainRowCount(&filter));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_RowScanFilter);

void BM_BatchHashAggregate(benchmark::State& state) {
  Fixture& f = GetFixture();
  ExecContext ctx;
  for (auto _ : state) {
    auto scan = std::make_unique<ColumnStoreScanOperator>(
        f.column_store.get(), ColumnStoreScanOperator::Options{}, &ctx);
    HashAggregateOperator::Options options;
    options.group_by = {1};  // store_id: 200 groups
    options.aggregates = {{AggFn::kSum, 3, "units"},
                          {AggFn::kAvg, 4, "rev"},
                          {AggFn::kCountStar, -1, "cnt"}};
    HashAggregateOperator agg(std::move(scan), options, &ctx);
    benchmark::DoNotOptimize(DrainBatchCount(&agg));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_BatchHashAggregate);

// High-cardinality GROUP BY: (event_date, store_id) has about 122k groups
// of ~2 rows, clustered by the sorted date, so the group table, not the
// fold, sets the cost (the shape of TPC-H's GROUP BY l_orderkey).
void BM_BatchHashAggregateManyGroups(benchmark::State& state) {
  Fixture& f = GetFixture();
  ExecContext ctx;
  int64_t groups = 0;
  for (auto _ : state) {
    auto scan = std::make_unique<ColumnStoreScanOperator>(
        f.column_store.get(), ColumnStoreScanOperator::Options{}, &ctx);
    HashAggregateOperator::Options options;
    options.group_by = {0, 1};  // event_date, store_id
    options.aggregates = {{AggFn::kSum, 3, "units"},
                          {AggFn::kCountStar, -1, "cnt"}};
    HashAggregateOperator agg(std::move(scan), options, &ctx);
    groups = DrainBatchCount(&agg);
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_BatchHashAggregateManyGroups);

void BM_RowHashAggregate(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    RowHashAggregateOperator::Options options;
    options.group_by = {1};
    options.aggregates = {{AggFn::kSum, 3, "units"},
                          {AggFn::kAvg, 4, "rev"},
                          {AggFn::kCountStar, -1, "cnt"}};
    RowHashAggregateOperator agg(
        std::make_unique<RowStoreScanOperator>(f.row_store.get()), options);
    benchmark::DoNotOptimize(DrainRowCount(&agg));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_RowHashAggregate);

// Dimension table for join benchmarks: product_id -> name.
TableData DimTable() {
  Schema schema({{"pid", DataType::kInt64, false},
                 {"pname", DataType::kString, false}});
  TableData dim(schema);
  for (int64_t i = 1; i <= 5000; ++i) {
    dim.AppendRow({Value::Int64(i), Value::String("p" + std::to_string(i))});
  }
  return dim;
}

void BM_BatchHashJoin(benchmark::State& state) {
  Fixture& f = GetFixture();
  static TableData* dim = new TableData(DimTable());
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    ColumnStoreTable::Options options;
    options.min_compress_rows = 1;
    auto t = std::make_unique<ColumnStoreTable>("dim", DimTable().schema(),
                                                options);
    t->BulkLoad(DimTable()).CheckOK();
    t->CompressDeltaStores(true).status().CheckOK();
    c->AddColumnStore(std::move(t)).CheckOK();
    return c;
  }();
  (void)dim;
  ExecContext ctx;
  for (auto _ : state) {
    auto probe = std::make_unique<ColumnStoreScanOperator>(
        f.column_store.get(), ColumnStoreScanOperator::Options{}, &ctx);
    auto build = std::make_unique<ColumnStoreScanOperator>(
        catalog->GetColumnStore("dim"), ColumnStoreScanOperator::Options{},
        &ctx);
    HashJoinOperator::Options options;
    options.probe_keys = {2};  // product_id
    options.build_keys = {0};
    HashJoinOperator join(std::move(probe), std::move(build), options, &ctx);
    benchmark::DoNotOptimize(DrainBatchCount(&join));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_BatchHashJoin);

void BM_RowHashJoin(benchmark::State& state) {
  Fixture& f = GetFixture();
  static RowStoreTable* dim = [] {
    TableData d = DimTable();
    auto* t = new RowStoreTable("dim", d.schema());
    t->Append(d).CheckOK();
    return t;
  }();
  for (auto _ : state) {
    RowHashJoinOperator::Options options;
    options.join_type = JoinType::kInner;
    options.probe_keys = {2};
    options.build_keys = {0};
    RowHashJoinOperator join(
        std::make_unique<RowStoreScanOperator>(f.row_store.get()),
        std::make_unique<RowStoreScanOperator>(dim), options);
    benchmark::DoNotOptimize(DrainRowCount(&join));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_RowHashJoin);

// --- Per-kernel PROFILE_JSON deltas ---------------------------------------
// With VSTORE_BENCH_PROFILE=1 the bench emits one PROFILE_JSON line per
// kernel pair: the pre-PR baseline (tree interpreter / scalar kernels /
// per-row hashing) against the optimized path (bytecode VM / AVX2 kernels /
// batch hashing) on identical inputs. Scrapers match the "PROFILE_JSON "
// prefix; "speedup" > 1 means the optimized path won.

void EmitKernelDelta(const std::string& name, double baseline_ms,
                     double optimized_ms) {
  std::printf(
      "PROFILE_JSON {\"label\":\"kernel/%s\",\"baseline_ms\":%.4f,"
      "\"optimized_ms\":%.4f,\"speedup\":%.2f}\n",
      name.c_str(), baseline_ms, optimized_ms,
      optimized_ms > 0 ? baseline_ms / optimized_ms : 0.0);
}

void EmitKernelProfiles() {
  constexpr int64_t kN = kDefaultBatchSize;
  constexpr int kReps = 2000;
  Schema schema({{"k", DataType::kInt64, true},
                 {"v", DataType::kInt64, true},
                 {"d", DataType::kDouble, true}});
  Batch batch(schema, kN);
  Random rng(99);
  for (int64_t i = 0; i < kN; ++i) {
    batch.column(0).SetValue(i, Value::Int64(rng.Uniform(0, 1000)), nullptr);
    batch.column(1).SetValue(i, Value::Int64(rng.Uniform(-500, 500)), nullptr);
    batch.column(2).SetValue(
        i, Value::Double(static_cast<double>(rng.Uniform(0, 9999)) / 100.0),
        nullptr);
  }
  batch.set_num_rows(kN);
  batch.ActivateAll();

  // Kernel 1: predicate evaluation — bytecode VM vs tree interpreter. The
  // shape repeats a subexpression so CSE has something to elide.
  {
    ExprPtr shared = expr::Add(expr::Column(schema, "k"),
                               expr::Column(schema, "v"));
    ExprPtr pred = expr::And(
        expr::Gt(shared, expr::Lit(Value::Int64(100))),
        expr::Lt(shared, expr::Lit(Value::Int64(900))));
    auto program = ExprProgramCache::Global().GetOrCompile({pred});
    VSTORE_CHECK(program != nullptr);
    ExprFrame frame(program);
    double interpreted = bench::TimeMs([&] {
      ColumnVector out(DataType::kBool, kN);
      for (int r = 0; r < kReps; ++r) {
        pred->EvalBatch(batch, batch.arena(), &out).CheckOK();
      }
    });
    double compiled = bench::TimeMs([&] {
      for (int r = 0; r < kReps; ++r) frame.Run(batch).CheckOK();
    });
    EmitKernelDelta("filter_expr/compiled_vs_interpreted", interpreted,
                    compiled);
  }

  // Kernel 2: int64 compare-against-constant — AVX2 vs forced scalar.
  {
    std::vector<uint8_t> verdict(kN);
    auto run = [&] {
      for (int r = 0; r < kReps * 4; ++r) {
        kernels::CmpI64ConstMask(CompareOp::kLt, batch.column(0).ints(), 500,
                                 kN, verdict.data());
      }
    };
    simd::ForceLevelForTesting(simd::Level::kScalar);
    double scalar = bench::TimeMs(run);
    simd::ForceLevelForTesting(simd::Detected());
    double vec = bench::TimeMs(run);
    EmitKernelDelta("cmp_i64_const/simd_vs_scalar", scalar, vec);
  }

  // Kernel 3: join/agg key hashing — batch kernel vs per-row loop.
  {
    RowFormat fmt(schema);
    std::vector<int> keys{0, 1};
    std::vector<uint64_t> hashes(kN);
    double per_row = bench::TimeMs([&] {
      for (int r = 0; r < kReps; ++r) {
        for (int64_t i = 0; i < kN; ++i) {
          hashes[static_cast<size_t>(i)] =
              fmt.HashKeysFromBatch(batch, i, keys);
        }
      }
    });
    double batched = bench::TimeMs([&] {
      for (int r = 0; r < kReps; ++r) {
        HashKeysBatch(batch, keys, batch.active(), hashes.data());
      }
    });
    EmitKernelDelta("hash_keys/batch_vs_per_row", per_row, batched);
  }

  // Kernel 4: bit-unpack decode — AVX2 gather vs scalar streaming.
  {
    constexpr int kBw = 13;
    std::vector<uint64_t> values(1 << 16);
    for (auto& v : values) v = rng.Next() & ((uint64_t{1} << kBw) - 1);
    auto packed =
        BitPacker::Pack(values.data(), static_cast<int64_t>(values.size()),
                        kBw);
    std::vector<uint64_t> out(values.size());
    auto run = [&] {
      for (int r = 0; r < 50; ++r) {
        BitPacker::Unpack(packed.data(), kBw, 0,
                          static_cast<int64_t>(values.size()), out.data());
      }
    };
    simd::ForceLevelForTesting(simd::Level::kScalar);
    double scalar = bench::TimeMs(run);
    simd::ForceLevelForTesting(simd::Detected());
    double vec = bench::TimeMs(run);
    EmitKernelDelta("bit_unpack/simd_vs_scalar", scalar, vec);
  }

  std::printf("PROFILE_JSON {\"label\":\"kernel/simd_level\",\"active\":\"%s\"}\n",
              simd::LevelName(simd::Active()));
}

}  // namespace
}  // namespace vstore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (vstore::bench::ProfileJsonEnabled()) {
    vstore::EmitKernelProfiles();
  }
  return 0;
}
