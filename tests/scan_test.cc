#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/hash.h"
#include "common/random.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "query/executor.h"
#include "storage/dictionary.h"
#include "test_util.h"

namespace vstore {
namespace {

ColumnStoreTable::Options SmallGroups() {
  ColumnStoreTable::Options options;
  options.row_group_size = 1000;
  options.min_compress_rows = 100;
  return options;
}

struct ScanFixture {
  std::unique_ptr<ColumnStoreTable> table;
  ExecContext ctx;

  explicit ScanFixture(int64_t rows, int64_t batch_size = 128) {
    TableData data = testing_util::MakeTestTable(rows);
    table = std::make_unique<ColumnStoreTable>("t", data.schema(),
                                               SmallGroups());
    table->BulkLoad(data).CheckOK();
    ctx.batch_size = batch_size;
  }

  // Drains a scan; returns materialized rows.
  std::vector<std::vector<Value>> Drain(
      ColumnStoreScanOperator::Options options) {
    ColumnStoreScanOperator scan(table.get(), std::move(options), &ctx);
    scan.Open().CheckOK();
    std::vector<std::vector<Value>> rows;
    for (;;) {
      Batch* batch = scan.Next().ValueOrDie();
      if (batch == nullptr) break;
      for (int64_t i = 0; i < batch->num_rows(); ++i) {
        if (batch->active()[i]) rows.push_back(batch->GetActiveRow(i));
      }
    }
    scan.Close();
    return rows;
  }
};

TEST(ScanTest, FullScanReturnsEveryRow) {
  ScanFixture f(3500);
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 3500u);
  EXPECT_EQ(f.ctx.stats.rows_scanned, 3500);
  EXPECT_EQ(f.ctx.stats.row_groups_scanned, 4);
  EXPECT_EQ(f.ctx.stats.row_groups_eliminated, 0);
}

TEST(ScanTest, ProjectionSelectsColumns) {
  ScanFixture f(100);
  ColumnStoreScanOperator::Options options;
  options.projection = {3, 0};  // amount, id
  ColumnStoreScanOperator scan(f.table.get(), options, &f.ctx);
  EXPECT_EQ(scan.output_schema().num_columns(), 2);
  EXPECT_EQ(scan.output_schema().field(0).name, "amount");
  EXPECT_EQ(scan.output_schema().field(1).name, "id");
  auto rows = f.Drain(options);
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[5][1], Value::Int64(5));
}

TEST(ScanTest, PredicateOnProjectedColumn) {
  ScanFixture f(2000);
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kLt, Value::Int64(10)}};
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 10u);
  for (const auto& row : rows) EXPECT_LT(row[0].int64(), 10);
}

TEST(ScanTest, PredicateOnNonProjectedColumn) {
  ScanFixture f(2000);
  ColumnStoreScanOperator::Options options;
  options.projection = {3};                                  // amount only
  options.predicates = {{0, CompareOp::kGe, Value::Int64(1990)}};  // id >= 1990
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 10u);
}

TEST(ScanTest, SegmentEliminationSkipsGroups) {
  // ids are sequential, so each 1000-row group holds a disjoint id range.
  ScanFixture f(4000);
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kGe, Value::Int64(3500)}};
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 500u);
  EXPECT_EQ(f.ctx.stats.row_groups_eliminated, 3);
  EXPECT_EQ(f.ctx.stats.row_groups_scanned, 1);
  EXPECT_EQ(f.ctx.stats.rows_scanned, 1000);  // only the surviving group
}

TEST(ScanTest, EqualityEliminationViaMinMax) {
  ScanFixture f(3000);
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kEq, Value::Int64(1500)}};
  auto rows = f.Drain(options);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(1500));
  EXPECT_EQ(f.ctx.stats.row_groups_eliminated, 2);
}

TEST(ScanTest, StringPredicate) {
  ScanFixture f(1000);
  int name_col = 2;
  ColumnStoreScanOperator::Options options;
  options.predicates = {{name_col, CompareOp::kEq, Value::String("alpha")}};
  auto rows = f.Drain(options);
  ASSERT_GT(rows.size(), 0u);
  for (const auto& row : rows) EXPECT_EQ(row[2].str(), "alpha");
}

TEST(ScanTest, ConjunctivePredicates) {
  ScanFixture f(2000);
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kLt, Value::Int64(100)},
                        {1, CompareOp::kEq, Value::Int64(3)}};
  auto rows = f.Drain(options);
  for (const auto& row : rows) {
    EXPECT_LT(row[0].int64(), 100);
    EXPECT_EQ(row[1].int64(), 3);
  }
}

TEST(ScanTest, DeletedRowsMasked) {
  ScanFixture f(1500);
  for (int64_t i = 0; i < 100; ++i) {
    f.table->Delete(MakeCompressedRowId(0, i * 2)).CheckOK();
  }
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 1400u);
}

TEST(ScanTest, FullyDeletedGroupSkipped) {
  ScanFixture f(2000);
  for (int64_t i = 0; i < 1000; ++i) {
    f.table->Delete(MakeCompressedRowId(0, i)).CheckOK();
  }
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 1000u);
  EXPECT_EQ(f.ctx.stats.row_groups_eliminated, 1);
}

TEST(ScanTest, DeltaRowsIncluded) {
  ScanFixture f(1000);
  for (int64_t i = 0; i < 50; ++i) {
    f.table
        ->Insert({Value::Int64(10000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 1050u);
  EXPECT_EQ(f.ctx.stats.delta_rows_scanned, 50);
}

TEST(ScanTest, DeltaRowsRespectPredicates) {
  ScanFixture f(1000);
  for (int64_t i = 0; i < 50; ++i) {
    f.table
        ->Insert({Value::Int64(10000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kGe, Value::Int64(10025)}};
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 25u);
}

TEST(ScanTest, ExcludeDeltas) {
  ScanFixture f(1000);
  f.table
      ->Insert({Value::Int64(1), Value::Int64(1), Value::String("x"),
                Value::Double(0.0)})
      .ValueOrDie();
  ColumnStoreScanOperator::Options options;
  TableSnapshot snapshot = f.table->Snapshot();
  const int64_t groups = snapshot->num_row_groups();
  options.ranges = {ScanRange{std::move(snapshot), 0, groups, false}};
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 1000u);
}

TEST(ScanTest, GroupRangeForParallelFragments) {
  ScanFixture f(4000);
  ColumnStoreScanOperator::Options options;
  options.ranges = {ScanRange{f.table->Snapshot(), 1, 3, false}};
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 2000u);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0][0], Value::Int64(1000));
}

TEST(ScanTest, BloomFilterDropsNonMatching) {
  ScanFixture f(2000);
  BloomFilter filter(16);
  // Admit only ids 5 and 1500.
  filter.Insert(SingleKeyHash(HashInt64(5)));
  filter.Insert(SingleKeyHash(HashInt64(1500)));
  ColumnStoreScanOperator::Options options;
  options.bloom_filters = {{0, &filter}};
  auto rows = f.Drain(options);
  // Bloom filters may pass false positives but never drop true matches.
  ASSERT_GE(rows.size(), 2u);
  EXPECT_LT(rows.size(), 100u);
  bool found5 = false, found1500 = false;
  for (const auto& row : rows) {
    if (row[0].int64() == 5) found5 = true;
    if (row[0].int64() == 1500) found1500 = true;
  }
  EXPECT_TRUE(found5);
  EXPECT_TRUE(found1500);
  EXPECT_GT(f.ctx.stats.rows_bloom_filtered, 1800);
}

TEST(ScanTest, BloomFilterOnStringColumn) {
  ScanFixture f(1000);
  BloomFilter filter(4);
  filter.Insert(SingleKeyHash(Hash64(std::string_view("alpha"))));
  ColumnStoreScanOperator::Options options;
  options.bloom_filters = {{2, &filter}};
  auto rows = f.Drain(options);
  for (const auto& row : rows) EXPECT_EQ(row[2].str(), "alpha");
}

TEST(ScanTest, EmptyTableYieldsNoBatches) {
  Schema schema = testing_util::MakeTestTable(1).schema();
  ColumnStoreTable table("t", schema, SmallGroups());
  ExecContext ctx;
  ColumnStoreScanOperator scan(&table, {}, &ctx);
  scan.Open().CheckOK();
  EXPECT_EQ(scan.Next().ValueOrDie(), nullptr);
  scan.Close();
}

TEST(ScanTest, ArchivedTableScansTransparently) {
  ScanFixture f(2000);
  f.table->Archive().CheckOK();
  f.table->EvictAll();
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 2000u);
}

}  // namespace
}  // namespace vstore

namespace vstore {
namespace {

TEST(ScanTest, CodeSpacePredicateOnNonProjectedStringColumn) {
  ScanFixture f(2000);
  ColumnStoreScanOperator::Options options;
  options.projection = {0};  // id only — name is predicate-only
  options.predicates = {{2, CompareOp::kEq, Value::String("alpha")}};
  auto rows = f.Drain(options);
  // Cross-check against a full scan counting alphas.
  ScanFixture g(2000);
  int64_t expected = 0;
  for (const auto& row : g.Drain({})) {
    if (row[2].str() == "alpha") ++expected;
  }
  EXPECT_EQ(static_cast<int64_t>(rows.size()), expected);
}

TEST(ScanTest, CodeSpacePredicateAbsentValueMatchesNothing) {
  ScanFixture f(500);
  ColumnStoreScanOperator::Options options;
  options.projection = {0};
  options.predicates = {{2, CompareOp::kEq, Value::String("nonexistent")}};
  EXPECT_TRUE(f.Drain(options).empty());
}

TEST(ScanTest, CodeSpaceNePredicate) {
  ScanFixture f(1000);
  ColumnStoreScanOperator::Options options;
  options.projection = {2};  // projected: falls back to string compare
  options.predicates = {{2, CompareOp::kNe, Value::String("alpha")}};
  auto projected_rows = f.Drain(options);

  ColumnStoreScanOperator::Options scratch_options;
  scratch_options.projection = {0};  // not projected: code-space eval
  scratch_options.predicates = {{2, CompareOp::kNe, Value::String("alpha")}};
  auto scratch_rows = f.Drain(scratch_options);
  EXPECT_EQ(projected_rows.size(), scratch_rows.size());
  for (const auto& row : projected_rows) EXPECT_NE(row[0].str(), "alpha");
}

TEST(ScanTest, SamplingIsDeterministicAndProportional) {
  ScanFixture f(20000);
  ColumnStoreScanOperator::Options options;
  options.sample_fraction = 0.1;
  auto first = f.Drain(options);
  auto second = f.Drain(options);
  EXPECT_EQ(first.size(), second.size());  // deterministic
  // Within generous tolerance of the target rate.
  EXPECT_GT(first.size(), 1200u);
  EXPECT_LT(first.size(), 2800u);
  // Different seed, different sample.
  options.sample_seed = 999;
  auto reseeded = f.Drain(options);
  EXPECT_NE(first, reseeded);
}

TEST(ScanTest, SamplingCoversDeltaRows) {
  ScanFixture f(1000);
  for (int64_t i = 0; i < 1000; ++i) {
    f.table
        ->Insert({Value::Int64(100000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  ColumnStoreScanOperator::Options options;
  options.sample_fraction = 0.2;
  auto rows = f.Drain(options);
  int64_t delta_sampled = 0;
  for (const auto& row : rows) {
    if (row[0].int64() >= 100000) ++delta_sampled;
  }
  EXPECT_GT(delta_sampled, 100);
  EXPECT_LT(delta_sampled, 320);
}

TEST(ScanTest, ScanSnapshotIgnoresConcurrentReorganization) {
  // Regression: a scan used to hold the table's shared lock for its whole
  // lifetime, so running compaction mid-scan deadlocked. With snapshots the
  // scan pins one version at Open and reorganization proceeds freely; the
  // scan's results match its snapshot exactly.
  ScanFixture f(3500, /*batch_size=*/128);
  // Seed a closed delta store plus deletes so both reorg ops have work.
  for (int64_t i = 0; i < 1000; ++i) {
    f.table
        ->Insert({Value::Int64(100000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  for (int64_t i = 0; i < 600; ++i) {
    f.table->Delete(MakeCompressedRowId(1, i)).CheckOK();
  }
  ColumnStoreScanOperator scan(f.table.get(), {}, &f.ctx);
  scan.Open().CheckOK();
  // Consume one batch, then reorganize the table while the scan is open.
  Batch* batch = scan.Next().ValueOrDie();
  ASSERT_NE(batch, nullptr);
  int64_t rows_seen = 0;
  for (int64_t i = 0; i < batch->num_rows(); ++i) {
    if (batch->active()[i]) ++rows_seen;
  }
  ASSERT_GT(f.table->CompressDeltaStores().ValueOrDie(), 0);
  ASSERT_EQ(f.table->RemoveDeletedRows(0.1).ValueOrDie(), 1);
  // More churn after the reorg: none of it may leak into the open scan.
  f.table
      ->Insert({Value::Int64(999999), Value::Int64(1), Value::String("late"),
                Value::Double(0.0)})
      .ValueOrDie();
  f.table->Delete(MakeCompressedRowId(0, 5)).CheckOK();
  for (;;) {
    batch = scan.Next().ValueOrDie();
    if (batch == nullptr) break;
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (batch->active()[i]) ++rows_seen;
    }
  }
  scan.Close();
  // Snapshot-time live set: 3500 bulk + 1000 delta - 600 deleted.
  EXPECT_EQ(rows_seen, 3900);
  // And a fresh scan sees the post-reorg state.
  auto fresh = f.Drain({});
  EXPECT_EQ(fresh.size(), 3900u);  // -1 late delete +1 late insert
}

}  // namespace
}  // namespace vstore

namespace vstore {
namespace {

// --- Code lane ---------------------------------------------------------------

// Drains a scan, calling fn(batch) for every batch it returns.
void ForEachBatch(const ColumnStoreTable* table,
                  ColumnStoreScanOperator::Options options, ExecContext* ctx,
                  const std::function<void(const Batch&)>& fn) {
  ColumnStoreScanOperator scan(table, std::move(options), ctx);
  scan.Open().CheckOK();
  for (;;) {
    Batch* batch = scan.Next().ValueOrDie();
    if (batch == nullptr) break;
    fn(*batch);
  }
  scan.Close();
}

// Checks that column `c` of `batch` carries a lane whose codes resolve to
// the decoded strings on every active non-null row, and that those strings
// are column `c` of the source row (batch column 0 holds the row id);
// returns rows checked.
int64_t ExpectLaneMatchesStrings(const Batch& batch, int c,
                                 const TableData& source) {
  const ColumnVector& cv = batch.column(c);
  EXPECT_NE(cv.dictionary(), nullptr);
  if (cv.dictionary() == nullptr) return 0;
  int64_t checked = 0;
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    if (!batch.active()[i]) continue;
    const int64_t id = batch.column(0).ints()[i];
    EXPECT_EQ(cv.validity()[i] == 0, source.column(c).IsNull(id));
    if (!cv.validity()[i]) continue;
    EXPECT_EQ(cv.dictionary()->Get(static_cast<int64_t>(cv.codes()[i])),
              cv.strings()[i]);
    EXPECT_EQ(cv.strings()[i], source.column(c).GetString(id));
    ++checked;
  }
  return checked;
}

TEST(ScanLaneTest, LaneMatchesStringsOnBitPackedAndRleSegments) {
  Schema schema({{"id", DataType::kInt64, false},
                 {"bucket", DataType::kInt64, false},
                 {"name", DataType::kString, true},
                 {"run", DataType::kString, false}});
  TableData data(schema);
  Random rng(9);
  const char* names[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (int64_t i = 0; i < 4000; ++i) {
    data.AppendRow({Value::Int64(i), Value::Int64(rng.Uniform(0, 9)),
                    i % 11 == 0 ? Value::Null(DataType::kString)
                                : Value::String(names[rng.Uniform(0, 4)]),
                    Value::String("run" + std::to_string(i / 200))});
  }
  ColumnStoreTable table("t", schema, SmallGroups());
  table.BulkLoad(data).CheckOK();
  TableSnapshot snapshot = table.Snapshot();
  ASSERT_EQ(snapshot->row_group(0).column(2).encoding(),
            EncodingKind::kBitPack);
  ASSERT_EQ(snapshot->row_group(0).column(3).encoding(), EncodingKind::kRle);

  ExecContext ctx;
  ctx.batch_size = 128;
  // Dense batches: every row decoded.
  int64_t dense_rows = 0;
  ForEachBatch(&table, {}, &ctx, [&](const Batch& batch) {
    dense_rows += ExpectLaneMatchesStrings(batch, 2, data);
    ExpectLaneMatchesStrings(batch, 3, data);
  });
  EXPECT_GT(dense_rows, 3000);

  // Sparse windows: ~20% of rows survive the predicate, so the string
  // columns are gathered for the survivors only, into a compact batch.
  ColumnStoreScanOperator::Options sparse;
  sparse.predicates = {{1, CompareOp::kLt, Value::Int64(2)}};
  int64_t sparse_rows = 0;
  ForEachBatch(&table, sparse, &ctx, [&](const Batch& batch) {
    EXPECT_EQ(batch.active_count(), batch.num_rows());
    EXPECT_LE(batch.num_rows(), ctx.batch_size * 3 / 4);
    sparse_rows += ExpectLaneMatchesStrings(batch, 2, data);
    ExpectLaneMatchesStrings(batch, 3, data);
  });
  EXPECT_GT(sparse_rows, 0);
}

TEST(ScanLaneTest, NoLaneOnDeltaRows) {
  ScanFixture f(1000);
  const TableData data = testing_util::MakeTestTable(1000);
  for (int64_t i = 0; i < 50; ++i) {
    f.table
        ->Insert({Value::Int64(10000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  int64_t delta_rows = 0;
  ForEachBatch(f.table.get(), {}, &f.ctx, [&](const Batch& batch) {
    const bool from_delta = batch.column(0).ints()[0] >= 10000;
    if (from_delta) {
      EXPECT_EQ(batch.column(2).dictionary(), nullptr);
      delta_rows += batch.active_count();
    } else {
      ExpectLaneMatchesStrings(batch, 2, data);
    }
  });
  EXPECT_EQ(delta_rows, 50);
}

TEST(ScanLaneTest, NoLaneOnSegmentsWithALocalDictionary) {
  // Two primary entries for five names: every segment overflows into a
  // local dictionary, whose codes mean nothing outside the row group.
  ColumnStoreTable::Options options = SmallGroups();
  options.primary_dict_capacity = 2;
  TableData data = testing_util::MakeTestTable(3000);
  ColumnStoreTable table("t", data.schema(), options);
  table.BulkLoad(data).CheckOK();
  ASSERT_NE(table.Snapshot()->row_group(0).column(2).local_dictionary(),
            nullptr);

  ExecContext ctx;
  ctx.batch_size = 128;
  int64_t rows = 0;
  ForEachBatch(&table, {}, &ctx, [&](const Batch& batch) {
    EXPECT_EQ(batch.column(2).dictionary(), nullptr);
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      const int64_t id = batch.column(0).ints()[i];
      EXPECT_EQ(batch.column(2).strings()[i], data.column(2).GetString(id));
      ++rows;
    }
  });
  EXPECT_EQ(rows, 3000);
}

// --- Compact sparse windows --------------------------------------------------

Schema CompactSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"bucket", DataType::kInt64, false},
                 {"price", DataType::kDouble, true},
                 {"name", DataType::kString, true},
                 {"run", DataType::kString, false}});
}

// 4000 rows: `name` is bit-packed with NULLs, `run` is RLE (runs of 200).
TableData CompactData() {
  TableData data(CompactSchema());
  Random rng(17);
  const char* names[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (int64_t i = 0; i < 4000; ++i) {
    data.AppendRow(
        {Value::Int64(i), Value::Int64(rng.Uniform(0, 9)),
         i % 13 == 0 ? Value::Null(DataType::kDouble)
                     : Value::Double(static_cast<double>(rng.Uniform(0, 999)) /
                                     4.0),
         i % 11 == 0 ? Value::Null(DataType::kString)
                     : Value::String(names[rng.Uniform(0, 4)]),
         Value::String("run" + std::to_string(i / 200))});
  }
  return data;
}

std::unique_ptr<ColumnStoreTable> CompactTable(const TableData& data,
                                               int64_t primary_capacity) {
  ColumnStoreTable::Options options = SmallGroups();
  options.primary_dict_capacity = primary_capacity;
  auto table =
      std::make_unique<ColumnStoreTable>("t", data.schema(), options);
  table->BulkLoad(data).CheckOK();
  TableSnapshot snapshot = table->Snapshot();
  EXPECT_EQ(snapshot->row_group(0).column(3).encoding(),
            EncodingKind::kBitPack);
  EXPECT_EQ(snapshot->row_group(0).column(4).encoding(), EncodingKind::kRle);
  return table;
}

struct CompactScan {
  int64_t rows = 0;            // sum of num_rows()
  int64_t active = 0;          // sum of active_count()
  int64_t masked_batches = 0;  // batches with inactive rows
  int64_t max_rows = 0;        // widest batch
  int64_t lane_rows = 0;       // string cells checked against a lane
};

constexpr int64_t kCompactBatchSize = 128;

// Scans `table` and checks every active row against `source`: ids ascend
// across the scan, and every projected column (projection[0] is the id)
// equals the source row — validity, value and, where the vector carries a
// lane, the code's dictionary string.
CompactScan ScanAndCheck(const ColumnStoreTable* table,
                         ColumnStoreScanOperator::Options options,
                         const TableData& source) {
  ExecContext ctx;
  ctx.batch_size = kCompactBatchSize;
  const std::vector<int> projection = options.projection;
  CompactScan out;
  int64_t last_id = -1;
  ForEachBatch(table, std::move(options), &ctx, [&](const Batch& batch) {
    out.rows += batch.num_rows();
    out.active += batch.active_count();
    out.max_rows = std::max(out.max_rows, batch.num_rows());
    if (batch.active_count() < batch.num_rows()) ++out.masked_batches;
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      if (!batch.active()[i]) continue;
      const int64_t id = batch.column(0).ints()[i];
      EXPECT_GT(id, last_id);
      last_id = id;
      for (size_t c = 0; c < projection.size(); ++c) {
        const ColumnVector& cv = batch.column(static_cast<int>(c));
        const ColumnData& col = source.column(projection[c]);
        ASSERT_EQ(cv.validity()[i] == 0, col.IsNull(id))
            << "column " << projection[c] << " id " << id;
        if (col.IsNull(id)) continue;
        switch (cv.physical_type()) {
          case PhysicalType::kInt64:
            EXPECT_EQ(cv.ints()[i], col.GetInt64(id)) << "id " << id;
            break;
          case PhysicalType::kDouble:
            EXPECT_EQ(cv.doubles()[i], col.GetDouble(id)) << "id " << id;
            break;
          case PhysicalType::kString:
            EXPECT_EQ(cv.strings()[i], col.GetString(id)) << "id " << id;
            if (cv.dictionary() != nullptr) {
              EXPECT_EQ(
                  cv.dictionary()->Get(static_cast<int64_t>(cv.codes()[i])),
                  col.GetString(id));
              ++out.lane_rows;
            }
            break;
        }
      }
    }
  });
  return out;
}

// Predicate and Bloom columns that are also projected (early), with the
// rest gathered late: int, RLE string and bit-packed string early; int and
// double late.
ColumnStoreScanOperator::Options EarlyStringOptions(const BloomFilter* bloom) {
  ColumnStoreScanOperator::Options options;
  options.projection = {0, 1, 2, 3, 4};
  options.predicates = {{1, CompareOp::kLt, Value::Int64(2)},
                        {4, CompareOp::kNe, Value::String("run3")}};
  options.bloom_filters = {{3, bloom}};
  return options;
}

// A double predicate column projected (early); int, bit-packed string and
// RLE string gathered late.
ColumnStoreScanOperator::Options EarlyDoubleOptions() {
  ColumnStoreScanOperator::Options options;
  options.projection = {0, 2, 1, 3, 4};
  options.predicates = {{2, CompareOp::kLt, Value::Double(50.0)}};
  return options;
}

int64_t ExpectedSurvivors(const TableData& data,
                          const std::function<bool(int64_t)>& keep) {
  int64_t count = 0;
  for (int64_t i = 0; i < data.num_rows(); ++i) count += keep(i) ? 1 : 0;
  return count;
}

// Every batch held only active rows, at most 3/4 of a window's width.
void ExpectCompact(const CompactScan& scan) {
  EXPECT_EQ(scan.masked_batches, 0);
  EXPECT_EQ(scan.rows, scan.active);
  EXPECT_LE(scan.max_rows, kCompactBatchSize * 3 / 4);
}

TEST(ScanCompactTest, SparseWindowsComeOutCompact) {
  const TableData data = CompactData();
  for (int64_t capacity : {int64_t{1} << 20, int64_t{2}}) {
    SCOPED_TRACE(capacity == 2 ? "local dictionaries" : "primary only");
    std::unique_ptr<ColumnStoreTable> table = CompactTable(data, capacity);
    const bool local = capacity == 2;
    ASSERT_EQ(table->Snapshot()->row_group(0).column(3).local_dictionary() !=
                  nullptr,
              local);

    BloomFilter bloom(8);
    for (const char* name : {"alpha", "beta", "gamma"}) {
      bloom.Insert(SingleKeyHash(Hash64(std::string_view(name))));
    }
    CompactScan early =
        ScanAndCheck(table.get(), EarlyStringOptions(&bloom), data);
    ExpectCompact(early);
    // The Bloom filter may pass false positives, never drop a match.
    const int64_t matches = ExpectedSurvivors(data, [&](int64_t i) {
      const ColumnData& name = data.column(3);
      return data.column(1).GetInt64(i) < 2 &&
             data.column(4).GetString(i) != "run3" && !name.IsNull(i) &&
             (name.GetString(i) == "alpha" || name.GetString(i) == "beta" ||
              name.GetString(i) == "gamma");
    });
    EXPECT_GE(early.active, matches);
    EXPECT_GT(matches, 400);
    EXPECT_EQ(early.lane_rows > 0, !local);

    CompactScan late = ScanAndCheck(table.get(), EarlyDoubleOptions(), data);
    ExpectCompact(late);
    EXPECT_EQ(late.active, ExpectedSurvivors(data, [&](int64_t i) {
                return !data.column(2).IsNull(i) &&
                       data.column(2).GetDouble(i) < 50.0;
              }));
    EXPECT_EQ(late.lane_rows > 0, !local);
  }
}

TEST(ScanCompactTest, DeleteBitmapAloneMakesWindowsSparse) {
  const TableData data = CompactData();
  std::unique_ptr<ColumnStoreTable> table = CompactTable(data, 1 << 20);
  // Keep one row in five: every window is sparse with no predicate, so
  // every column is gathered late.
  for (int64_t g = 0; g < 4; ++g) {
    for (int64_t i = 0; i < 1000; ++i) {
      if (i % 5 != 2) table->Delete(MakeCompressedRowId(g, i)).CheckOK();
    }
  }
  ColumnStoreScanOperator::Options options;
  options.projection = {0, 1, 2, 3, 4};
  CompactScan scan = ScanAndCheck(table.get(), options, data);
  ExpectCompact(scan);
  EXPECT_EQ(scan.active, 800);
  EXPECT_GT(scan.lane_rows, 0);
}

TEST(ScanCompactTest, DenseWindowsKeepTheirWidthAndMask) {
  const TableData data = CompactData();
  std::unique_ptr<ColumnStoreTable> table = CompactTable(data, 1 << 20);
  // About 90% of each window survives: more than 3/4, so dense.
  ColumnStoreScanOperator::Options options;
  options.projection = {0, 1, 2, 3, 4};
  options.predicates = {{1, CompareOp::kNe, Value::Int64(0)}};
  CompactScan scan = ScanAndCheck(table.get(), options, data);
  EXPECT_EQ(scan.rows, 4000);  // every window at full width
  EXPECT_GT(scan.masked_batches, 0);
  EXPECT_EQ(scan.active, ExpectedSurvivors(data, [&](int64_t i) {
              return data.column(1).GetInt64(i) != 0;
            }));
}

// --- Window bookkeeping ------------------------------------------------------

TEST(ScanTest, DeletesAroundUnalignedWindowStarts) {
  // 900-row windows start at bitmap bit 900, which is not a byte boundary;
  // rows 16-23 fill one whole bitmap byte.
  ScanFixture f(2000, /*batch_size=*/900);
  std::vector<int64_t> deleted = {0, 7, 8, 899, 900, 901};
  for (int64_t r = 16; r < 24; ++r) deleted.push_back(r);
  for (int64_t r : deleted) {
    f.table->Delete(MakeCompressedRowId(0, r)).CheckOK();
  }
  std::vector<std::vector<Value>> expected;
  const TableData data = testing_util::MakeTestTable(2000);
  for (int64_t i = 0; i < 2000; ++i) {
    if (std::find(deleted.begin(), deleted.end(), i) == deleted.end()) {
      expected.push_back(data.GetRow(i));
    }
  }
  EXPECT_EQ(f.Drain({}), expected);

  // Every start and length against the row-at-a-time bitmap.
  const DeleteBitmap& bitmap = f.table->Snapshot()->delete_bitmap(0);
  for (int64_t start = 0; start < 40; ++start) {
    for (int64_t count = 0; count < 40; ++count) {
      std::vector<uint8_t> live(static_cast<size_t>(count), 0xee);
      bitmap.DecodeLiveness(start, count, live.data());
      for (int64_t i = 0; i < count; ++i) {
        EXPECT_EQ(live[static_cast<size_t>(i)],
                  bitmap.IsDeleted(start + i) ? 0 : 1)
            << "start " << start << " row " << start + i;
      }
    }
  }
}

// --- All-NULL string columns -------------------------------------------------

TEST(ScanTest, AllNullStringColumnScans) {
  // While the column's primary dictionary is empty, the null rows' code 0
  // resolves to no string; the scan must not look it up.
  Schema schema({{"id", DataType::kInt64, false},
                 {"s", DataType::kString, true}});
  TableData data(schema);
  for (int64_t i = 0; i < 500; ++i) {
    data.AppendRow({Value::Int64(i), Value::Null(DataType::kString)});
  }
  auto table = std::make_unique<ColumnStoreTable>("t", schema, SmallGroups());
  table->BulkLoad(data).CheckOK();
  ASSERT_EQ(table->Snapshot()->num_row_groups(), 1);
  ExecContext ctx;
  int64_t rows = 0;
  ForEachBatch(table.get(), {}, &ctx, [&](const Batch& batch) {
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      EXPECT_EQ(batch.column(1).validity()[i], 0);
      ++rows;
    }
  });
  EXPECT_EQ(rows, 500);

  Catalog catalog;
  catalog.AddColumnStore(std::move(table)).CheckOK();
  PlanBuilder b = PlanBuilder::Scan(catalog, "t");
  b.Aggregate({"s"}, {{AggFn::kCountStar, "", "cnt"}});
  QueryOptions options;
  options.mode = ExecutionMode::kBatch;
  QueryExecutor exec(&catalog, options);
  auto result = exec.Execute(b.Build());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->data.num_rows(), 1);
  EXPECT_TRUE(result->data.GetRow(0)[0].is_null());
  EXPECT_EQ(result->data.GetRow(0)[1], Value::Int64(500));
}

// --- Predicates decided on codes ---------------------------------------------

Schema Q6Schema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"shipdate", DataType::kDate32, true},
                 {"discount", DataType::kDouble, true},
                 {"quantity", DataType::kInt64, false},
                 {"price", DataType::kDouble, false},
                 {"flag", DataType::kString, false}});
}

// 4 groups of 1000 rows. A row's three predicate columns fall inside the
// Q6 ranges with a probability that drops group by group, so group 0's
// windows stay dense and group 3's turn sparse.
TableData Q6Data() {
  TableData data(Q6Schema());
  Random rng(25);
  const int64_t in_range_pct[] = {100, 95, 60, 30};
  const char* flags[] = {"A", "N", "R"};
  for (int64_t i = 0; i < 4000; ++i) {
    const int64_t pct = in_range_pct[i / 1000];
    auto inside = [&] { return rng.Uniform(0, 99) < pct; };
    const int64_t date =
        inside() ? rng.Uniform(8766, 9130) : rng.Uniform(8035, 10591);
    const int64_t discount = inside() ? rng.Uniform(5, 7) : rng.Uniform(0, 10);
    const int64_t quantity = inside() ? rng.Uniform(1, 23) : rng.Uniform(1, 50);
    data.AppendRow(
        {Value::Int64(i),
         i % 41 == 5 ? Value::Null(DataType::kDate32)
                     : Value::Date32(static_cast<int32_t>(date)),
         i % 37 == 3 ? Value::Null(DataType::kDouble)
                     : Value::Double(static_cast<double>(discount) / 100.0),
         Value::Int64(quantity),
         Value::Double(static_cast<double>(rng.Uniform(100, 99999)) / 100.0),
         Value::String(flags[rng.Uniform(0, 2)])});
  }
  return data;
}

std::vector<ScanPredicate> Q6Predicates() {
  return {{1, CompareOp::kGe, Value::Date32(8766)},
          {1, CompareOp::kLt, Value::Date32(9131)},
          {2, CompareOp::kGe, Value::Double(0.05)},
          {2, CompareOp::kLe, Value::Double(0.07)},
          {3, CompareOp::kLt, Value::Int64(24)}};
}

// The rows of a scan of `options` (active rows, in order), and the windows
// it emitted dense (full width) and sparse (compacted).
struct ScanRows {
  std::vector<std::vector<Value>> rows;
  int64_t dense = 0;
  int64_t sparse = 0;
};

ScanRows DrainRows(const ColumnStoreTable* table,
                   ColumnStoreScanOperator::Options options,
                   int64_t batch_size) {
  ExecContext ctx;
  ctx.batch_size = batch_size;
  ScanRows out;
  ForEachBatch(table, std::move(options), &ctx, [&](const Batch& batch) {
    if (batch.num_rows() == batch_size) ++out.dense;
    if (batch.num_rows() <= batch_size * 3 / 4 &&
        batch.active_count() == batch.num_rows()) {
      ++out.sparse;
    }
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      if (batch.active()[i]) out.rows.push_back(batch.GetActiveRow(i));
    }
  });
  return out;
}

// The reference: an unfiltered scan of every column (keeping `options`'
// Bloom filters) under a FilterOperator with the same predicates, cut to
// `options.projection`.
std::vector<std::vector<Value>> FilteredReference(
    const ColumnStoreTable* table,
    const ColumnStoreScanOperator::Options& options) {
  const Schema& schema = table->schema();
  ExecContext ctx;
  ColumnStoreScanOperator::Options all;
  all.bloom_filters = options.bloom_filters;
  ExprPtr pred;
  for (const ScanPredicate& p : options.predicates) {
    ExprPtr cmp =
        expr::Cmp(p.op, expr::ColumnAt(schema, p.column), expr::Lit(p.value));
    pred = pred == nullptr ? cmp : expr::And(pred, cmp);
  }
  FilterOperator filter(
      std::make_unique<ColumnStoreScanOperator>(table, all, &ctx), pred, &ctx);
  filter.Open().CheckOK();
  std::vector<std::vector<Value>> rows;
  for (;;) {
    Batch* batch = filter.Next().ValueOrDie();
    if (batch == nullptr) break;
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (!batch->active()[i]) continue;
      std::vector<Value> row;
      for (int c : options.projection) {
        row.push_back(batch->column(c).GetValue(i));
      }
      rows.push_back(std::move(row));
    }
  }
  filter.Close();
  return rows;
}

TEST(ScanCodeRangeTest, Q6ShapeMatchesAFilterAboveAnUnfilteredScan) {
  const TableData data = Q6Data();
  auto table =
      std::make_unique<ColumnStoreTable>("t", data.schema(), SmallGroups());
  table->BulkLoad(data).CheckOK();
  {
    const RowGroup& rg = table->Snapshot()->row_group(0);
    ASSERT_EQ(rg.column(1).encoding(), EncodingKind::kBitPack);
    ASSERT_EQ(rg.column(2).code_kind(), CodeKind::kValueScaled);
  }
  BloomFilter discount_bloom(16), quantity_bloom(16);
  for (int64_t d = 4; d <= 6; ++d) {
    discount_bloom.Insert(SingleKeyHash(HashInt64(
        std::bit_cast<uint64_t>(static_cast<double>(d) / 100.0))));
  }
  for (int64_t q = 1; q <= 12; ++q) {
    quantity_bloom.Insert(SingleKeyHash(HashInt64(static_cast<uint64_t>(q))));
  }
  auto check = [&](const char* what) {
    SCOPED_TRACE(what);
    ScanRows total;
    for (int64_t batch_size : {int64_t{900}, int64_t{128}}) {
      for (int bloom = 0; bloom < 3; ++bloom) {
        ColumnStoreScanOperator::Options options;
        // discount is projected and carries two predicates; shipdate and
        // quantity are predicate-only; price and flag are late.
        options.projection = {0, 2, 4, 5};
        options.predicates = Q6Predicates();
        if (bloom == 1) options.bloom_filters = {{2, &discount_bloom}};
        if (bloom == 2) options.bloom_filters = {{3, &quantity_bloom}};
        ScanRows scan = DrainRows(table.get(), options, batch_size);
        EXPECT_EQ(scan.rows, FilteredReference(table.get(), options))
            << "batch size " << batch_size << " bloom " << bloom;
        EXPECT_FALSE(scan.rows.empty());
        total.dense += scan.dense;
        total.sparse += scan.sparse;
      }
    }
    EXPECT_GT(total.dense, 0);
    EXPECT_GT(total.sparse, 0);
  };
  check("bulk loaded");

  // Deletes in the dense group and in a sparse one, and delta rows.
  for (int64_t r = 0; r < 990; r += 9) {
    table->Delete(MakeCompressedRowId(0, r)).CheckOK();
    table->Delete(MakeCompressedRowId(3, r + 4)).CheckOK();
  }
  for (int64_t i = 0; i < 300; ++i) {
    table
        ->Insert({Value::Int64(10000 + i),
                  Value::Date32(static_cast<int32_t>(8700 + i)),
                  i % 7 == 0 ? Value::Null(DataType::kDouble)
                             : Value::Double(static_cast<double>(i % 11) /
                                             100.0),
                  Value::Int64(i % 30), Value::Double(1.5),
                  Value::String("D")})
        .ValueOrDie();
  }
  check("with deletes and delta rows");
}

TEST(ScanTest, DoubleConstantAgainstIntColumnKeepsMatchingGroups) {
  // 2,000 rows of 10..49 in 1,000-row groups: every group holds rows below
  // 24.5, so segment elimination must keep both.
  Schema schema({{"q", DataType::kInt64, false}});
  TableData data(schema);
  for (int64_t i = 0; i < 2000; ++i) data.column(0).AppendInt64(10 + i % 40);
  ColumnStoreTable table("t", schema, SmallGroups());
  table.BulkLoad(data).CheckOK();
  ExecContext ctx;
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kLt, Value::Double(24.5)}};
  int64_t rows = 0;
  ForEachBatch(&table, options, &ctx,
               [&](const Batch& batch) { rows += batch.active_count(); });
  EXPECT_EQ(rows, 750);
  EXPECT_EQ(ctx.stats.row_groups_eliminated, 0);
  EXPECT_EQ(ctx.stats.row_groups_scanned, 2);
}

// --- RLE columns decided once per run ------------------------------------

Schema RunSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"key", DataType::kInt64, true},
                 {"name", DataType::kString, true},
                 {"price", DataType::kDouble, true},
                 {"payload", DataType::kInt64, false}});
}

// 4 groups of 1000 rows sorted on `key`, in runs of 1-7 rows; `name` and
// `price` follow the key, so all three encode as RLE. Every ninth run has
// a NULL key inside it (its code may merge with a neighbouring run's, so
// runs mix NULL and non-NULL rows); `name` and `price` have NULLs too.
TableData RunData() {
  TableData data(RunSchema());
  Random rng(26);
  int64_t key = 100;
  for (int64_t run = 0; data.num_rows() < 4000; ++run) {
    key += rng.Uniform(1, 3);
    const int64_t length =
        std::min<int64_t>(rng.Uniform(1, 7), 4000 - data.num_rows());
    for (int64_t i = 0; i < length; ++i) {
      const int64_t row = data.num_rows();
      data.AppendRow(
          {Value::Int64(row),
           run % 9 == 0 && i == length / 2 ? Value::Null(DataType::kInt64)
                                           : Value::Int64(key),
           run % 11 == 4 && i == 0
               ? Value::Null(DataType::kString)
               : Value::String("s" + std::to_string(key % 500)),
           run % 13 == 6 ? Value::Null(DataType::kDouble)
                         : Value::Double(static_cast<double>(key) / 4.0),
           Value::Int64(rng.Uniform(0, 1000000))});
    }
  }
  return data;
}

uint64_t BloomHash(const Value& v) {
  switch (PhysicalTypeOf(v.type())) {
    case PhysicalType::kInt64:
      return SingleKeyHash(HashInt64(static_cast<uint64_t>(v.int64())));
    case PhysicalType::kDouble:
      return SingleKeyHash(HashInt64(std::bit_cast<uint64_t>(v.dbl())));
    case PhysicalType::kString:
      return SingleKeyHash(Hash64(v.str()));
  }
  return 0;
}

// The reference for a scan with Bloom filters: an unfiltered scan of every
// column under a FilterOperator with the scan's predicates, then each
// filter in order, row by row (a NULL never passes). *dropped counts the
// rows that passed the predicates and failed a filter.
std::vector<std::vector<Value>> BloomReference(
    const ColumnStoreTable* table,
    const ColumnStoreScanOperator::Options& options, int64_t* dropped) {
  const Schema& schema = table->schema();
  ExecContext ctx;
  ExprPtr pred = expr::Lit(Value::Bool(true));
  for (const ScanPredicate& p : options.predicates) {
    pred = expr::And(pred, expr::Cmp(p.op, expr::ColumnAt(schema, p.column),
                                     expr::Lit(p.value)));
  }
  FilterOperator filter(
      std::make_unique<ColumnStoreScanOperator>(
          table, ColumnStoreScanOperator::Options{}, &ctx),
      pred, &ctx);
  filter.Open().CheckOK();
  std::vector<std::vector<Value>> rows;
  *dropped = 0;
  for (;;) {
    Batch* batch = filter.Next().ValueOrDie();
    if (batch == nullptr) break;
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (!batch->active()[i]) continue;
      bool pass = true;
      for (const BloomFilterSpec& spec : options.bloom_filters) {
        const Value v = batch->column(spec.column).GetValue(i);
        if (v.is_null() || !spec.filter->MayContain(BloomHash(v))) {
          pass = false;
          break;
        }
      }
      if (!pass) {
        ++*dropped;
        continue;
      }
      std::vector<Value> row;
      for (int c : options.projection) {
        row.push_back(batch->column(c).GetValue(i));
      }
      rows.push_back(std::move(row));
    }
  }
  filter.Close();
  return rows;
}

TEST(ScanRunsTest, BloomFiltersOnRleColumnsMatchARowByRowReference) {
  const TableData data = RunData();
  auto table =
      std::make_unique<ColumnStoreTable>("t", data.schema(), SmallGroups());
  table->BulkLoad(data).CheckOK();
  for (int64_t g = 0; g < 4; ++g) {
    const RowGroup& rg = table->Snapshot()->row_group(g);
    for (int c = 1; c <= 3; ++c) {
      ASSERT_EQ(rg.column(c).encoding(), EncodingKind::kRle)
          << "group " << g << " column " << c;
    }
    ASSERT_EQ(rg.column(3).code_kind(), CodeKind::kValueScaled);
  }

  // Per column, a filter that passes most distinct values (dense windows)
  // and one that passes about a fifth of them (sparse windows).
  std::vector<Value> distinct[4];
  for (int c = 1; c <= 3; ++c) {
    for (int64_t row = 0; row < data.num_rows(); ++row) {
      const Value v = data.column(c).GetValue(row);
      if (!v.is_null() &&
          (distinct[c].empty() || !(distinct[c].back() == v))) {
        distinct[c].push_back(v);
      }
    }
  }
  std::vector<std::unique_ptr<BloomFilter>> dense(4), sparse(4);
  for (int c = 1; c <= 3; ++c) {
    dense[c] = std::make_unique<BloomFilter>(
        static_cast<int64_t>(distinct[c].size()));
    sparse[c] = std::make_unique<BloomFilter>(
        static_cast<int64_t>(distinct[c].size()));
    for (size_t k = 0; k < distinct[c].size(); ++k) {
      if (k % 16 != 3) dense[c]->Insert(BloomHash(distinct[c][k]));
      if (k % 5 == 1) sparse[c]->Insert(BloomHash(distinct[c][k]));
    }
  }
  const ScanPredicate same_column[4] = {
      {},
      {1, CompareOp::kGe, Value::Int64(600)},
      {2, CompareOp::kLt, Value::String("s3")},
      {3, CompareOp::kGt, Value::Double(150.0)}};

  auto check = [&](const char* what) {
    SCOPED_TRACE(what);
    for (int c = 1; c <= 3; ++c) {
      int64_t dense_windows = 0, sparse_windows = 0;
      for (bool projected : {false, true}) {
        for (int shape = 0; shape < 4; ++shape) {
          ColumnStoreScanOperator::Options options;
          options.projection = projected ? std::vector<int>{0, c, 4}
                                         : std::vector<int>{0, 4};
          switch (shape) {
            case 0:  // a Bloom filter alone, passing most runs
              options.bloom_filters = {{c, dense[c].get()}};
              break;
            case 1:  // a Bloom filter alone, passing few
              options.bloom_filters = {{c, sparse[c].get()}};
              break;
            case 2:  // a predicate and a Bloom filter on the same column
              options.predicates = {same_column[c]};
              options.bloom_filters = {{c, dense[c].get()}};
              break;
            case 3:  // two Bloom filters
              options.bloom_filters = {{c, dense[c].get()},
                                       {c, sparse[c].get()}};
              break;
          }
          int64_t expect_dropped = 0;
          const auto expect =
              BloomReference(table.get(), options, &expect_dropped);
          for (int64_t batch_size : {int64_t{900}, int64_t{100}}) {
            ExecContext ctx;
            ctx.batch_size = batch_size;
            ColumnStoreScanOperator scan(table.get(), options, &ctx);
            scan.Open().CheckOK();
            std::vector<std::vector<Value>> rows;
            for (;;) {
              Batch* batch = scan.Next().ValueOrDie();
              if (batch == nullptr) break;
              if (batch->num_rows() == batch_size) ++dense_windows;
              if (batch->num_rows() <= batch_size * 3 / 4 &&
                  batch->active_count() == batch->num_rows()) {
                ++sparse_windows;
              }
              for (int64_t i = 0; i < batch->num_rows(); ++i) {
                if (batch->active()[i]) rows.push_back(batch->GetActiveRow(i));
              }
            }
            scan.Close();
            const std::string label =
                "column " + std::to_string(c) + " projected " +
                std::to_string(projected) + " shape " +
                std::to_string(shape) + " batch " + std::to_string(batch_size);
            EXPECT_EQ(rows, expect) << label;
            EXPECT_FALSE(rows.empty()) << label;
            EXPECT_EQ(ctx.stats.rows_bloom_filtered, expect_dropped) << label;
            int64_t counter = -1;
            for (const auto& [name, value] : scan.BuildProfile().counters) {
              if (name == "bloom_rows_dropped") counter = value;
            }
            EXPECT_EQ(counter, expect_dropped) << label;
          }
        }
      }
      EXPECT_GT(dense_windows, 0) << "column " << c;
      EXPECT_GT(sparse_windows, 0) << "column " << c;
    }
  };
  check("bulk loaded");

  // Deletes in two groups, one of them in the middle of runs.
  for (int64_t r = 0; r < 1000; r += 7) {
    table->Delete(MakeCompressedRowId(1, r)).CheckOK();
    table->Delete(MakeCompressedRowId(3, (r * 3) % 1000)).CheckOK();
  }
  check("with deletes");
}

}  // namespace
}  // namespace vstore
