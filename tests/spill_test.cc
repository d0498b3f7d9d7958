// SpillFile: batch-columnar spill records round-trip every physical type
// exactly, damaged records fail with an error Status (never a crash or an
// over-read), and a spilling join closed mid-drain leaves no file open.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/hash_join.h"
#include "exec/spill.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::TableSourceOperator;

Schema AllTypes() {
  return Schema({{"b", DataType::kBool, true},
                 {"i32", DataType::kInt32, true},
                 {"i64", DataType::kInt64, true},
                 {"d", DataType::kDate32, true},
                 {"f", DataType::kDouble, true},
                 {"s", DataType::kString, true}});
}

// Fills `batch` to `rows` rows: every column has NULLs; strings include
// empty ones and, at row 7, one longer than an arena block.
void FillAllTypes(Batch* batch, int64_t rows, uint64_t seed) {
  Random rng(seed);
  batch->Reset();
  for (int c = 0; c < batch->num_columns(); ++c) {
    ColumnVector& cv = batch->column(c);
    for (int64_t i = 0; i < rows; ++i) {
      const bool valid = rng.Uniform(0, 9) != 0;
      cv.mutable_validity()[i] = valid ? 1 : 0;
      switch (cv.type()) {
        case DataType::kBool:
          cv.mutable_ints()[i] = rng.Uniform(0, 1);
          break;
        case DataType::kInt32:
        case DataType::kDate32:
          cv.mutable_ints()[i] = rng.Uniform(-100000, 100000);
          break;
        case DataType::kInt64:
          cv.mutable_ints()[i] =
              static_cast<int64_t>(rng.Next()) ^ (int64_t{1} << 62);
          break;
        case DataType::kDouble:
          cv.mutable_doubles()[i] =
              i % 11 == 0
                  ? -0.0
                  : static_cast<double>(rng.Uniform(-1000000, 1000000)) / 7.0;
          break;
        case DataType::kString: {
          std::string s;
          if (i == 7) {
            s.assign(70000, 'x');  // longer than a 64 KiB arena block
            cv.mutable_validity()[i] = 1;
          } else if (i % 5 != 0) {
            s = "s" + std::to_string(rng.Uniform(0, 1000000));
          }  // else: empty
          cv.mutable_strings()[i] = batch->arena()->CopyString(s);
          break;
        }
      }
    }
  }
  batch->set_num_rows(rows);
  batch->ActivateAll();
}

// Row sel[k] of `expected` against row k of `got`, bit for bit.
void ExpectRowsEqual(const Batch& expected, const std::vector<int32_t>& sel,
                     const Batch& got) {
  ASSERT_EQ(got.num_rows(), static_cast<int64_t>(sel.size()));
  ASSERT_EQ(got.active_count(), got.num_rows());
  for (int c = 0; c < expected.num_columns(); ++c) {
    const ColumnVector& e = expected.column(c);
    const ColumnVector& g = got.column(c);
    for (size_t k = 0; k < sel.size(); ++k) {
      const int32_t i = sel[k];
      ASSERT_EQ(g.validity()[k], e.validity()[i])
          << "col " << c << " row " << k;
      if (!e.validity()[i]) continue;
      switch (e.physical_type()) {
        case PhysicalType::kInt64:
          ASSERT_EQ(g.ints()[k], e.ints()[i]);
          break;
        case PhysicalType::kDouble:
          ASSERT_EQ(std::bit_cast<uint64_t>(g.doubles()[k]),
                    std::bit_cast<uint64_t>(e.doubles()[i]));
          break;
        case PhysicalType::kString:
          ASSERT_EQ(g.strings()[k], e.strings()[i]);
          break;
      }
    }
  }
}

std::vector<int32_t> AllRows(int64_t n) {
  std::vector<int32_t> sel(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    sel[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  return sel;
}

TEST(SpillFileTest, FullCapacityRecordRoundTrips) {
  Batch in(AllTypes(), kDefaultBatchSize);
  FillAllTypes(&in, kDefaultBatchSize, 1);
  SpillFile file;
  ASSERT_TRUE(file.Open(kDefaultBatchSize).ok());
  SpillBuffer write_buf, read_buf;
  Result<int64_t> bytes = file.Append(in, nullptr, in.num_rows(), &write_buf);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(file.rows(), kDefaultBatchSize);

  ASSERT_TRUE(file.Rewind().ok());
  EXPECT_EQ(std::ftell(file.file()), 0);
  ASSERT_EQ(std::fseek(file.file(), 0, SEEK_END), 0);
  EXPECT_EQ(std::ftell(file.file()), *bytes);  // the whole file
  ASSERT_TRUE(file.Rewind().ok());
  Batch out(AllTypes(), kDefaultBatchSize);
  Result<bool> more = file.Read(&out, &read_buf);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  ExpectRowsEqual(in, AllRows(kDefaultBatchSize), out);
  more = file.Read(&out, &read_buf);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(SpillFileTest, SelectionPicksRows) {
  Batch in(AllTypes(), 300);
  FillAllTypes(&in, 300, 2);
  std::vector<int32_t> sel;
  for (int32_t i = 0; i < 300; i += 3) sel.push_back(i);
  sel.push_back(7);  // the long string...
  std::sort(sel.begin(), sel.end());  // ...keeping the selection ascending
  SpillFile file;
  ASSERT_TRUE(file.Open(300).ok());
  SpillBuffer write_buf, read_buf;
  ASSERT_TRUE(
      file.Append(in, sel.data(), static_cast<int64_t>(sel.size()), &write_buf)
          .ok());
  ASSERT_TRUE(file.Rewind().ok());
  Batch out(AllTypes(), 300);
  ASSERT_TRUE(file.Read(&out, &read_buf).ValueOrDie());
  ExpectRowsEqual(in, sel, out);
}

TEST(SpillFileTest, OneRowRecord) {
  Batch in(AllTypes(), 16);
  FillAllTypes(&in, 16, 3);
  std::vector<int32_t> sel = {9};
  SpillFile file;
  ASSERT_TRUE(file.Open(16).ok());
  SpillBuffer write_buf, read_buf;
  ASSERT_TRUE(file.Append(in, sel.data(), 1, &write_buf).ok());
  ASSERT_TRUE(file.Rewind().ok());
  Batch out(AllTypes(), 1);
  ASSERT_TRUE(file.Read(&out, &read_buf).ValueOrDie());
  ExpectRowsEqual(in, sel, out);
  EXPECT_FALSE(file.Read(&out, &read_buf).ValueOrDie());
}

TEST(SpillFileTest, ManyRecordsSplitAndRereadAfterRewind) {
  constexpr int64_t kMaxRows = 64;
  std::vector<std::unique_ptr<Batch>> batches;
  std::vector<std::vector<int32_t>> sels;
  SpillFile file;
  ASSERT_TRUE(file.Open(kMaxRows).ok());
  SpillBuffer write_buf, read_buf;
  Random rng(4);
  int64_t total = 0;
  for (int r = 0; r < 40; ++r) {
    auto batch = std::make_unique<Batch>(AllTypes(), 200);
    FillAllTypes(batch.get(), 200, 100 + static_cast<uint64_t>(r));
    std::vector<int32_t> sel;
    for (int32_t i = 0; i < 200; ++i) {
      if (rng.Uniform(0, 3) != 0) sel.push_back(i);
    }
    ASSERT_TRUE(file.Append(*batch, sel.data(),
                            static_cast<int64_t>(sel.size()), &write_buf)
                    .ok());
    total += static_cast<int64_t>(sel.size());
    batches.push_back(std::move(batch));
    sels.push_back(std::move(sel));
  }
  EXPECT_EQ(file.rows(), total);

  Batch out(AllTypes(), kMaxRows);
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(file.Rewind().ok());
    for (size_t r = 0; r < batches.size(); ++r) {
      // The writer split each append into records of at most kMaxRows.
      const std::vector<int32_t>& sel = sels[r];
      for (size_t begin = 0; begin < sel.size(); begin += kMaxRows) {
        const size_t end = std::min(sel.size(), begin + kMaxRows);
        ASSERT_TRUE(file.Read(&out, &read_buf).ValueOrDie());
        ExpectRowsEqual(*batches[r],
                        std::vector<int32_t>(sel.begin() + begin,
                                             sel.begin() + end),
                        out);
      }
    }
    EXPECT_FALSE(file.Read(&out, &read_buf).ValueOrDie());
  }
}

// --- Damaged records ---------------------------------------------------------

Schema OneString() { return Schema({{"s", DataType::kString, true}}); }

// A file holding one good 10-row record of AllTypes().
void WriteGoodRecord(SpillFile* file) {
  Batch in(AllTypes(), 10);
  FillAllTypes(&in, 10, 5);
  SpillBuffer write_buf;
  ASSERT_TRUE(file->Open(10).ok());
  ASSERT_TRUE(file->Append(in, nullptr, 10, &write_buf).ok());
  ASSERT_EQ(std::fflush(file->file()), 0);
}

void ExpectError(const Result<bool>& read, const std::string& what) {
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find(what), std::string::npos)
      << read.status().ToString();
}

void Truncate(SpillFile* file, off_t size) {
  ASSERT_EQ(std::fflush(file->file()), 0);
  ASSERT_EQ(ftruncate(fileno(file->file()), size), 0);
}

TEST(SpillFileTest, TruncatedHeaderIsAnError) {
  SpillFile file;
  WriteGoodRecord(&file);
  Truncate(&file, 7);
  ASSERT_TRUE(file.Rewind().ok());
  Batch out(AllTypes(), 10);
  SpillBuffer read_buf;
  ExpectError(file.Read(&out, &read_buf), "truncated record header");
}

TEST(SpillFileTest, TruncatedBodyIsAnError) {
  SpillFile file;
  WriteGoodRecord(&file);
  Truncate(&file, 16 + 3);
  ASSERT_TRUE(file.Rewind().ok());
  Batch out(AllTypes(), 10);
  SpillBuffer read_buf;
  ExpectError(file.Read(&out, &read_buf), "truncated record body");
}

TEST(SpillFileTest, StringLengthPastRecordEndIsAnError) {
  SpillFile file;
  ASSERT_TRUE(file.Open(4).ok());
  // One row: valid, length 100, but only 3 bytes of string in the record.
  const uint32_t rows = 1, columns = 1, len = 100;
  const uint64_t body = 1 + 4 + 3;
  std::string record;
  record.append(reinterpret_cast<const char*>(&rows), 4);
  record.append(reinterpret_cast<const char*>(&columns), 4);
  record.append(reinterpret_cast<const char*>(&body), 8);
  record.push_back('\1');
  record.append(reinterpret_cast<const char*>(&len), 4);
  record.append("abc");
  ASSERT_EQ(std::fwrite(record.data(), 1, record.size(), file.file()),
            record.size());
  ASSERT_TRUE(file.Rewind().ok());
  Batch out(OneString(), 4);
  SpillBuffer read_buf;
  ExpectError(file.Read(&out, &read_buf), "string runs past the record end");
}

TEST(SpillFileTest, RecordLargerThanBatchIsAnError) {
  SpillFile file;
  WriteGoodRecord(&file);
  ASSERT_TRUE(file.Rewind().ok());
  Batch small(AllTypes(), 5);
  SpillBuffer read_buf;
  ExpectError(file.Read(&small, &read_buf), "more rows than the batch");
}

TEST(SpillFileTest, ColumnCountMismatchIsAnError) {
  SpillFile file;
  WriteGoodRecord(&file);
  ASSERT_TRUE(file.Rewind().ok());
  Batch other(OneString(), 10);
  SpillBuffer read_buf;
  ExpectError(file.Read(&other, &read_buf), "column count");
}

// --- File handles ------------------------------------------------------------

int64_t OpenFileDescriptors() {
  int64_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SpillFileTest, JoinClosedMidDrainClosesItsFiles) {
  Schema schema(
      {{"k", DataType::kInt64, true}, {"v", DataType::kString, true}});
  TableData probe(schema), build(schema);
  for (int i = 0; i < 3000; ++i) {
    probe.AppendRow(
        {Value::Int64(i % 500), Value::String("p" + std::to_string(i))});
  }
  for (int i = 0; i < 1000; ++i) {
    build.AppendRow(
        {Value::Int64(i % 500), Value::String("b" + std::to_string(i))});
  }
  const int64_t baseline = OpenFileDescriptors();
  {
    ExecContext ctx;
    ctx.batch_size = 64;
    // A one-byte budget spills every partition that receives a build row,
    // so every output row comes from the drain.
    ctx.operator_memory_budget = 1;
    HashJoinOperator::Options options;
    options.probe_keys = {0};
    options.build_keys = {0};
    HashJoinOperator join(std::make_unique<TableSourceOperator>(&probe, &ctx),
                          std::make_unique<TableSourceOperator>(&build, &ctx),
                          options, &ctx);
    ASSERT_TRUE(join.Open().ok());
    EXPECT_GT(OpenFileDescriptors(), baseline);
    Batch* batch = join.Next().ValueOrDie();
    ASSERT_NE(batch, nullptr);  // draining now
    EXPECT_GT(ctx.stats.probe_rows_spilled, 0);
    EXPECT_GT(OpenFileDescriptors(), baseline);
    join.Close();
    EXPECT_EQ(OpenFileDescriptors(), baseline);
  }
  EXPECT_EQ(OpenFileDescriptors(), baseline);
}

}  // namespace
}  // namespace vstore
