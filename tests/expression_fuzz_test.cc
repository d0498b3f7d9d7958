// Differential fuzzer for the two expression engines: seeded random
// expression trees are evaluated via the compiled bytecode program — on the
// forced-scalar kernels and, when the host supports it, the AVX2 kernels —
// and via the row engine's EvalRow, the reference. They must agree
// bit-for-bit: a validity byte of exactly 0 where EvalRow returns NULL and
// 1 elsewhere, and bit-equal values on valid lanes (NaNs compared by bit
// pattern, so a kernel that "fixed" a NaN would fail). The trees mix
// arithmetic, comparisons, logical connectives, NULLs and overflow-edge
// literals (INT64_MIN/MAX, div-by-zero, NaN/±0.0/±inf), with deliberate
// subtree reuse to exercise CSE and column-free subtrees to exercise
// folding. The bytecode runs each batch a second time with a
// dictionary-code lane on the string column, which decides string INs on
// codes.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "exec/expr_program.h"
#include "exec/expression.h"
#include "storage/dictionary.h"
#include "test_util.h"

namespace vstore {
namespace {

using testing_util::FillBatch;

Schema FuzzSchema() {
  return Schema({{"a", DataType::kInt64, true},
                 {"b", DataType::kInt64, true},
                 {"d", DataType::kDouble, true},
                 {"e", DataType::kDouble, true},
                 {"s", DataType::kString, true},
                 {"dt", DataType::kDate32, true}});
}

// Stable storage for string payloads referenced by batches and literals.
const std::vector<std::string>& StringPool() {
  static const std::vector<std::string>* pool = new std::vector<std::string>{
      "", "a", "app", "apple", "banana", "zz", "apricot"};
  return *pool;
}

int64_t RandomInt(Random* rng) {
  static const int64_t kEdges[] = {
      0,  1,  -1, 2,  -7, 42, 1000,
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max() - 1,
      std::numeric_limits<int64_t>::min() + 1};
  switch (rng->Uniform(0, 3)) {
    case 0:
      return kEdges[rng->Uniform(0, 10)];
    case 1:
      return rng->Uniform(-100, 100);
    default:
      return static_cast<int64_t>(rng->Next());
  }
}

double RandomDouble(Random* rng) {
  static const double kEdges[] = {0.0,
                                  -0.0,
                                  1.5,
                                  -2.25,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::denorm_min()};
  switch (rng->Uniform(0, 3)) {
    case 0:
      return kEdges[rng->Uniform(0, 8)];
    case 1:
      return static_cast<double>(rng->Uniform(-1000, 1000)) / 8.0;
    default:
      return rng->NextDouble() * 1e6 - 5e5;
  }
}

// Edge-heavy random rows. `null_pct` ranges up to 100 so some seeds see
// all-NULL columns.
TableData RandomData(Random* rng, int64_t rows, int null_pct) {
  TableData data(FuzzSchema());
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    auto null = [&]() { return rng->Uniform(0, 99) < null_pct; };
    row.push_back(null() ? Value::Null(DataType::kInt64)
                         : Value::Int64(RandomInt(rng)));
    row.push_back(null() ? Value::Null(DataType::kInt64)
                         : Value::Int64(RandomInt(rng)));
    row.push_back(null() ? Value::Null(DataType::kDouble)
                         : Value::Double(RandomDouble(rng)));
    row.push_back(null() ? Value::Null(DataType::kDouble)
                         : Value::Double(RandomDouble(rng)));
    row.push_back(
        null() ? Value::Null(DataType::kString)
               : Value::String(StringPool()[rng->Uniform(
                     0, static_cast<int64_t>(StringPool().size()) - 1)]));
    row.push_back(null()
                      ? Value::Null(DataType::kDate32)
                      : Value::Date32(static_cast<int32_t>(
                            rng->Uniform(-1000000, 1000000))));
    data.AppendRow(std::move(row));
  }
  return data;
}

// Depth-limited typed expression generator. Generated subtrees are pooled
// and re-emitted with some probability so the compiler's value-numbering
// CSE sees real repeats; literal-only subtrees exercise constant folding.
class ExprGen {
 public:
  ExprGen(Random* rng, const Schema& schema) : rng_(rng), schema_(schema) {}

  ExprPtr Numeric(int depth) {
    if (!numeric_pool_.empty() && rng_->Uniform(0, 99) < 25) {
      return numeric_pool_[static_cast<size_t>(rng_->Uniform(
          0, static_cast<int64_t>(numeric_pool_.size()) - 1))];
    }
    ExprPtr e = MakeNumeric(depth);
    numeric_pool_.push_back(e);
    return e;
  }

  ExprPtr Bool(int depth) {
    if (!bool_pool_.empty() && rng_->Uniform(0, 99) < 20) {
      return bool_pool_[static_cast<size_t>(rng_->Uniform(
          0, static_cast<int64_t>(bool_pool_.size()) - 1))];
    }
    ExprPtr e = MakeBool(depth);
    bool_pool_.push_back(e);
    return e;
  }

 private:
  ExprPtr StrLeaf() {
    if (rng_->Uniform(0, 2) == 0) {
      return expr::Lit(Value::String(StringPool()[static_cast<size_t>(
          rng_->Uniform(0, static_cast<int64_t>(StringPool().size()) - 1))]));
    }
    return expr::Column(schema_, "s");
  }

  ExprPtr MakeNumeric(int depth) {
    if (depth <= 0 || rng_->Uniform(0, 99) < 30) {
      switch (rng_->Uniform(0, 5)) {
        case 0:
          return expr::Column(schema_, "a");
        case 1:
          return expr::Column(schema_, "b");
        case 2:
          return expr::Column(schema_, "d");
        case 3:
          return expr::Column(schema_, "e");
        case 4:
          return expr::Lit(Value::Int64(RandomInt(rng_)));
        default:
          return expr::Lit(Value::Double(RandomDouble(rng_)));
      }
    }
    if (rng_->Uniform(0, 9) == 0) {
      return expr::Year(expr::Column(schema_, "dt"));
    }
    // Identity-shaped literals (x+0, x*1) feed the simplifier.
    ExprPtr left = Numeric(depth - 1);
    ExprPtr right = rng_->Uniform(0, 9) == 0
                        ? expr::Lit(Value::Int64(rng_->Uniform(0, 1)))
                        : Numeric(depth - 1);
    switch (rng_->Uniform(0, 3)) {
      case 0:
        return expr::Add(left, right);
      case 1:
        return expr::Sub(left, right);
      case 2:
        return expr::Mul(left, right);
      default:
        return expr::Div(left, right);
    }
  }

  ExprPtr MakeBool(int depth) {
    if (depth <= 0 || rng_->Uniform(0, 99) < 25) {
      switch (rng_->Uniform(0, 5)) {
        case 0:
          return expr::Cmp(RandomOp(), Numeric(0), Numeric(0));
        case 1:
          return expr::IsNull(RandomColumn());
        case 2:
          return expr::StartsWith(
              expr::Column(schema_, "s"),
              StringPool()[static_cast<size_t>(rng_->Uniform(
                  0, static_cast<int64_t>(StringPool().size()) - 1))]);
        case 3: {
          std::vector<Value> vals;
          int64_t k = rng_->Uniform(1, 4);
          for (int64_t i = 0; i < k; ++i) {
            vals.push_back(Value::Int64(RandomInt(rng_)));
          }
          if (rng_->Uniform(0, 4) == 0) {
            vals.push_back(Value::Null(DataType::kInt64));
          }
          return expr::In(expr::Column(schema_, rng_->Uniform(0, 1) ? "a"
                                                                    : "b"),
                          std::move(vals));
        }
        case 4: {
          std::vector<Value> vals;
          int64_t k = rng_->Uniform(1, 3);
          for (int64_t i = 0; i < k; ++i) {
            vals.push_back(Value::String(StringPool()[static_cast<size_t>(
                rng_->Uniform(0,
                              static_cast<int64_t>(StringPool().size()) - 1))]));
          }
          if (rng_->Uniform(0, 4) == 0) {
            vals.push_back(Value::Null(DataType::kString));
          }
          return expr::In(expr::Column(schema_, "s"), std::move(vals));
        }
        default:
          return expr::Cmp(RandomOp(), StrLeaf(), StrLeaf());
      }
    }
    switch (rng_->Uniform(0, 4)) {
      case 0:
        return expr::And(Bool(depth - 1), Bool(depth - 1));
      case 1:
        return expr::Or(Bool(depth - 1), Bool(depth - 1));
      case 2:
        return expr::Not(Bool(depth - 1));
      case 3:
        return expr::Cmp(RandomOp(), Numeric(depth - 1), Numeric(depth - 1));
      default:
        return expr::Not(expr::Not(Bool(depth - 1)));
    }
  }

  CompareOp RandomOp() {
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                     CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe};
    return kOps[rng_->Uniform(0, 5)];
  }

  ExprPtr RandomColumn() {
    static const char* kNames[] = {"a", "b", "d", "e", "s", "dt"};
    return expr::Column(schema_, kNames[rng_->Uniform(0, 5)]);
  }

  Random* rng_;
  const Schema& schema_;
  std::vector<ExprPtr> numeric_pool_;
  std::vector<ExprPtr> bool_pool_;
};

// Bit-exact comparison of a program's result vector with the row engine's
// values: the validity byte is exactly 0 for NULL and 1 otherwise, and valid
// lanes hold the same value (doubles by bit pattern).
void ExpectVectorMatchesRows(const ColumnVector& got,
                             const std::vector<Value>& ref, const char* engine,
                             uint64_t seed, const ExprPtr& e) {
  for (size_t row = 0; row < ref.size(); ++row) {
    const int64_t i = static_cast<int64_t>(row);
    const Value& v = ref[row];
    ASSERT_EQ(got.validity()[i], v.is_null() ? 0 : 1)
        << engine << " validity mismatch at row " << i << " seed " << seed
        << " expr " << e->ToString();
    if (v.is_null()) continue;
    switch (got.physical_type()) {
      case PhysicalType::kInt64:
        ASSERT_EQ(got.ints()[i], v.int64())
            << engine << " row " << i << " seed " << seed << " expr "
            << e->ToString();
        break;
      case PhysicalType::kDouble:
        ASSERT_EQ(std::bit_cast<uint64_t>(got.doubles()[i]),
                  std::bit_cast<uint64_t>(v.AsDouble()))
            << engine << " row " << i << " seed " << seed << " expr "
            << e->ToString();
        break;
      case PhysicalType::kString:
        ASSERT_EQ(got.strings()[i], std::string_view(v.str()))
            << engine << " row " << i << " seed " << seed << " expr "
            << e->ToString();
        break;
    }
  }
}

// `code_filtered` accumulates the rows a string IN decided on codes.
void RunSeed(uint64_t seed, int64_t* code_filtered) {
  Random rng(seed);
  const int64_t rows = rng.Uniform(1, 150);  // odd sizes hit SIMD tails
  const int null_pct =
      rng.Uniform(0, 9) == 0 ? 100 : static_cast<int>(rng.Uniform(0, 40));
  TableData data = RandomData(&rng, rows, null_pct);

  ExprGen gen(&rng, data.schema());
  // Two expressions compiled into one program: cross-expression CSE runs
  // whenever the generator pools a subtree into both.
  std::vector<ExprPtr> exprs;
  exprs.push_back(seed % 2 == 0 ? gen.Bool(3) : gen.Numeric(3));
  exprs.push_back(gen.Bool(2));

  Batch batch(data.schema(), rows);
  FillBatch(data, 0, rows, &batch);

  // The reference: the row engine's EvalRow, per row.
  std::vector<std::vector<Value>> refs(exprs.size());
  for (size_t k = 0; k < exprs.size(); ++k) {
    for (int64_t i = 0; i < rows; ++i) {
      Value v;
      ASSERT_TRUE(exprs[k]->EvalRow(data.GetRow(i), &v).ok())
          << "seed " << seed;
      refs[k].push_back(std::move(v));
    }
  }

  // The bytecode, forced-scalar kernels then (if present) AVX2; each
  // twice, the second time with a code lane on `s` like the one a
  // column-store scan hands up (codes from a dictionary filled from the
  // batch's strings), so a string IN is decided on codes.
  auto compiled = ExprProgram::Compile(exprs);
  ASSERT_TRUE(compiled.ok()) << "seed " << seed << ": "
                             << compiled.status().ToString();
  std::shared_ptr<const ExprProgram> program = compiled.value();
  StringDictionary dict;
  ColumnVector& s = batch.column(4);
  for (int64_t i = 0; i < rows; ++i) {
    s.mutable_codes()[i] =
        s.validity()[i]
            ? static_cast<uint64_t>(dict.GetOrInsert(s.strings()[i], 1 << 20))
            : ~uint64_t{0};  // codes of NULL rows are unspecified
  }
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAVX2}) {
    if (level == simd::Level::kAVX2 &&
        simd::Detected() != simd::Level::kAVX2) {
      continue;
    }
    simd::ForceLevelForTesting(level);
    for (const StringDictionary* lane : {static_cast<StringDictionary*>(nullptr),
                                         &dict}) {
      s.set_dictionary(lane);
      ExprFrame frame(program);
      ASSERT_TRUE(frame.Run(batch).ok()) << "seed " << seed;
      const std::string engine =
          std::string(level == simd::Level::kAVX2 ? "bytecode/avx2"
                                                  : "bytecode/scalar") +
          (lane != nullptr ? "/codes" : "");
      for (size_t k = 0; k < exprs.size(); ++k) {
        ExpectVectorMatchesRows(frame.result(k), refs[k], engine.c_str(),
                                seed, exprs[k]);
      }
      *code_filtered += frame.rows_code_filtered();
    }
  }
  s.set_dictionary(nullptr);
  simd::ForceLevelForTesting(simd::Detected());
}

TEST(ExpressionFuzzTest, BytecodeMatchesTheRowEngineAcrossSeeds) {
  int64_t code_filtered = 0;
  for (uint64_t seed = 1; seed <= 1200; ++seed) {
    RunSeed(seed, &code_filtered);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "first failing seed: " << seed;
    }
  }
  // The lane runs must have decided string INs on codes.
  EXPECT_GT(code_filtered, 0);
}

// The compiler's optimizations must actually fire on fuzz-shaped input —
// otherwise the suite silently stops covering the folded/CSE'd paths.
TEST(ExpressionFuzzTest, OptimizationsFireAcrossSeeds) {
  int folded = 0, cse = 0, simplified = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    TableData data = RandomData(&rng, 4, 20);
    ExprGen gen(&rng, data.schema());
    std::vector<ExprPtr> exprs{gen.Bool(3), gen.Bool(2)};
    auto compiled = ExprProgram::Compile(exprs);
    ASSERT_TRUE(compiled.ok());
    const auto& stats = compiled.value()->stats();
    folded += stats.folded;
    cse += stats.cse_hits;
    simplified += stats.simplified;
  }
  EXPECT_GT(folded, 0);
  EXPECT_GT(cse, 0);
  EXPECT_GT(simplified, 0);
}

}  // namespace
}  // namespace vstore
