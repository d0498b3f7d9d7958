#include <gtest/gtest.h>

#include <limits>

#include "common/memory_tracker.h"
#include "exec/expr_program.h"
#include "exec/expression.h"
#include "storage/dictionary.h"
#include "test_util.h"

namespace vstore {
namespace {

using testing_util::FillBatch;
using testing_util::MakeTestTable;

// Evaluates `e` both vectorized over a batch of the table and row-by-row,
// asserting the results agree — the core property keeping both engines on
// the same semantics.
void ExpectBatchRowAgreement(const TableData& data, const ExprPtr& e) {
  Batch batch(data.schema(), data.num_rows());
  FillBatch(data, 0, data.num_rows(), &batch);
  ColumnVector out(e->output_type(), data.num_rows());
  ASSERT_TRUE(e->EvalBatch(batch, batch.arena(), &out).ok());
  for (int64_t i = 0; i < data.num_rows(); ++i) {
    Value row_result;
    ASSERT_TRUE(e->EvalRow(data.GetRow(i), &row_result).ok());
    Value batch_result = out.GetValue(i);
    EXPECT_EQ(batch_result, row_result)
        << "row " << i << " expr " << e->ToString();
  }
}

Schema NumSchema() {
  return Schema({{"a", DataType::kInt64, true},
                 {"b", DataType::kInt64, true},
                 {"d", DataType::kDouble, true},
                 {"s", DataType::kString, true},
                 {"dt", DataType::kDate32, true}});
}

TableData NumData() {
  TableData data(NumSchema());
  data.AppendRow({Value::Int64(1), Value::Int64(10), Value::Double(0.5),
                  Value::String("apple"), Value::Date("1994-03-01")});
  data.AppendRow({Value::Int64(-5), Value::Int64(0), Value::Double(-1.5),
                  Value::String("banana"), Value::Date("2000-12-31")});
  data.AppendRow({Value::Int64(7), Value::Int64(7), Value::Double(2.0),
                  Value::String(""), Value::Date("1970-01-01")});
  data.AppendRow({Value::Null(DataType::kInt64), Value::Int64(3),
                  Value::Null(DataType::kDouble),
                  Value::Null(DataType::kString), Value::Date("1995-06-17")});
  return data;
}

TEST(ExpressionTest, ColumnRefCopiesValuesAndNulls) {
  TableData data = NumData();
  ExprPtr e = expr::Column(data.schema(), "a");
  ExpectBatchRowAgreement(data, e);
  EXPECT_EQ(e->output_type(), DataType::kInt64);
}

TEST(ExpressionTest, LiteralBroadcast) {
  TableData data = NumData();
  ExpectBatchRowAgreement(data, expr::Lit(Value::Int64(99)));
  ExpectBatchRowAgreement(data, expr::Lit(Value::String("k")));
  ExpectBatchRowAgreement(data, expr::Lit(Value::Null(DataType::kDouble)));
}

TEST(ExpressionTest, CompareAllOps) {
  TableData data = NumData();
  const Schema& s = data.schema();
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    ExpectBatchRowAgreement(
        data, expr::Cmp(op, expr::Column(s, "a"), expr::Column(s, "b")));
    ExpectBatchRowAgreement(
        data, expr::Cmp(op, expr::Column(s, "s"),
                        expr::Lit(Value::String("banana"))));
  }
}

TEST(ExpressionTest, CompareMixedIntDoublePromotes) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr e = expr::Lt(expr::Column(s, "a"), expr::Column(s, "d"));
  ExpectBatchRowAgreement(data, e);
}

TEST(ExpressionTest, ArithmeticIntAndDouble) {
  TableData data = NumData();
  const Schema& s = data.schema();
  for (ArithOp op :
       {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv}) {
    ExpectBatchRowAgreement(
        data, expr::Arith(op, expr::Column(s, "a"), expr::Column(s, "b")));
    ExpectBatchRowAgreement(
        data, expr::Arith(op, expr::Column(s, "d"), expr::Column(s, "a")));
  }
}

TEST(ExpressionTest, DivisionByZeroYieldsNull) {
  TableData data = NumData();
  const Schema& s = data.schema();
  // Row 1 has b == 0.
  ExprPtr e = expr::Div(expr::Column(s, "a"), expr::Column(s, "b"));
  Batch batch(s, 8);
  FillBatch(data, 0, data.num_rows(), &batch);
  ColumnVector out(e->output_type(), 8);
  ASSERT_TRUE(e->EvalBatch(batch, batch.arena(), &out).ok());
  EXPECT_TRUE(out.GetValue(1).is_null());
  EXPECT_FALSE(out.GetValue(0).is_null());
  ExpectBatchRowAgreement(data, e);
}

TEST(ExpressionTest, BoolAndOrNot) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr gt = expr::Gt(expr::Column(s, "a"), expr::Lit(Value::Int64(0)));
  ExprPtr lt = expr::Lt(expr::Column(s, "b"), expr::Lit(Value::Int64(8)));
  ExpectBatchRowAgreement(data, expr::And(gt, lt));
  ExpectBatchRowAgreement(data, expr::Or(gt, lt));
  ExpectBatchRowAgreement(data, expr::Not(gt));
}

TEST(ExpressionTest, IsNullDetectsNulls) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr e = expr::IsNull(expr::Column(s, "a"));
  Batch batch(s, 8);
  FillBatch(data, 0, data.num_rows(), &batch);
  ColumnVector out(DataType::kBool, 8);
  ASSERT_TRUE(e->EvalBatch(batch, batch.arena(), &out).ok());
  EXPECT_EQ(out.GetValue(0), Value::Bool(false));
  EXPECT_EQ(out.GetValue(3), Value::Bool(true));
  ExpectBatchRowAgreement(data, e);
}

TEST(ExpressionTest, YearExtraction) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr e = expr::Year(expr::Column(s, "dt"));
  Batch batch(s, 8);
  FillBatch(data, 0, data.num_rows(), &batch);
  ColumnVector out(DataType::kInt64, 8);
  ASSERT_TRUE(e->EvalBatch(batch, batch.arena(), &out).ok());
  EXPECT_EQ(out.GetValue(0), Value::Int64(1994));
  EXPECT_EQ(out.GetValue(1), Value::Int64(2000));
  EXPECT_EQ(out.GetValue(2), Value::Int64(1970));
  ExpectBatchRowAgreement(data, e);
}

TEST(ExpressionTest, StartsWith) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr e = expr::StartsWith(expr::Column(s, "s"), "ban");
  Batch batch(s, 8);
  FillBatch(data, 0, data.num_rows(), &batch);
  ColumnVector out(DataType::kBool, 8);
  ASSERT_TRUE(e->EvalBatch(batch, batch.arena(), &out).ok());
  EXPECT_EQ(out.GetValue(0), Value::Bool(false));
  EXPECT_EQ(out.GetValue(1), Value::Bool(true));
  EXPECT_EQ(out.GetValue(2), Value::Bool(false));  // empty string
  ExpectBatchRowAgreement(data, e);
  // Empty prefix matches everything non-null.
  ExpectBatchRowAgreement(data, expr::StartsWith(expr::Column(s, "s"), ""));
}

TEST(ExpressionTest, InList) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExpectBatchRowAgreement(
      data, expr::In(expr::Column(s, "a"),
                     {Value::Int64(1), Value::Int64(7)}));
  ExpectBatchRowAgreement(
      data, expr::In(expr::Column(s, "s"),
                     {Value::String("apple"), Value::String("")}));
  ExpectBatchRowAgreement(
      data, expr::In(expr::Column(s, "d"), {Value::Double(0.5)}));
  // Empty list matches nothing.
  ExpectBatchRowAgreement(data, expr::In(expr::Column(s, "a"), {}));
}

TEST(ExpressionTest, BetweenExpandsToRange) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr e =
      expr::Between(expr::Column(s, "a"), Value::Int64(0), Value::Int64(7));
  ExpectBatchRowAgreement(data, e);
}

TEST(ExpressionTest, NestedCompositeAgreesAcrossEngines) {
  // A Q6-shaped predicate over a larger random table.
  TableData data = MakeTestTable(2000);
  const Schema& s = data.schema();
  ExprPtr e = expr::And(
      expr::And(expr::Ge(expr::Column(s, "amount"),
                         expr::Lit(Value::Double(100.0))),
                expr::Le(expr::Column(s, "amount"),
                         expr::Lit(Value::Double(700.0)))),
      expr::Or(expr::Eq(expr::Column(s, "name"),
                        expr::Lit(Value::String("alpha"))),
               expr::Lt(expr::Column(s, "bucket"),
                        expr::Lit(Value::Int64(3)))));
  ExpectBatchRowAgreement(data, e);
}

TEST(ExpressionTest, CollectConjunctsFlattensAndTree) {
  Schema s({{"a", DataType::kInt64, true}});
  ExprPtr c1 = expr::Gt(expr::Column(s, "a"), expr::Lit(Value::Int64(0)));
  ExprPtr c2 = expr::Lt(expr::Column(s, "a"), expr::Lit(Value::Int64(9)));
  ExprPtr c3 = expr::Ne(expr::Column(s, "a"), expr::Lit(Value::Int64(5)));
  ExprPtr tree = expr::And(expr::And(c1, c2), c3);
  std::vector<ExprPtr> out;
  expr::CollectConjuncts(tree, &out);
  EXPECT_EQ(out.size(), 3u);
  // An OR is a single conjunct.
  out.clear();
  expr::CollectConjuncts(expr::Or(c1, c2), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(ExpressionTest, ToStringReadable) {
  Schema s({{"a", DataType::kInt64, true}});
  ExprPtr e = expr::And(
      expr::Ge(expr::Column(s, "a"), expr::Lit(Value::Int64(1))),
      expr::Lt(expr::Column(s, "a"), expr::Lit(Value::Int64(10))));
  EXPECT_EQ(e->ToString(), "((a >= 1) AND (a < 10))");
}

// --- NULL-propagation contract ---------------------------------------------
// These pin the engine's null-strict semantics: any NULL operand nulls the
// result of comparisons and arithmetic, logical connectives are null-strict
// too (no SQL three-valued shortcuts — NULL AND FALSE is NULL here), and
// IS NULL itself never returns NULL. The bytecode compiler reuses these
// trees verbatim, so the contract holds for both engines by construction.

// Evaluates `e` over NumData and returns row `i` of the batch result.
Value EvalAt(const TableData& data, const ExprPtr& e, int64_t i) {
  Batch batch(data.schema(), data.num_rows());
  FillBatch(data, 0, data.num_rows(), &batch);
  ColumnVector out(e->output_type(), data.num_rows());
  EXPECT_TRUE(e->EvalBatch(batch, batch.arena(), &out).ok());
  return out.GetValue(i);
}

TEST(ExpressionTest, NullPropagatesThroughComparison) {
  TableData data = NumData();  // row 3: a, d, s are NULL
  const Schema& s = data.schema();
  ExprPtr cmp = expr::Gt(expr::Column(s, "a"), expr::Lit(Value::Int64(0)));
  ExpectBatchRowAgreement(data, cmp);
  EXPECT_TRUE(EvalAt(data, cmp, 3).is_null());
  // NULL on either side.
  ExprPtr lit_null =
      expr::Eq(expr::Column(s, "b"), expr::Lit(Value::Null(DataType::kInt64)));
  ExpectBatchRowAgreement(data, lit_null);
  for (int64_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_TRUE(EvalAt(data, lit_null, i).is_null()) << i;
  }
}

TEST(ExpressionTest, NullPropagatesThroughArithmetic) {
  TableData data = NumData();
  const Schema& s = data.schema();
  for (auto op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv}) {
    ExprPtr e =
        expr::Arith(op, expr::Column(s, "a"), expr::Lit(Value::Int64(2)));
    ExpectBatchRowAgreement(data, e);
    EXPECT_TRUE(EvalAt(data, e, 3).is_null());
  }
}

TEST(ExpressionTest, LogicalConnectivesAreNullStrict) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr null_side =
      expr::Gt(expr::Column(s, "a"), expr::Lit(Value::Int64(0)));  // row 3 NULL
  ExprPtr false_side = expr::Lt(expr::Column(s, "b"), expr::Lit(Value::Int64(
                                                          -100)));  // FALSE
  ExprPtr true_side =
      expr::Ge(expr::Column(s, "b"), expr::Lit(Value::Int64(0)));  // TRUE
  // Null-strict: NULL AND FALSE -> NULL (not FALSE), NULL OR TRUE -> NULL.
  ExprPtr and_e = expr::And(null_side, false_side);
  ExprPtr or_e = expr::Or(null_side, true_side);
  ExprPtr not_e = expr::Not(null_side);
  ExpectBatchRowAgreement(data, and_e);
  ExpectBatchRowAgreement(data, or_e);
  ExpectBatchRowAgreement(data, not_e);
  EXPECT_TRUE(EvalAt(data, and_e, 3).is_null());
  EXPECT_TRUE(EvalAt(data, or_e, 3).is_null());
  EXPECT_TRUE(EvalAt(data, not_e, 3).is_null());
}

TEST(ExpressionTest, IsNullNeverReturnsNull) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr e = expr::IsNull(expr::Column(s, "a"));
  ExpectBatchRowAgreement(data, e);
  for (int64_t i = 0; i < data.num_rows(); ++i) {
    Value v = EvalAt(data, e, i);
    ASSERT_FALSE(v.is_null()) << i;
    EXPECT_EQ(v.int64() != 0, i == 3) << i;
  }
}

TEST(ExpressionTest, InSkipsNullCandidatesAndPropagatesInputNull) {
  TableData data = NumData();
  const Schema& s = data.schema();
  ExprPtr e = expr::In(expr::Column(s, "a"),
                       {Value::Int64(1), Value::Null(DataType::kInt64),
                        Value::Int64(7)});
  ExpectBatchRowAgreement(data, e);
  EXPECT_EQ(EvalAt(data, e, 0).int64(), 1);   // a == 1
  EXPECT_EQ(EvalAt(data, e, 1).int64(), 0);   // a == -5, null candidate skipped
  EXPECT_TRUE(EvalAt(data, e, 3).is_null());  // NULL input
}

// --- Integer-overflow contract ---------------------------------------------
// Int64 arithmetic wraps (two's complement), INT64_MIN / -1 wraps to
// INT64_MIN, and division by zero yields NULL. The cases run through the
// interpreter here and through the bytecode engine via the fuzz suite.

TEST(ExpressionTest, IntArithmeticWrapsOnOverflow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Schema s({{"x", DataType::kInt64, true}, {"y", DataType::kInt64, true}});
  TableData data(s);
  data.AppendRow({Value::Int64(kMax), Value::Int64(1)});
  data.AppendRow({Value::Int64(kMin), Value::Int64(-1)});
  data.AppendRow({Value::Int64(kMax), Value::Int64(kMax)});
  data.AppendRow({Value::Int64(kMin), Value::Int64(kMin)});

  ExprPtr add = expr::Add(expr::Column(s, "x"), expr::Column(s, "y"));
  ExprPtr sub = expr::Sub(expr::Column(s, "x"), expr::Column(s, "y"));
  ExprPtr mul = expr::Mul(expr::Column(s, "x"), expr::Column(s, "y"));
  for (const ExprPtr& e : {add, sub, mul}) ExpectBatchRowAgreement(data, e);

  EXPECT_EQ(EvalAt(data, add, 0).int64(), kMin);      // MAX + 1 wraps
  EXPECT_EQ(EvalAt(data, sub, 1).int64(), kMin + 1);  // MIN - (-1)
  EXPECT_EQ(EvalAt(data, mul, 2).int64(), 1);         // MAX * MAX mod 2^64
  EXPECT_EQ(EvalAt(data, mul, 3).int64(), 0);         // MIN * MIN mod 2^64
}

TEST(ExpressionTest, IntDivisionEdgeCases) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Schema s({{"x", DataType::kInt64, true}, {"y", DataType::kInt64, true}});
  TableData data(s);
  data.AppendRow({Value::Int64(kMin), Value::Int64(-1)});  // UB if naive
  data.AppendRow({Value::Int64(42), Value::Int64(0)});     // div by zero
  data.AppendRow({Value::Int64(-7), Value::Int64(2)});

  ExprPtr e = expr::Div(expr::Column(s, "x"), expr::Column(s, "y"));
  ExpectBatchRowAgreement(data, e);
  EXPECT_EQ(EvalAt(data, e, 0).int64(), kMin);  // MIN / -1 wraps to MIN
  EXPECT_TRUE(EvalAt(data, e, 1).is_null());    // x / 0 is NULL
  EXPECT_EQ(EvalAt(data, e, 2).int64(), -3);    // truncation toward zero
}

TEST(ExpressionTest, DoubleDivisionByZeroIsNull) {
  Schema s({{"x", DataType::kDouble, true}, {"y", DataType::kDouble, true}});
  TableData data(s);
  data.AppendRow({Value::Double(1.0), Value::Double(0.0)});
  data.AppendRow({Value::Double(1.0), Value::Double(-0.0)});
  data.AppendRow({Value::Double(1.0), Value::Double(0.5)});
  ExprPtr e = expr::Div(expr::Column(s, "x"), expr::Column(s, "y"));
  ExpectBatchRowAgreement(data, e);
  EXPECT_TRUE(EvalAt(data, e, 0).is_null());
  EXPECT_TRUE(EvalAt(data, e, 1).is_null());  // -0.0 divisor is zero too
  EXPECT_EQ(EvalAt(data, e, 2).dbl(), 2.0);
}

// --- String IN on dictionary codes --------------------------------------------
// A compiled IN over a string vector with a code lane tests codes against a
// code set; without a lane it compares strings. Both must give the same
// verdict on every row.

Schema StringSchema() { return Schema({{"s", DataType::kString, true}}); }

// Fills `batch` with `values` ("" stands for NULL) decoded from `dict`: the
// strings are the dictionary's views and the lane holds their codes
// (values are inserted when missing). NULL rows get out-of-range codes.
void FillCoded(const std::vector<std::string>& values, StringDictionary* dict,
               Batch* batch) {
  batch->Reset();
  ColumnVector& cv = batch->column(0);
  uint64_t* codes = cv.mutable_codes();
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].empty()) {
      cv.mutable_validity()[i] = 0;
      cv.mutable_strings()[i] = std::string_view();
      codes[i] = ~uint64_t{0} - i;
      continue;
    }
    const int64_t code = dict->GetOrInsert(values[i], int64_t{1} << 20);
    cv.mutable_validity()[i] = 1;
    cv.mutable_strings()[i] = dict->Get(code);
    codes[i] = static_cast<uint64_t>(code);
  }
  cv.set_dictionary(dict);
  batch->set_num_rows(static_cast<int64_t>(values.size()));
  batch->ActivateAll();
}

std::shared_ptr<const ExprProgram> CompileStringIn(std::vector<Value> list) {
  return ExprProgram::Compile(
             {expr::In(expr::Column(StringSchema(), "s"), std::move(list))})
      .ValueOrDie();
}

// Runs `coded` over `batch` with its lane and `strings` over the same rows
// without one, and expects equal validity on every row and equal verdicts
// on every non-null row. Returns the rows the code set decided.
int64_t ExpectCodeSetMatchesStrings(ExprFrame* coded, ExprFrame* strings,
                                    Batch* batch) {
  const int64_t before = coded->rows_code_filtered();
  EXPECT_TRUE(coded->Run(*batch).ok());
  const int64_t decided = coded->rows_code_filtered() - before;
  const StringDictionary* dict = batch->column(0).dictionary();
  batch->column(0).set_dictionary(nullptr);
  EXPECT_TRUE(strings->Run(*batch).ok());
  batch->column(0).set_dictionary(dict);
  EXPECT_EQ(strings->rows_code_filtered(), 0);
  const ColumnVector& got = coded->result(0);
  const ColumnVector& want = strings->result(0);
  for (int64_t i = 0; i < batch->num_rows(); ++i) {
    EXPECT_EQ(got.validity()[i], want.validity()[i]) << "row " << i;
    if (want.validity()[i]) {
      EXPECT_EQ(got.ints()[i], want.ints()[i])
          << "row " << i << " '" << batch->column(0).strings()[i] << "'";
    }
  }
  return decided;
}

TEST(ExprCodeSetTest, SameBatchWithAndWithoutLaneAgree) {
  auto program = CompileStringIn(
      {Value::String("MAIL"), Value::String("SHIP")});
  StringDictionary dict;
  for (const char* v : {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                        "TRUCK"}) {
    dict.GetOrInsert(v, 100);
  }
  Batch batch(StringSchema(), 16);
  FillCoded({"MAIL", "AIR", "SHIP", "", "TRUCK", "MAIL", "", "FOB", "SHIP"},
            &dict, &batch);
  ExprFrame coded(program), strings(program);
  EXPECT_EQ(ExpectCodeSetMatchesStrings(&coded, &strings, &batch), 9);
  // Spot-check the verdicts themselves.
  EXPECT_EQ(coded.result(0).ints()[0], 1);
  EXPECT_EQ(coded.result(0).ints()[1], 0);
  EXPECT_EQ(coded.result(0).ints()[2], 1);
  EXPECT_EQ(coded.result(0).validity()[3], 0);
  EXPECT_EQ(coded.result(0).ints()[4], 0);
}

TEST(ExprCodeSetTest, ValueInsertedAfterTheFirstBatchIsFound) {
  // "SHIP" is not in the dictionary when the first batch runs; a later
  // batch carries its freshly assigned code. The grown dictionary must
  // refresh the code set.
  auto program = CompileStringIn(
      {Value::String("SHIP"), Value::String("MAIL")});
  StringDictionary dict;
  Batch batch(StringSchema(), 16);
  ExprFrame coded(program), strings(program);
  FillCoded({"AIR", "MAIL", "RAIL"}, &dict, &batch);
  ExpectCodeSetMatchesStrings(&coded, &strings, &batch);
  EXPECT_EQ(coded.result(0).ints()[1], 1);
  FillCoded({"SHIP", "AIR", "TRUCK", "SHIP", "MAIL"}, &dict, &batch);
  ExpectCodeSetMatchesStrings(&coded, &strings, &batch);
  EXPECT_EQ(coded.result(0).ints()[0], 1);
  EXPECT_EQ(coded.result(0).ints()[3], 1);
  EXPECT_EQ(coded.result(0).ints()[2], 0);
}

TEST(ExprCodeSetTest, TwoDictionariesAlternate) {
  // Same strings, different codes: each batch must be decided in its own
  // dictionary's code space.
  auto program = CompileStringIn(
      {Value::String("beta"), Value::String("delta")});
  StringDictionary a, b;
  for (const char* v : {"alpha", "beta", "gamma", "delta"}) {
    a.GetOrInsert(v, 100);
  }
  for (const char* v : {"delta", "gamma", "beta", "alpha"}) {
    b.GetOrInsert(v, 100);
  }
  const std::vector<std::string> rows = {"alpha", "beta", "", "gamma",
                                         "delta", "beta"};
  Batch batch(StringSchema(), 16);
  ExprFrame coded(program), strings(program);
  for (int round = 0; round < 4; ++round) {
    FillCoded(rows, round % 2 == 0 ? &a : &b, &batch);
    EXPECT_EQ(ExpectCodeSetMatchesStrings(&coded, &strings, &batch), 6);
    EXPECT_EQ(coded.result(0).ints()[1], 1);
    EXPECT_EQ(coded.result(0).ints()[3], 0);
    EXPECT_EQ(coded.result(0).ints()[4], 1);
  }
}

TEST(ExprCodeSetTest, NullRowsStayNull) {
  auto program = CompileStringIn({Value::String("x")});
  StringDictionary dict;
  Batch batch(StringSchema(), 16);
  FillCoded({"", "x", "", "", "y", ""}, &dict, &batch);
  ExprFrame coded(program), strings(program);
  ExpectCodeSetMatchesStrings(&coded, &strings, &batch);
  for (int64_t i : {0, 2, 3, 5}) {
    EXPECT_EQ(coded.result(0).validity()[i], 0) << i;
  }
  EXPECT_EQ(coded.result(0).ints()[1], 1);
  EXPECT_EQ(coded.result(0).ints()[4], 0);
}

TEST(ExprCodeSetTest, NullInTheListIsSkipped) {
  auto program = CompileStringIn({Value::String("x"),
                                  Value::Null(DataType::kString)});
  StringDictionary dict;
  Batch batch(StringSchema(), 16);
  FillCoded({"x", "y", "", "x"}, &dict, &batch);
  ExprFrame coded(program), strings(program);
  ExpectCodeSetMatchesStrings(&coded, &strings, &batch);
  EXPECT_EQ(coded.result(0).ints()[0], 1);
  EXPECT_EQ(coded.result(0).ints()[1], 0);
  EXPECT_EQ(coded.result(0).validity()[2], 0);
}

TEST(ExprCodeSetTest, CodeSetIsChargedToTheFrameTracker) {
  // The listed value gets code 999, so its byte map spans 1000 codes.
  auto program = CompileStringIn({Value::String("v999")});
  StringDictionary dict;
  for (int i = 0; i < 1000; ++i) {
    dict.GetOrInsert("v" + std::to_string(i), 2000);
  }
  Batch batch(StringSchema(), 16);
  FillCoded({"v1", "v999", ""}, &dict, &batch);
  MemoryTracker tracker("frame", "operator", nullptr);
  {
    ExprFrame coded(program), strings(program);
    coded.SetMemoryTracker(&tracker);
    strings.SetMemoryTracker(&tracker);
    batch.column(0).set_dictionary(nullptr);
    ASSERT_TRUE(strings.Run(batch).ok());
    batch.column(0).set_dictionary(&dict);
    const int64_t scratch = tracker.current();
    EXPECT_EQ(ExpectCodeSetMatchesStrings(&coded, &strings, &batch), 3);
    EXPECT_EQ(coded.result(0).ints()[1], 1);
    EXPECT_GE(tracker.current(), 2 * scratch + 1000);
  }
  EXPECT_EQ(tracker.current(), 0);
}

TEST(ExprCodeSetTest, NoListedValueInTheDictionary) {
  auto program = CompileStringIn(
      {Value::String("kiwi"), Value::String("mango")});
  StringDictionary dict;
  Batch batch(StringSchema(), 16);
  FillCoded({"apple", "pear", "", "apple"}, &dict, &batch);
  ExprFrame coded(program), strings(program);
  EXPECT_EQ(ExpectCodeSetMatchesStrings(&coded, &strings, &batch), 4);
  for (int64_t i : {0, 1, 3}) EXPECT_EQ(coded.result(0).ints()[i], 0) << i;
}

}  // namespace
}  // namespace vstore
