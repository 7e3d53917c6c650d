#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "expr/bytecode.h"
#include "expr/expression.h"
#include "expr/simd.h"
#include "query/builder.h"
#include "query/parser.h"

// Edge-case semantics pinned across BOTH evaluators: every assertion here
// states what the tree interpreter does, and Both() checks that the
// compiled program, run over the tuple as a one-row batch, reaches the
// same predicate outcome at every SIMD tier. If either evaluator drifts —
// NaN handling, int<->double coercion, division by zero, null
// propagation, integer wraparound — a test in this file fails before the
// fuzzer has to find it.

namespace tpstream {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();

// Evaluates `expr` with the interpreter, checks that the compiled program
// agrees with EvalPredicate on a one-row batch at every SIMD tier this
// machine supports, and returns the interpreter's Value for assertions
// about the semantics themselves.
Value Both(const ExprPtr& expr, const Tuple& tuple) {
  const Value interpreted = expr->Eval(tuple);
  auto compiled = CompilePredicate(*expr);
  EXPECT_TRUE(compiled.ok()) << compiled.status().message() << "\n  "
                             << expr->ToString();
  if (!compiled.ok()) return interpreted;
  const std::vector<Event> events = {Event(tuple, 1)};
  ColumnarBatch batch;
  batch.Assign(events, compiled.value()->referenced_fields());
  const bool want = EvalPredicate(*expr, tuple);
  for (int l = 0; l <= static_cast<int>(simd::BestSimdLevel()); ++l) {
    ExecScratch scratch;
    scratch.simd = static_cast<simd::SimdLevel>(l);
    uint8_t got = 0xAA;
    compiled.value()->RunPredicateColumn(batch, &scratch, &got);
    EXPECT_EQ(want, got != 0)
        << expr->ToString()
        << " TPSTREAM_SIMD=" << simd::SimdLevelName(scratch.simd) << "\n"
        << compiled.value()->Disassemble();
  }
  return interpreted;
}

TEST(BytecodeSemanticsTest, NanComparisonsAreIncomparable) {
  const Tuple t = {Value(kNaN), Value(1.0)};
  // Any comparison against NaN is three-valued null, not false — so both
  // `x > y` and `NOT (x > y)` behave differently from an ordinary miss.
  EXPECT_TRUE(Both(Gt(FieldRef(0), FieldRef(1)), t).is_null());
  EXPECT_TRUE(Both(Lt(FieldRef(0), FieldRef(1)), t).is_null());
  EXPECT_TRUE(Both(Eq(FieldRef(0), FieldRef(0)), t).is_null());  // NaN == NaN
  EXPECT_TRUE(Both(Binary(BinaryOp::kNe, FieldRef(0), FieldRef(0)), t)
                  .is_null());
  // Null is falsy, so NOT(null comparison) is true.
  EXPECT_TRUE(Both(Not(Gt(FieldRef(0), FieldRef(1))), t).AsBool());
  // NaN itself is truthy (numeric != 0), pinned for AND/OR.
  EXPECT_TRUE(Both(Binary(BinaryOp::kAnd, FieldRef(0), Literal(true)), t)
                  .AsBool());
}

TEST(BytecodeSemanticsTest, InfinityComparesAndPropagates) {
  const Tuple t = {Value(kInf), Value(-kInf), Value(int64_t{7})};
  EXPECT_TRUE(Both(Gt(FieldRef(0), FieldRef(2)), t).AsBool());
  EXPECT_TRUE(Both(Lt(FieldRef(1), FieldRef(2)), t).AsBool());
  EXPECT_TRUE(Both(Eq(FieldRef(0), FieldRef(0)), t).AsBool());
  EXPECT_TRUE(Both(Gt(FieldRef(0), FieldRef(1)), t).AsBool());
  // inf + (-inf) = NaN flows through arithmetic identically (bit-compared
  // inside Both); the result is truthy but incomparable.
  const Value nan_sum =
      Both(Binary(BinaryOp::kAdd, FieldRef(0), FieldRef(1)), t);
  EXPECT_TRUE(std::isnan(nan_sum.AsDouble()));
  // 7 / inf widens to 0.0.
  EXPECT_EQ(Both(Binary(BinaryOp::kDiv, FieldRef(2), FieldRef(0)), t)
                .AsDouble(),
            0.0);
}

TEST(BytecodeSemanticsTest, IntDoubleCoercion) {
  const Tuple t = {};
  // Mixed numeric comparison goes through double.
  EXPECT_TRUE(Both(Eq(Literal(int64_t{1}), Literal(1.0)), t).AsBool());
  EXPECT_TRUE(
      Both(Lt(Literal(int64_t{1}), Literal(1.5)), t).AsBool());
  // 2^53 + 1 is not representable as double: the widening comparison
  // cannot tell it from 2^53. Pinned deliberately — both evaluators must
  // share the precision loss, not fix it unilaterally.
  const int64_t big = (int64_t{1} << 53) + 1;
  EXPECT_TRUE(
      Both(Eq(Literal(big), Literal(9007199254740992.0)), t).AsBool());
  // int op int stays int; int op double widens.
  EXPECT_EQ(Both(Binary(BinaryOp::kAdd, Literal(int64_t{2}),
                        Literal(int64_t{3})),
                 t)
                .type(),
            ValueType::kInt);
  EXPECT_EQ(Both(Binary(BinaryOp::kAdd, Literal(int64_t{2}), Literal(3.0)),
                 t)
                .type(),
            ValueType::kDouble);
  // Division always widens, even int / int.
  const Value q =
      Both(Binary(BinaryOp::kDiv, Literal(int64_t{7}), Literal(int64_t{2})),
           t);
  EXPECT_EQ(q.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(q.AsDouble(), 3.5);
}

TEST(BytecodeSemanticsTest, DivisionByZeroIsNull) {
  const Tuple t = {Value(int64_t{0}), Value(0.0), Value(-0.0)};
  const ExprPtr five = Literal(int64_t{5});
  EXPECT_TRUE(Both(Binary(BinaryOp::kDiv, five, FieldRef(0)), t).is_null());
  EXPECT_TRUE(Both(Binary(BinaryOp::kDiv, five, FieldRef(1)), t).is_null());
  // -0.0 == 0.0, so it divides to null too (not -inf).
  EXPECT_TRUE(Both(Binary(BinaryOp::kDiv, five, FieldRef(2)), t).is_null());
  EXPECT_TRUE(
      Both(Binary(BinaryOp::kDiv, FieldRef(1), FieldRef(1)), t).is_null());
  // The null then poisons downstream comparisons to null (falsy).
  EXPECT_TRUE(
      Both(Gt(Binary(BinaryOp::kDiv, five, FieldRef(0)), Literal(0.0)), t)
          .is_null());
}

TEST(BytecodeSemanticsTest, IntegerOverflowWrapsInBothEvaluators) {
  const Tuple t = {Value(kIntMax), Value(kIntMin), Value(int64_t{-1})};
  const ExprPtr one = Literal(int64_t{1});
  EXPECT_EQ(Both(Binary(BinaryOp::kAdd, FieldRef(0), one), t).AsInt(),
            kIntMin);
  EXPECT_EQ(Both(Binary(BinaryOp::kSub, FieldRef(1), one), t).AsInt(),
            kIntMax);
  EXPECT_EQ(Both(Binary(BinaryOp::kMul, FieldRef(1), FieldRef(2)), t)
                .AsInt(),
            kIntMin);
  EXPECT_EQ(Both(Negate(FieldRef(1)), t).AsInt(), kIntMin);
}

TEST(BytecodeSemanticsTest, MissingAndNullFieldsPropagate) {
  const Tuple t = {Value()};  // one null field; index 1+ missing
  for (const int field : {0, 1, 7, -1}) {
    EXPECT_TRUE(Both(FieldRef(field), t).is_null()) << field;
    EXPECT_TRUE(Both(Gt(FieldRef(field), Literal(1.0)), t).is_null())
        << field;
    EXPECT_TRUE(
        Both(Binary(BinaryOp::kAdd, FieldRef(field), Literal(1.0)), t)
            .is_null())
        << field;
    EXPECT_TRUE(Both(Negate(FieldRef(field)), t).is_null()) << field;
    // Null is falsy: NOT null -> true; null AND x short-circuits false.
    EXPECT_TRUE(Both(Not(FieldRef(field)), t).AsBool()) << field;
    EXPECT_FALSE(
        Both(Binary(BinaryOp::kAnd, FieldRef(field), Literal(true)), t)
            .AsBool())
        << field;
  }
}

TEST(BytecodeSemanticsTest, StringsCompareAndNeverCoerce) {
  const Tuple t = {Value(std::string("abc")), Value(std::string("abd")),
                   Value(int64_t{0})};
  EXPECT_TRUE(Both(Lt(FieldRef(0), FieldRef(1)), t).AsBool());
  EXPECT_TRUE(Both(Eq(FieldRef(0), FieldRef(0)), t).AsBool());
  EXPECT_FALSE(Both(Eq(FieldRef(0), FieldRef(1)), t).AsBool());
  // String vs number is incomparable -> null, and strings are falsy.
  EXPECT_TRUE(Both(Eq(FieldRef(0), FieldRef(2)), t).is_null());
  EXPECT_FALSE(Both(Binary(BinaryOp::kOr, FieldRef(0), FieldRef(2)), t)
                   .AsBool());
  // Arithmetic on strings is a type error -> null.
  EXPECT_TRUE(
      Both(Binary(BinaryOp::kAdd, FieldRef(0), FieldRef(1)), t).is_null());
}

TEST(BytecodeSemanticsTest, ShortCircuitSkipsPoisonedOperand) {
  // The right operand divides by zero; AND/OR must not evaluate it when
  // the left side already decides. (Observable through the result: the
  // skipped side would yield null, making the AND false-not-null.)
  const Tuple t = {Value(false), Value(true), Value(int64_t{0})};
  const ExprPtr poison =
      Gt(Binary(BinaryOp::kDiv, Literal(int64_t{1}), FieldRef(2)),
         Literal(0.0));
  EXPECT_FALSE(
      Both(Binary(BinaryOp::kAnd, FieldRef(0), poison), t).AsBool());
  EXPECT_TRUE(Both(Binary(BinaryOp::kOr, FieldRef(1), poison), t).AsBool());
  // When the left does NOT decide, the poisoned side is evaluated and its
  // null collapses to the AND/OR's truthiness result.
  EXPECT_FALSE(
      Both(Binary(BinaryOp::kAnd, FieldRef(1), poison), t).AsBool());
  EXPECT_FALSE(
      Both(Binary(BinaryOp::kOr, FieldRef(0), poison), t).AsBool());
}

TEST(BytecodeSemanticsTest, HugeParsedLiteralsStayDouble) {
  // A literal beyond int64 takes the lexer's strtod path; integer-shaped
  // or not, it must reach both evaluators as the same double.
  Schema schema({Field{"x", ValueType::kDouble}});
  const std::string huge_int(30, '9');  // ~1e30, integer-shaped
  auto spec = query::ParseQuery(
      "FROM S DEFINE A AS x < " + huge_int +
          ", B AS x > 123456789012345678901234567890.5 "
          "PATTERN A overlaps B WITHIN 100",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  const ExprPtr a = spec.value().definitions[0].predicate;
  const ExprPtr b = spec.value().definitions[1].predicate;
  const Tuple big = {Value(1e31)};
  const Tuple small = {Value(1.0)};
  EXPECT_FALSE(Both(a, big).AsBool());
  EXPECT_TRUE(Both(a, small).AsBool());
  EXPECT_TRUE(Both(b, big).AsBool());
  EXPECT_FALSE(Both(b, small).AsBool());
  // Integer-shaped literals in range parse back to int — but they ride
  // the same strtod path, so above 2^53 the lexer has already rounded to
  // the nearest double. 4611686018427387903 (2^62 - 1) therefore means
  // the int literal 4611686018427387904 (2^62): pinned, shared by both
  // evaluators, and exact int==int from there on.
  auto exact_spec = query::ParseQuery(
      "FROM S DEFINE A AS x == 4611686018427387903, B AS x < 0 "
      "PATTERN A before B WITHIN 10",
      schema);
  ASSERT_TRUE(exact_spec.ok());
  const ExprPtr exact = exact_spec.value().definitions[0].predicate;
  EXPECT_FALSE(Both(exact, {Value(int64_t{4611686018427387903})}).AsBool());
  EXPECT_TRUE(Both(exact, {Value(int64_t{4611686018427387904})}).AsBool());
}

// End-to-end: a full operator run over a mixed-shape query must produce
// identical matches and RETURN payloads with compiled_predicates on and
// off, through both Push() and the batch-prepared PushBatch() path.
TEST(BytecodeSemanticsTest, OperatorDifferentialCompiledVsInterpreted) {
  Schema schema({Field{"speed", ValueType::kDouble},
                 Field{"accel", ValueType::kDouble},
                 Field{"lane", ValueType::kInt}});
  auto spec = query::ParseQuery(
      "FROM S DEFINE A AS speed > 50.0 AND accel > 0.0, "
      "B AS lane == 2 OR speed / accel > 100.0 "
      "PATTERN A overlaps B WITHIN 200",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  std::vector<Event> stream;
  uint64_t s = 42;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (TimePoint t = 1; t <= 600; ++t) {
    Tuple payload = {Value(static_cast<double>(next() % 100)),
                     Value(static_cast<double>(next() % 7) - 3.0),
                     Value(static_cast<int64_t>(next() % 4))};
    if (next() % 19 == 0) payload[1] = Value();           // null accel
    if (next() % 23 == 0) payload[0] = Value(kNaN);       // NaN speed
    if (next() % 29 == 0) payload.resize(next() % 3);     // short tuple
    stream.emplace_back(std::move(payload), t);
  }

  struct RunResult {
    std::vector<Event> outputs;
    int64_t matches = 0;
    int programs = 0;
  };
  auto run = [&](bool compiled, bool batched) {
    RunResult r;
    TPStreamOperator::Options options;
    options.compiled_predicates = compiled;
    TPStreamOperator op(spec.value(), options,
                        [&](const Event& e) { r.outputs.push_back(e); });
    if (batched) {
      // Uneven chunks so batches end mid-situation.
      for (size_t i = 0; i < stream.size();) {
        const size_t len = std::min<size_t>(1 + i % 37, stream.size() - i);
        op.PushBatch(std::span<const Event>(stream.data() + i, len));
        i += len;
      }
    } else {
      for (const Event& e : stream) op.Push(e);
    }
    op.Flush();
    r.matches = op.num_matches();
    r.programs = op.num_compiled_programs();
    return r;
  };

  const RunResult oracle = run(/*compiled=*/false, /*batched=*/false);
  EXPECT_EQ(oracle.programs, 0);
  for (const bool batched : {false, true}) {
    const RunResult got = run(/*compiled=*/true, batched);
    EXPECT_EQ(got.programs, 2);
    EXPECT_EQ(got.matches, oracle.matches) << "batched=" << batched;
    ASSERT_EQ(got.outputs.size(), oracle.outputs.size())
        << "batched=" << batched;
    for (size_t i = 0; i < got.outputs.size(); ++i) {
      EXPECT_EQ(got.outputs[i].t, oracle.outputs[i].t);
      ASSERT_EQ(got.outputs[i].payload.size(),
                oracle.outputs[i].payload.size());
      for (size_t j = 0; j < got.outputs[i].payload.size(); ++j) {
        EXPECT_TRUE(Value::Compare(got.outputs[i].payload[j],
                                   oracle.outputs[i].payload[j]) == 0 ||
                    (got.outputs[i].payload[j].is_null() &&
                     oracle.outputs[i].payload[j].is_null()))
            << "output " << i << " field " << j;
      }
    }
  }
}

}  // namespace
}  // namespace tpstream
