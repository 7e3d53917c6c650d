#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expr/bytecode.h"
#include "expr/expression.h"
#include "expr/simd.h"

// Differential fuzzer: random predicate trees evaluated by the tree
// interpreter (the oracle) and by the columnar executor must agree on
// every row's predicate outcome, at every SIMD tier, on random tuples
// that deliberately include nulls, wrong types, short tuples and
// adversarial numerics (NaN, ±inf, int64 extremes, values that overflow
// int multiplication).
//
// Reproduction: every case derives its RNG stream from (base seed, case
// index) only. A failure prints the one-line replay environment, e.g.
//     TPSTREAM_FUZZ_SEED=20260807 TPSTREAM_FUZZ_CASE=1729 ./bytecode_fuzz_test
// which re-runs exactly the failing case (and dumps the expression, the
// disassembled program and the tuple).
//
// Knobs (environment):
//   TPSTREAM_FUZZ_SEED   base seed (default 20260807)
//   TPSTREAM_FUZZ_CASES  number of random expression trees (default 12000)
//   TPSTREAM_FUZZ_CASE   run exactly this one case index

namespace tpstream {
namespace {

// --- Deterministic RNG (splitmix64: identical on every platform) --------

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

  // True with probability num/den.
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }

  double UnitDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? std::strtoll(s, nullptr, 10) : fallback;
}

// --- Random values / tuples ---------------------------------------------

Value RandomInt(Rng& rng) {
  switch (rng.Below(6)) {
    case 0:
      return Value(int64_t{0});
    case 1:
      return Value(static_cast<int64_t>(rng.Below(10)) - 5);
    case 2:
      return Value(std::numeric_limits<int64_t>::max());
    case 3:
      return Value(std::numeric_limits<int64_t>::min());
    case 4:  // big enough that products overflow
      return Value(static_cast<int64_t>(rng.Next() >> 1));
    default:
      return Value(static_cast<int64_t>(rng.Next()));
  }
}

Value RandomDouble(Rng& rng) {
  switch (rng.Below(8)) {
    case 0:
      return Value(0.0);
    case 1:
      return Value(-0.0);
    case 2:
      return Value(std::numeric_limits<double>::quiet_NaN());
    case 3:
      return Value(std::numeric_limits<double>::infinity());
    case 4:
      return Value(-std::numeric_limits<double>::infinity());
    case 5:
      return Value(std::numeric_limits<double>::max());
    case 6:
      return Value(std::numeric_limits<double>::denorm_min());
    default:
      return Value((rng.UnitDouble() - 0.5) * 200.0);
  }
}

Value RandomString(Rng& rng) {
  static const char* kStrings[] = {"", "a", "b", "stop", "GO", "0", "1.5"};
  return Value(std::string(kStrings[rng.Below(7)]));
}

Value RandomValue(Rng& rng) {
  switch (rng.Below(10)) {
    case 0:
      return Value();  // null
    case 1:
    case 2:
      return Value(rng.Chance(1, 2));
    case 3:
      return RandomString(rng);
    case 4:
    case 5:
    case 6:
      return RandomInt(rng);
    default:
      return RandomDouble(rng);
  }
}

// A tuple for a nominally `num_fields`-wide schema, but adversarial:
// sometimes short (missing trailing fields), each cell of random type.
Tuple RandomTuple(Rng& rng, int num_fields) {
  const int len = rng.Chance(1, 5)
                      ? static_cast<int>(rng.Below(num_fields + 1))
                      : num_fields;
  Tuple tuple;
  tuple.reserve(len);
  for (int i = 0; i < len; ++i) tuple.push_back(RandomValue(rng));
  return tuple;
}

// --- Random expression trees --------------------------------------------

constexpr BinaryOp kAllOps[] = {
    BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
    BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,  BinaryOp::kLe,
    BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd, BinaryOp::kOr,
};

ExprPtr RandomExpr(Rng& rng, int depth, int num_fields) {
  if (depth <= 0 || rng.Chance(1, 4)) {
    // Leaf: field reference (sometimes deliberately out of range, which
    // both evaluators must fold to null) or literal.
    if (rng.Chance(1, 2)) {
      const int index = static_cast<int>(rng.Below(num_fields + 3)) - 1;
      return FieldRef(index);
    }
    return Literal(RandomValue(rng));
  }
  switch (rng.Below(8)) {
    case 0:
      return Not(RandomExpr(rng, depth - 1, num_fields));
    case 1:
      return Negate(RandomExpr(rng, depth - 1, num_fields));
    default:
      return Binary(kAllOps[rng.Below(12)],
                    RandomExpr(rng, depth - 1, num_fields),
                    RandomExpr(rng, depth - 1, num_fields));
  }
}

// --- Bit-exact comparison -----------------------------------------------

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::string Describe(const Value& v) {
  std::ostringstream os;
  os << ValueTypeName(v.type()) << ":" << v.ToString();
  if (v.type() == ValueType::kDouble) {
    os << " (bits 0x" << std::hex << DoubleBits(v.AsDouble()) << ")";
  }
  return os.str();
}

std::string DescribeTuple(const Tuple& tuple) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) os << ", ";
    os << Describe(tuple[i]);
  }
  os << "]";
  return os.str();
}

// --- SIMD level sweep ----------------------------------------------------

// Levels the columnar checks run at: every tier this machine supports
// (off, sse2, ..., best) — each kernel width, scalar width included, must
// agree with the interpreter. When TPSTREAM_SIMD is set, only that
// (clamped) level runs, which is how CI re-runs the suite per tier and
// how a failure is replayed at the exact level that produced it.
std::vector<simd::SimdLevel> SimdLevelsToTest() {
  std::vector<simd::SimdLevel> levels;
  if (const char* env = std::getenv("TPSTREAM_SIMD");
      env != nullptr && *env != '\0') {
    simd::SimdLevel parsed;
    if (simd::ParseSimdLevel(env, &parsed)) {
      levels.push_back(simd::Effective(parsed));
      return levels;
    }
  }
  for (int l = 0; l <= static_cast<int>(simd::BestSimdLevel()); ++l) {
    levels.push_back(static_cast<simd::SimdLevel>(l));
  }
  return levels;
}

// Checks one batch at every SIMD level under test: the byte and bitmap
// columnar APIs must both agree with the per-tuple oracle on every row,
// and the bitmap's tail bits past the row count must be zero. Failure
// messages name the level as a TPSTREAM_SIMD=... replay setting.
void CheckColumnar(const BytecodeProgram& program, const Expression& expr,
                   const std::vector<Event>& events,
                   const std::string& context) {
  ColumnarBatch batch;
  batch.Assign({events.data(), events.size()},
               program.referenced_fields());
  const size_t rows = events.size();
  const size_t words = (rows + 63) / 64;
  for (simd::SimdLevel level : SimdLevelsToTest()) {
    ExecScratch scratch;
    scratch.simd = level;
    std::vector<uint8_t> bytes(rows, 0xAA);
    program.RunPredicateColumn(batch, &scratch, bytes.data());
    std::vector<uint64_t> bits(words, ~uint64_t{0});
    program.RunPredicateColumnBits(batch, &scratch, bits.data());
    for (size_t row = 0; row < rows; ++row) {
      const bool want = EvalPredicate(expr, events[row].payload);
      ASSERT_EQ(want, bytes[row] != 0)
          << "columnar row " << row
          << " TPSTREAM_SIMD=" << simd::SimdLevelName(level) << "\n  "
          << context << "\n  tuple: " << DescribeTuple(events[row].payload);
      ASSERT_EQ(want, (bits[row >> 6] >> (row & 63) & 1) != 0)
          << "bitmap row " << row
          << " TPSTREAM_SIMD=" << simd::SimdLevelName(level) << "\n  "
          << context << "\n  tuple: " << DescribeTuple(events[row].payload);
    }
    if (rows % 64 != 0) {
      ASSERT_EQ(bits[words - 1] >> (rows % 64), 0u)
          << "bitmap tail bits set past row count"
          << " TPSTREAM_SIMD=" << simd::SimdLevelName(level) << "\n  "
          << context;
    }
  }
}

// --- The fuzz loop ------------------------------------------------------

constexpr uint64_t kDefaultSeed = 20260807;
constexpr int kDefaultCases = 12000;
constexpr int kMaxDepth = 6;
constexpr int kNumFields = 5;
constexpr int kTuplesPerExpr = 4;

// Runs one case; returns false (with gtest failure) on divergence.
void RunCase(uint64_t base_seed, int64_t case_index) {
  Rng rng(base_seed ^ (static_cast<uint64_t>(case_index) *
                       0x9e3779b97f4a7c15ull));
  const int depth = 1 + static_cast<int>(rng.Below(kMaxDepth));
  const ExprPtr expr = RandomExpr(rng, depth, kNumFields);

  auto compiled = CompilePredicate(*expr);
  ASSERT_TRUE(compiled.ok())
      << "compile failed: " << compiled.status().message()
      << "\n  expr: " << expr->ToString()
      << "\n  replay: TPSTREAM_FUZZ_SEED=" << base_seed
      << " TPSTREAM_FUZZ_CASE=" << case_index;
  const auto& program = *compiled.value();

  // The tuples form one batch: every row must agree with the
  // interpreter's predicate at every SIMD level this machine supports
  // (byte and bitmap output APIs alike).
  std::vector<Event> events;
  events.reserve(kTuplesPerExpr);
  for (int i = 0; i < kTuplesPerExpr; ++i) {
    events.emplace_back(RandomTuple(rng, kNumFields),
                        static_cast<TimePoint>(i + 1));
  }
  std::ostringstream ctx;
  ctx << "expr: " << expr->ToString()
      << "\n  replay: TPSTREAM_FUZZ_SEED=" << base_seed
      << " TPSTREAM_FUZZ_CASE=" << case_index << "\n"
      << program.Disassemble();
  CheckColumnar(program, *expr, events, ctx.str());
}

TEST(BytecodeFuzzTest, DifferentialAgainstInterpreter) {
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("TPSTREAM_FUZZ_SEED", kDefaultSeed));
  const int64_t only_case = EnvInt("TPSTREAM_FUZZ_CASE", -1);
  if (only_case >= 0) {
    RunCase(seed, only_case);
    return;
  }
  const int64_t cases = EnvInt("TPSTREAM_FUZZ_CASES", kDefaultCases);
  for (int64_t i = 0; i < cases; ++i) {
    RunCase(seed, i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A second stream under a different seed exercises deeper trees with a
// wider-than-default schema, so CI covers register pressure beyond what
// the main loop's depth cap reaches.
TEST(BytecodeFuzzTest, DeepTreesRegisterPressure) {
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("TPSTREAM_FUZZ_SEED", kDefaultSeed)) ^
      0xdeadbeefull;
  for (int64_t i = 0; i < 300; ++i) {
    Rng rng(seed ^ (static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull));
    const ExprPtr expr = RandomExpr(rng, 12, 8);
    auto compiled = CompilePredicate(*expr);
    ASSERT_TRUE(compiled.ok()) << compiled.status().message();
    std::vector<Event> events;
    for (int t = 0; t < 2; ++t) {
      events.emplace_back(RandomTuple(rng, 8), static_cast<TimePoint>(t + 1));
    }
    std::ostringstream ctx;
    ctx << "deep case " << i << "\n  expr: " << expr->ToString() << "\n"
        << compiled.value()->Disassemble();
    CheckColumnar(*compiled.value(), *expr, events, ctx.str());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A third stream with homogeneous columns: every event shares one
// per-field type profile, so ColumnarBatch::Assign reports uniform
// ColClasses and the typed kernels (integer-domain compares, widened
// double arithmetic, NaN guards, division-by-zero nulls) run instead of
// the generic fallbacks the mixed-tuple loop above mostly exercises.
// 64-row batches also stress intra-batch value variety (NaN next to
// finite doubles in one column) that 4-row batches rarely produce.
TEST(BytecodeFuzzTest, TypedColumnKernels) {
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("TPSTREAM_FUZZ_SEED", kDefaultSeed)) ^
      0xc0117777ull;
  constexpr int kRows = 64;
  for (int64_t i = 0; i < 400; ++i) {
    Rng rng(seed ^ (static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull));
    int profile[kNumFields];
    for (int f = 0; f < kNumFields; ++f) {
      profile[f] = static_cast<int>(rng.Below(3));
    }
    const ExprPtr expr = RandomExpr(rng, 5, kNumFields);
    auto compiled = CompilePredicate(*expr);
    ASSERT_TRUE(compiled.ok()) << compiled.status().message();
    const auto& program = *compiled.value();

    std::vector<Event> events;
    events.reserve(kRows);
    for (int r = 0; r < kRows; ++r) {
      Tuple tuple;
      tuple.reserve(kNumFields);
      for (int f = 0; f < kNumFields; ++f) {
        switch (profile[f]) {
          case 0:
            tuple.push_back(RandomInt(rng));
            break;
          case 1:
            tuple.push_back(RandomDouble(rng));
            break;
          default:
            tuple.push_back(Value(rng.Chance(1, 2)));
            break;
        }
      }
      events.emplace_back(std::move(tuple), static_cast<TimePoint>(r + 1));
    }

    std::ostringstream ctx;
    ctx << "typed column case " << i << "\n  expr: " << expr->ToString()
        << "\n" << program.Disassemble();
    CheckColumnar(program, *expr, events, ctx.str());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Batch widths straddling the 16- and 32-byte vector widths and the
// 64-row bitmap word: full vectors plus every scalar-tail length, exact
// word boundaries, and the one-row degenerate case. Each width runs the
// full byte/bitmap columnar check at every SIMD level, over columns that
// mix uniform-typed and deliberately mixed profiles.
TEST(BytecodeFuzzTest, BatchWidthBoundaries) {
  constexpr int kWidths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                             15, 16, 17, 31, 32, 33, 63, 64, 65};
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("TPSTREAM_FUZZ_SEED", kDefaultSeed)) ^
      0xb17b0c1eull;
  int case_id = 0;
  for (int rows : kWidths) {
    for (int rep = 0; rep < 12; ++rep, ++case_id) {
      Rng rng(seed ^
              (static_cast<uint64_t>(case_id) * 0x9e3779b97f4a7c15ull));
      int profile[kNumFields];
      for (int f = 0; f < kNumFields; ++f) {
        profile[f] = static_cast<int>(rng.Below(4));
      }
      const ExprPtr expr = RandomExpr(rng, 4, kNumFields);
      auto compiled = CompilePredicate(*expr);
      ASSERT_TRUE(compiled.ok()) << compiled.status().message();

      std::vector<Event> events;
      events.reserve(rows);
      for (int r = 0; r < rows; ++r) {
        Tuple tuple;
        tuple.reserve(kNumFields);
        for (int f = 0; f < kNumFields; ++f) {
          switch (profile[f]) {
            case 0:
              tuple.push_back(RandomInt(rng));
              break;
            case 1:
              tuple.push_back(RandomDouble(rng));
              break;
            case 2:
              tuple.push_back(Value(rng.Chance(1, 2)));
              break;
            default:  // mixed column: forces the AoS fallback per row
              tuple.push_back(RandomValue(rng));
              break;
          }
        }
        events.emplace_back(std::move(tuple),
                            static_cast<TimePoint>(r + 1));
      }

      std::ostringstream ctx;
      ctx << "width " << rows << " rep " << rep
          << "\n  expr: " << expr->ToString();
      CheckColumnar(*compiled.value(), *expr, events, ctx.str());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Every tier, off included, dispatches to a kernel table built at its own
// vector width; the cases above run the same executor on each of them.
TEST(SimdKernelsTest, EveryLevelHasAKernelTableOfItsWidth) {
  constexpr size_t kWidth[] = {8, 16, 32};  // off, sse2, avx2
  for (int l = 0; l <= static_cast<int>(simd::BestSimdLevel()); ++l) {
    const auto level = static_cast<simd::SimdLevel>(l);
    const simd::Kernels* kernels = simd::KernelsFor(level);
    ASSERT_NE(kernels, nullptr) << simd::SimdLevelName(level);
    EXPECT_EQ(kernels->vector_bytes, kWidth[l]) << simd::SimdLevelName(level);
  }
}

}  // namespace
}  // namespace tpstream
