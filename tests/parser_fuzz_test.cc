// Seeded fuzzer for the query frontend (src/query), under the `chaos`
// label so CI also runs it with ASan+UBSan. Inputs come from two
// sources:
//
//  * a generator that follows the Listing-1 grammar (FROM ... PARTITION
//    BY ... DEFINE ... PATTERN ... WITHIN ... RETURN ...): fields,
//    literals with and without units, operators, relations, duration
//    clauses and aggregates;
//  * byte mutations (insert, delete, flip) of valid queries.
//
// Properties: ParseQuery either accepts an input or fails with a
// kParseError Status, and never throws or crashes; every spec it accepts
// gives TPStreamOperator::Create either OK or kInvalidArgument. Each case
// draws from its own seed, and a failure prints the seed and the input.

#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "query/parser.h"

namespace tpstream {
namespace {

Schema FuzzSchema() {
  return Schema({Field{"car_id", ValueType::kInt},
                 Field{"speed", ValueType::kDouble},
                 Field{"accel", ValueType::kDouble},
                 Field{"braking", ValueType::kBool},
                 Field{"plate", ValueType::kString}});
}

/// Listing-1 queries. Each choice is well-formed most of the time and
/// off (an unknown name, a repeated symbol, a zero or unknown duration)
/// with a small probability, so a good share of the queries parses and
/// reaches the engine while every error path is still visited.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  std::string Query() {
    std::string q = "FROM CarSensors";
    if (Chance(50)) q += " CS";
    if (Chance(40)) q += " PARTITION BY " + Field();
    const int symbols = 2 + Below(3);
    q += " DEFINE ";
    for (int i = 0; i < symbols; ++i) {
      if (i > 0) q += ", ";
      q += (Off() ? Symbol(symbols) : std::string(1, 'A' + i)) + " AS " +
           Expr(3) + DurationClause();
    }
    q += " PATTERN ";
    const int constraints = 1 + Below(3);
    for (int c = 0; c < constraints; ++c) {
      if (c > 0) q += " AND ";
      const std::string a = Symbol(symbols);
      std::string b = Symbol(symbols);
      while (b == a && !Off()) b = Symbol(symbols);
      const int alternatives = 1 + Below(3);
      for (int i = 0; i < alternatives; ++i) {
        if (i > 0) q += "; ";
        const bool swap = Chance(30);
        q += (swap ? b : a) + " " + Pick(kRelations) + " " + (swap ? a : b);
      }
    }
    q += " WITHIN " + Duration();
    if (Chance(70)) {
      q += " RETURN ";
      const int items = 1 + Below(3);
      for (int i = 0; i < items; ++i) {
        if (i > 0) q += ", ";
        const std::string fn = Pick(kReturnFunctions);
        const bool bare = fn == "count" || fn == "start" || fn == "end" ||
                          fn == "duration";
        q += fn + "(" + Symbol(symbols) +
             (bare && !Off() ? "" : "." + Pick(kFields)) + ")";
        if (Chance(60)) q += " AS out" + std::to_string(i);
      }
    }
    return q;
  }

 private:
  static constexpr const char* kFields[] = {"car_id", "speed", "accel",
                                            "braking", "plate"};
  static constexpr const char* kRelations[] = {
      "before",        "after",    "meets",      "met-by", "overlaps",
      "overlapped-by", "starts",   "started-by", "during", "contains",
      "finishes",      "finished-by", "equals",  "equal"};
  static constexpr const char* kReturnFunctions[] = {
      "first", "last", "min",   "max", "avg",      "mean",
      "sum",   "count", "start", "end", "duration"};
  static constexpr const char* kTimeUnits[] = {
      "", "s", " seconds", " MINUTES", "min", " h", " hours", " ticks"};
  static constexpr const char* kLiteralUnits[] = {"", "mph", "m/s^2", "s"};
  static constexpr const char* kComparisons[] = {"<", "<=", ">", ">=",
                                                 "=", "==", "!="};
  static constexpr const char* kArithmetic[] = {"+", "-", "*", "/"};

  int Below(int n) { return static_cast<int>(rng_() % n); }
  bool Chance(int percent) { return Below(100) < percent; }
  bool Off() { return Chance(3); }
  template <size_t N>
  std::string Pick(const char* const (&options)[N]) {
    return options[Below(N)];
  }

  /// One of the defined symbols, or (when off) the next, undefined one.
  std::string Symbol(int symbols) {
    return std::string(1, 'A' + Below(symbols + (Off() ? 1 : 0)));
  }
  std::string Field() {
    return (Chance(30) ? "CS." : "") + (Off() ? "lane" : Pick(kFields));
  }
  /// An unsigned literal: small, decimal, any 64-bit value, or huge.
  std::string Number() {
    if (Off()) return Chance(50) ? std::to_string(rng_())
                                 : std::string(20 + Below(400), '9');
    return Chance(50) ? std::to_string(Below(200))
                      : std::to_string(Below(1000)) + "." +
                            std::to_string(Below(100));
  }
  std::string Duration() {
    if (Off()) {
      return Chance(30) ? "0" : Number() + (Chance(50) ? " h" : " parsecs");
    }
    return std::to_string(1 + Below(600)) + Pick(kTimeUnits);
  }
  std::string DurationClause() {
    switch (Below(6)) {
      case 0: return " AT LEAST " + Duration();
      case 1: return " AT MOST " + Duration();
      case 2: return " BETWEEN " + Duration() + " AND " + Duration();
      default: return "";
    }
  }
  std::string Operand(int depth) {
    switch (Below(depth > 0 ? 8 : 5)) {
      case 0: case 1: return Field();
      case 2: return Number() + Pick(kLiteralUnits);
      case 3: return Chance(50) ? "'ABC'" : (Chance(50) ? "true" : "false");
      case 4: return "-" + Field();
      case 5: return "(" + Operand(depth - 1) + ")";
      default:
        return Operand(depth - 1) + " " + Pick(kArithmetic) + " " +
               Operand(depth - 1);
    }
  }
  std::string Expr(int depth) {
    switch (Below(depth > 0 ? 6 : 3)) {
      case 0: return Field();
      case 1: case 2:
        return Operand(depth) + " " + Pick(kComparisons) + " " +
               Operand(depth);
      case 3: return "NOT " + Expr(depth - 1);
      default:
        return "(" + Expr(depth - 1) + (Chance(50) ? " AND " : " OR ") +
               Expr(depth - 1) + ")";
    }
  }

  std::mt19937_64 rng_;
};

/// Insert, delete or flip a few bytes of `text`.
std::string Mutate(std::string text, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < edits; ++i) {
    const size_t at = text.empty() ? 0 : rng() % text.size();
    switch (rng() % 3) {
      case 0:
        text.insert(text.begin() + at, static_cast<char>(rng()));
        break;
      case 1:
        if (!text.empty()) text.erase(at, 1 + rng() % 8);
        break;
      default:
        if (!text.empty()) text[at] ^= static_cast<char>(1u << (rng() % 8));
        break;
    }
  }
  return text;
}

/// Checks both properties for one input; returns whether it parsed.
bool CheckInput(const std::string& text, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << ", input:\n"
                                    << text);
  const auto parse = [&text]() -> Result<QuerySpec> {
    try {
      return query::ParseQuery(text, FuzzSchema());
    } catch (const std::exception& e) {
      return Status::Internal(std::string("ParseQuery threw: ") + e.what());
    }
  };
  Result<QuerySpec> spec = parse();
  if (!spec.ok()) {
    EXPECT_EQ(spec.status().code(), StatusCode::kParseError)
        << spec.status().ToString();
    return false;
  }
  std::vector<TPStreamOperator::Query> queries(1);
  queries[0].spec = std::move(spec).value();
  auto op = TPStreamOperator::Create(std::move(queries), {});
  if (!op.ok()) {
    EXPECT_EQ(op.status().code(), StatusCode::kInvalidArgument)
        << op.status().ToString();
  }
  return true;
}

constexpr uint64_t kBaseSeed = 20261021;
constexpr int kCases = 3000;

TEST(ParserFuzz, GrammarGeneratedQueriesParseOrFailCleanly) {
  int parsed = 0;
  for (int i = 0; i < kCases; ++i) {
    const uint64_t seed = kBaseSeed + i;
    parsed += CheckInput(QueryGenerator(seed).Query(), seed);
  }
  // The generator is meant to reach the engine, not only the error paths.
  EXPECT_GT(parsed, kCases / 10) << "too few generated queries parsed";
}

TEST(ParserFuzz, ByteMutationsOfValidQueriesParseOrFailCleanly) {
  std::vector<std::string> valid;
  for (uint64_t seed = kBaseSeed; valid.size() < 64; ++seed) {
    std::string q = QueryGenerator(seed).Query();
    if (query::ParseQuery(q, FuzzSchema()).ok()) valid.push_back(std::move(q));
  }
  for (int i = 0; i < kCases; ++i) {
    const uint64_t seed = kBaseSeed + kCases + i;
    CheckInput(Mutate(valid[i % valid.size()], seed), seed);
  }
}

}  // namespace
}  // namespace tpstream
