#include "query/parser.h"

#include <unordered_map>

#include "algebra/interval_relation.h"
#include "query/lexer.h"

namespace tpstream {
namespace query {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Schema& schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  Result<QuerySpec> Parse();

 private:
  // --- token helpers -----------------------------------------------------
  const Token& Peek(int ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool ConsumeKeyword(const char* kw) {
    if (Peek().Is(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(const char* s) {
    if (Peek().IsSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (near offset " +
                              std::to_string(Peek().position) + ")");
  }

  // --- clause parsers ----------------------------------------------------
  Status ParseFrom();
  Status ParseDefine();
  Status ParsePattern();
  Status ParseWithin();
  Status ParseReturn();

  Result<Duration> ParseDuration();
  Result<ExprPtr> ParseExpr();
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  /// Resolves `name` or `prefix.name` to a schema field expression.
  Result<ExprPtr> ResolveField();
  Result<int> ResolveFieldIndex();

  int SymbolIndex(const std::string& name) const {
    auto it = symbols_.find(name);
    return it == symbols_.end() ? -1 : it->second;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const Schema& schema_;

  std::string stream_name_;
  std::string stream_alias_;
  std::unordered_map<std::string, int> symbols_;
  QuerySpec spec_;
};

bool IsDurationKeywordAhead(const Token& t) {
  return t.Is("at") || t.Is("between");
}

Result<QuerySpec> Parser::Parse() {
  if (Status s = ParseFrom(); !s.ok()) return s;
  if (Status s = ParseDefine(); !s.ok()) return s;
  if (Status s = ParsePattern(); !s.ok()) return s;
  if (Status s = ParseWithin(); !s.ok()) return s;
  if (Peek().Is("return")) {
    if (Status s = ParseReturn(); !s.ok()) return s;
  }
  if (Peek().type != TokenType::kEnd && !Peek().IsSymbol(";")) {
    return Error("unexpected trailing input");
  }
  spec_.input_schema = schema_;
  // Symbol names for the pattern were fixed during DEFINE. A spec the
  // grammar admits but Validate rejects (a zero window, an inverted
  // duration range) is a parse error of this query text too.
  if (Status s = spec_.Validate(); !s.ok()) {
    return Status::ParseError(s.message());
  }
  return std::move(spec_);
}

Status Parser::ParseFrom() {
  if (!ConsumeKeyword("from")) return Error("expected FROM");
  if (Peek().type != TokenType::kIdent) return Error("expected stream name");
  stream_name_ = Advance().text;
  // Optional alias (an identifier that is not the next clause keyword).
  if (Peek().type == TokenType::kIdent && !Peek().Is("define") &&
      !Peek().Is("partition")) {
    stream_alias_ = Advance().text;
  }
  if (ConsumeKeyword("partition")) {
    if (!ConsumeKeyword("by")) return Error("expected BY after PARTITION");
    auto field = ResolveFieldIndex();
    if (!field.ok()) return field.status();
    spec_.partition_field = field.value();
  }
  return Status::OK();
}

Status Parser::ParseDefine() {
  if (!ConsumeKeyword("define")) return Error("expected DEFINE");
  do {
    if (Peek().type != TokenType::kIdent) return Error("expected symbol name");
    const std::string name = Advance().text;
    if (symbols_.count(name) != 0) {
      return Error("duplicate situation symbol '" + name + "'");
    }
    if (!ConsumeKeyword("as")) return Error("expected AS");
    auto predicate = ParseExpr();
    if (!predicate.ok()) return predicate.status();

    DurationConstraint duration;
    while (IsDurationKeywordAhead(Peek())) {
      if (ConsumeKeyword("at")) {
        const bool least = ConsumeKeyword("least");
        if (!least && !ConsumeKeyword("most")) {
          return Error("expected LEAST or MOST after AT");
        }
        auto d = ParseDuration();
        if (!d.ok()) return d.status();
        if (least) {
          duration.min = d.value();
        } else {
          duration.max = d.value();
        }
      } else if (ConsumeKeyword("between")) {
        auto lo = ParseDuration();
        if (!lo.ok()) return lo.status();
        if (!ConsumeKeyword("and")) return Error("expected AND in BETWEEN");
        auto hi = ParseDuration();
        if (!hi.ok()) return hi.status();
        duration.min = lo.value();
        duration.max = hi.value();
      }
    }
    symbols_.emplace(name, static_cast<int>(spec_.definitions.size()));
    spec_.definitions.emplace_back(name, predicate.value(),
                                   std::vector<AggregateSpec>{}, duration);
  } while (ConsumeSymbol(","));
  return Status::OK();
}

Status Parser::ParsePattern() {
  if (!ConsumeKeyword("pattern")) return Error("expected PATTERN");
  std::vector<std::string> names;
  names.reserve(spec_.definitions.size());
  for (const SituationDefinition& def : spec_.definitions) {
    names.push_back(def.symbol);
  }
  spec_.pattern = TemporalPattern(names);

  do {
    // One temporal constraint: alternatives separated by ';', all on the
    // same unordered pair of symbols.
    int pair_a = -1;
    int pair_b = -1;
    do {
      if (Peek().type != TokenType::kIdent) {
        return Error("expected situation symbol in PATTERN");
      }
      const std::string lhs = Advance().text;
      // Relation name, possibly hyphenated (met-by, started-by, ...).
      if (Peek().type != TokenType::kIdent) {
        return Error("expected temporal relation name");
      }
      std::string rel_name = Advance().text;
      if (Peek().IsSymbol("-") && Peek(1).type == TokenType::kIdent) {
        ++pos_;
        rel_name += "-" + Advance().text;
      }
      const auto rel = RelationFromName(rel_name);
      if (!rel) return Error("unknown temporal relation '" + rel_name + "'");
      if (Peek().type != TokenType::kIdent) {
        return Error("expected situation symbol in PATTERN");
      }
      const std::string rhs = Advance().text;

      const int a = SymbolIndex(lhs);
      const int b = SymbolIndex(rhs);
      if (a < 0) return Error("undefined symbol '" + lhs + "'");
      if (b < 0) return Error("undefined symbol '" + rhs + "'");
      const int lo = std::min(a, b);
      const int hi = std::max(a, b);
      if (pair_a < 0) {
        pair_a = lo;
        pair_b = hi;
      } else if (pair_a != lo || pair_b != hi) {
        return Error(
            "alternatives of one constraint must relate the same pair of "
            "symbols");
      }
      if (Status s = spec_.pattern.AddRelation(a, *rel, b); !s.ok()) {
        return Error(s.message());
      }
    } while (ConsumeSymbol(";"));
  } while (ConsumeKeyword("and"));
  return Status::OK();
}

Status Parser::ParseWithin() {
  if (!ConsumeKeyword("within")) return Error("expected WITHIN");
  auto d = ParseDuration();
  if (!d.ok()) return d.status();
  spec_.window = d.value();
  return Status::OK();
}

Status Parser::ParseReturn() {
  if (!ConsumeKeyword("return")) return Error("expected RETURN");
  do {
    if (Peek().type != TokenType::kIdent) {
      return Error("expected aggregate function in RETURN");
    }
    const std::string agg_name = Advance().text;
    // Interval accessors: start(S), end(S), duration(S).
    ReturnItem::Source source = ReturnItem::Source::kAggregate;
    Token fn = tokens_[pos_ - 1];
    if (fn.Is("start")) source = ReturnItem::Source::kStartTime;
    if (fn.Is("end")) source = ReturnItem::Source::kEndTime;
    if (fn.Is("duration")) source = ReturnItem::Source::kDuration;
    if (source != ReturnItem::Source::kAggregate) {
      if (!ConsumeSymbol("(")) return Error("expected '('");
      if (Peek().type != TokenType::kIdent) return Error("expected symbol");
      const std::string sym_name = Advance().text;
      const int symbol = SymbolIndex(sym_name);
      if (symbol < 0) return Error("undefined symbol '" + sym_name + "'");
      if (!ConsumeSymbol(")")) return Error("expected ')'");
      std::string out_name = agg_name + "_" + sym_name;
      if (ConsumeKeyword("as")) {
        if (Peek().type != TokenType::kIdent) return Error("expected name");
        out_name = Advance().text;
      }
      ReturnItem item;
      item.symbol = symbol;
      item.source = source;
      item.name = out_name;
      spec_.returns.push_back(std::move(item));
      continue;
    }
    const auto kind = AggKindFromName(agg_name);
    if (!kind) return Error("unknown aggregate '" + agg_name + "'");
    if (!ConsumeSymbol("(")) return Error("expected '('");
    if (Peek().type != TokenType::kIdent) return Error("expected symbol");
    const std::string sym_name = Advance().text;
    const int symbol = SymbolIndex(sym_name);
    if (symbol < 0) return Error("undefined symbol '" + sym_name + "'");

    int field = -1;
    std::string field_name;
    if (ConsumeSymbol(".")) {
      if (Peek().type != TokenType::kIdent) return Error("expected field");
      field_name = Advance().text;
      field = schema_.IndexOf(field_name);
      if (field < 0) return Error("unknown field '" + field_name + "'");
    } else if (*kind != AggKind::kCount) {
      return Error("aggregate '" + agg_name + "' requires symbol.field");
    }
    if (!ConsumeSymbol(")")) return Error("expected ')'");

    std::string out_name = agg_name + "_" + sym_name +
                           (field_name.empty() ? "" : "_" + field_name);
    if (ConsumeKeyword("as")) {
      if (Peek().type != TokenType::kIdent) return Error("expected name");
      out_name = Advance().text;
    }

    // Find or add the aggregate slot in the symbol's definition.
    auto& aggs = spec_.definitions[symbol].aggregates;
    int agg_index = -1;
    for (int i = 0; i < static_cast<int>(aggs.size()); ++i) {
      if (aggs[i].kind == *kind && aggs[i].field == field) {
        agg_index = i;
        break;
      }
    }
    if (agg_index < 0) {
      agg_index = static_cast<int>(aggs.size());
      aggs.push_back(AggregateSpec{*kind, field, out_name});
    }
    ReturnItem item;
    item.symbol = symbol;
    item.agg_index = agg_index;
    item.name = out_name;
    spec_.returns.push_back(std::move(item));
  } while (ConsumeSymbol(","));
  return Status::OK();
}

Result<Duration> Parser::ParseDuration() {
  if (Peek().type != TokenType::kNumber) {
    return Error("expected duration literal");
  }
  const Token t = Advance();
  std::string unit = t.unit;
  if (unit.empty() && Peek().type == TokenType::kIdent) {
    // Detached unit word ("5 MINUTES").
    const Token& next = Peek();
    if (next.Is("s") || next.Is("sec") || next.Is("secs") ||
        next.Is("second") || next.Is("seconds") || next.Is("min") ||
        next.Is("mins") || next.Is("minute") || next.Is("minutes") ||
        next.Is("h") || next.Is("hour") || next.Is("hours") ||
        next.Is("tick") || next.Is("ticks")) {
      unit = Advance().text;
    }
  }
  for (char& c : unit) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  double scale = 1.0;
  if (unit.empty() || unit == "s" || unit == "sec" || unit == "secs" ||
      unit == "second" || unit == "seconds" || unit == "tick" ||
      unit == "ticks") {
    scale = 1.0;
  } else if (unit == "min" || unit == "mins" || unit == "minute" ||
             unit == "minutes") {
    scale = 60.0;
  } else if (unit == "h" || unit == "hour" || unit == "hours") {
    scale = 3600.0;
  } else {
    return Error("unknown time unit '" + unit + "'");
  }
  // Casting a double outside int64 is undefined behaviour.
  const double ticks = t.number * scale;
  if (ticks >= 9223372036854775808.0) return Error("duration out of range");
  return static_cast<Duration>(ticks);
}

Result<ExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<ExprPtr> Parser::ParseOr() {
  auto lhs = ParseAnd();
  if (!lhs.ok()) return lhs;
  while (ConsumeKeyword("or")) {
    auto rhs = ParseAnd();
    if (!rhs.ok()) return rhs;
    lhs = Or(lhs.value(), rhs.value());
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  auto lhs = ParseNot();
  if (!lhs.ok()) return lhs;
  while (Peek().Is("and") && !IsDurationKeywordAhead(Peek(1))) {
    ++pos_;
    auto rhs = ParseNot();
    if (!rhs.ok()) return rhs;
    lhs = And(lhs.value(), rhs.value());
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  if (ConsumeKeyword("not")) {
    auto operand = ParseNot();
    if (!operand.ok()) return operand;
    return ExprPtr(Not(operand.value()));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  auto lhs = ParseAdditive();
  if (!lhs.ok()) return lhs;
  BinaryOp op;
  if (ConsumeSymbol("<")) {
    op = BinaryOp::kLt;
  } else if (ConsumeSymbol("<=")) {
    op = BinaryOp::kLe;
  } else if (ConsumeSymbol(">")) {
    op = BinaryOp::kGt;
  } else if (ConsumeSymbol(">=")) {
    op = BinaryOp::kGe;
  } else if (ConsumeSymbol("=") || ConsumeSymbol("==")) {
    op = BinaryOp::kEq;
  } else if (ConsumeSymbol("!=")) {
    op = BinaryOp::kNe;
  } else {
    return lhs;
  }
  auto rhs = ParseAdditive();
  if (!rhs.ok()) return rhs;
  return ExprPtr(Binary(op, lhs.value(), rhs.value()));
}

Result<ExprPtr> Parser::ParseAdditive() {
  auto lhs = ParseMultiplicative();
  if (!lhs.ok()) return lhs;
  while (true) {
    BinaryOp op;
    if (ConsumeSymbol("+")) {
      op = BinaryOp::kAdd;
    } else if (ConsumeSymbol("-")) {
      op = BinaryOp::kSub;
    } else {
      return lhs;
    }
    auto rhs = ParseMultiplicative();
    if (!rhs.ok()) return rhs;
    lhs = Binary(op, lhs.value(), rhs.value());
  }
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  auto lhs = ParseUnary();
  if (!lhs.ok()) return lhs;
  while (true) {
    BinaryOp op;
    if (ConsumeSymbol("*")) {
      op = BinaryOp::kMul;
    } else if (ConsumeSymbol("/")) {
      op = BinaryOp::kDiv;
    } else {
      return lhs;
    }
    auto rhs = ParseUnary();
    if (!rhs.ok()) return rhs;
    lhs = Binary(op, lhs.value(), rhs.value());
  }
}

Result<ExprPtr> Parser::ParseUnary() {
  if (ConsumeSymbol("-")) {
    auto operand = ParseUnary();
    if (!operand.ok()) return operand;
    return ExprPtr(Negate(operand.value()));
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  if (t.type == TokenType::kNumber) {
    Advance();
    // Physical units on literals ("8m/s^2", "70mph") are documentation
    // only; the value is used as written. Integer-shaped literals whose
    // strtod value falls outside int64 (the cast would be undefined)
    // stay double, like any other value only double can hold.
    if (t.is_int && t.number >= -9223372036854775808.0 &&
        t.number < 9223372036854775808.0) {
      return ExprPtr(Literal(static_cast<int64_t>(t.number)));
    }
    return ExprPtr(Literal(t.number));
  }
  if (t.type == TokenType::kString) {
    Advance();
    return ExprPtr(Literal(Value(t.text)));
  }
  if (t.Is("true")) {
    Advance();
    return ExprPtr(Literal(true));
  }
  if (t.Is("false")) {
    Advance();
    return ExprPtr(Literal(false));
  }
  if (ConsumeSymbol("(")) {
    auto inner = ParseExpr();
    if (!inner.ok()) return inner;
    if (!ConsumeSymbol(")")) return Error("expected ')'");
    return inner;
  }
  if (t.type == TokenType::kIdent) {
    return ResolveField();
  }
  return Error("expected expression");
}

Result<ExprPtr> Parser::ResolveField() {
  auto index = ResolveFieldIndex();
  if (!index.ok()) return index.status();
  return ExprPtr(
      FieldRef(index.value(), schema_.field(index.value()).name));
}

Result<int> Parser::ResolveFieldIndex() {
  if (Peek().type != TokenType::kIdent) return Error("expected field name");
  std::string name = Advance().text;
  if (ConsumeSymbol(".")) {
    // Qualified reference: prefix must be the stream name or alias.
    if (name != stream_name_ && name != stream_alias_) {
      return Error("unknown stream qualifier '" + name + "'");
    }
    if (Peek().type != TokenType::kIdent) return Error("expected field name");
    name = Advance().text;
  }
  const int index = schema_.IndexOf(name);
  if (index < 0) return Error("unknown field '" + name + "'");
  return index;
}

}  // namespace

Result<QuerySpec> ParseQuery(const std::string& text, const Schema& schema) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), schema);
  return parser.Parse();
}

}  // namespace query
}  // namespace tpstream
