#include "expr/aggregate.h"

namespace tpstream {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kFirst:
      return "first";
    case AggKind::kLast:
      return "last";
  }
  return "?";
}

std::optional<AggKind> AggKindFromName(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
  }
  if (lower == "count") return AggKind::kCount;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "min") return AggKind::kMin;
  if (lower == "max") return AggKind::kMax;
  if (lower == "avg" || lower == "mean") return AggKind::kAvg;
  if (lower == "first") return AggKind::kFirst;
  if (lower == "last") return AggKind::kLast;
  return std::nullopt;
}

void AggregateState::Init(const Tuple& tuple) {
  Reset();
  Update(tuple);
}

void AggregateState::Update(const Tuple& tuple) {
  ++count_;
  switch (spec_.kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      sum_ += Input(tuple).ToDouble();
      break;
    case AggKind::kMin: {
      const Value v = Input(tuple);
      if (value_.is_null() || Value::Compare(v, value_) == -1) value_ = v;
      break;
    }
    case AggKind::kMax: {
      const Value v = Input(tuple);
      if (value_.is_null() || Value::Compare(v, value_) == 1) value_ = v;
      break;
    }
    case AggKind::kFirst:
      if (count_ == 1) value_ = Input(tuple);
      break;
    case AggKind::kLast:
      value_ = Input(tuple);
      break;
  }
}

Value AggregateState::Result() const {
  switch (spec_.kind) {
    case AggKind::kCount:
      return Value(count_);
    case AggKind::kSum:
      return Value(sum_);
    case AggKind::kAvg:
      return count_ == 0 ? Value::Null() : Value(sum_ / count_);
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kFirst:
    case AggKind::kLast:
      return value_;
  }
  return Value::Null();
}

AggregatorSet::AggregatorSet(std::vector<AggregateSpec> specs)
    : specs_(std::move(specs)) {
  states_.reserve(specs_.size());
  for (const AggregateSpec& spec : specs_) {
    states_.emplace_back(spec);
  }
}

void AggregatorSet::Init(const Tuple& tuple) {
  for (AggregateState& state : states_) state.Init(tuple);
}

void AggregatorSet::Update(const Tuple& tuple) {
  for (AggregateState& state : states_) state.Update(tuple);
}

void AggregatorSet::Reset() {
  for (AggregateState& state : states_) state.Reset();
}

void AggregatorSet::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kAggregatorSet);
  w.U32(static_cast<uint32_t>(states_.size()));
  for (const AggregateState& state : states_) state.Checkpoint(w);
  w.EndSection(cookie);
}

Status AggregatorSet::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kAggregatorSet);
  const uint32_t n = r.U32();
  if (r.ok() && n != states_.size()) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: aggregate count mismatch (definition changed?)"));
    return r.status();
  }
  for (AggregateState& state : states_) state.Restore(r);
  return r.EndSection(end);
}

Tuple AggregatorSet::Snapshot() const {
  Tuple out;
  out.reserve(states_.size());
  for (const AggregateState& state : states_) {
    out.push_back(state.Result());
  }
  return out;
}

}  // namespace tpstream
