#ifndef TPSTREAM_EXPR_AGGREGATE_H_
#define TPSTREAM_EXPR_AGGREGATE_H_

#include <optional>
#include <string>
#include <vector>

#include "ckpt/serde.h"
#include "common/event.h"
#include "common/status.h"
#include "common/value.h"

namespace tpstream {

/// Incremental aggregate functions applied to the event subsequence of a
/// situation (gamma in Definition 6) and referenced in RETURN clauses.
enum class AggKind : uint8_t {
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  kFirst,
  kLast,
};

const char* AggKindName(AggKind kind);
std::optional<AggKind> AggKindFromName(const std::string& name);

/// One aggregate to compute: `kind` over input field `field` (ignored for
/// kCount). `name` labels the resulting situation-payload attribute.
struct AggregateSpec {
  AggKind kind = AggKind::kCount;
  int field = -1;
  std::string name;
};

/// Incremental state of a single aggregate. Plain tagged struct; no
/// virtual dispatch on the per-event path.
class AggregateState {
 public:
  explicit AggregateState(const AggregateSpec& spec) : spec_(spec) {}

  /// Starts a new situation with its first event's payload.
  void Init(const Tuple& tuple);

  /// Back to the constructed state: no running aggregate.
  void Reset() {
    count_ = 0;
    sum_ = 0.0;
    value_ = Value::Null();
  }

  /// Folds one more event into the running aggregate.
  void Update(const Tuple& tuple);

  /// Current aggregate value (valid after Init).
  Value Result() const;

  /// Serializes the running state (count / sum / extremum value); the
  /// spec is configuration and comes from the restoring instance.
  void Checkpoint(ckpt::Writer& w) const {
    w.I64(count_);
    w.F64(sum_);
    w.WriteValue(value_);
  }
  void Restore(ckpt::Reader& r) {
    count_ = r.I64();
    sum_ = r.F64();
    value_ = r.ReadValue();
  }

 private:
  Value Input(const Tuple& tuple) const {
    if (spec_.field < 0 || spec_.field >= static_cast<int>(tuple.size())) {
      return Value::Null();
    }
    return tuple[spec_.field];
  }

  AggregateSpec spec_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  Value value_;  // min / max / first / last, depending on kind
};

/// The aggregate battery of one situation definition: computes the payload
/// tuple of derived situations.
class AggregatorSet {
 public:
  explicit AggregatorSet(std::vector<AggregateSpec> specs);

  void Init(const Tuple& tuple);
  void Update(const Tuple& tuple);
  void Reset();

  /// Snapshot of all aggregate values, in spec order.
  Tuple Snapshot() const;

  void Checkpoint(ckpt::Writer& w) const;
  Status Restore(ckpt::Reader& r);

  const std::vector<AggregateSpec>& specs() const { return specs_; }

 private:
  std::vector<AggregateSpec> specs_;
  std::vector<AggregateState> states_;
};

}  // namespace tpstream

#endif  // TPSTREAM_EXPR_AGGREGATE_H_
