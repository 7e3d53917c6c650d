#ifndef TPSTREAM_E2EBENCH_WORKLOADS_H_
#define TPSTREAM_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/schema.h"

namespace e2e {

using tpstream::Event;
using tpstream::Schema;
using tpstream::TimePoint;
using tpstream::Value;

/// The pre-generated input of one run, stored compactly (a few bytes per
/// field instead of one 40-byte Value) so a run of several million events
/// stays small. Events are ordered by `t`; every key reports at most once
/// per tick, and within a tick keys ascend, which is what makes the
/// (key, detection time) -> trigger event lookup a binary search.
struct Input {
  Schema schema;
  int key_field = 0;
  bool string_keys = false;  // key ids render as "h%07u" strings
  int num_fields = 0;

  std::vector<TimePoint> t;
  std::vector<uint32_t> key;
  std::vector<float> cols;  // num_fields per event; the key slot is unused
  /// tick_first[t - t.front()] is the first event of tick t; one extra
  /// entry closes the last tick.
  std::vector<uint32_t> tick_first;
  uint32_t num_keys = 0;

  size_t size() const { return t.size(); }

  /// Writes event `i` into `*out`, reusing its payload storage: a payload
  /// of the right width is overwritten in place without allocating.
  void Materialize(size_t i, Event* out) const;

  /// Key id of an alert's key column (the first RETURN item).
  uint32_t KeyOf(const Value& v) const;

  /// Index of the event of `key` at time `t`, or -1.
  int64_t Find(uint32_t key, TimePoint t) const;

  /// Appends one event; `row` holds num_fields values (key slot ignored).
  void Add(TimePoint time, uint32_t key_id, const float* row);
  /// Builds tick_first once every event is added.
  void Seal();
};

/// One benchmark workload: its input, its query text and whether the
/// durable log sits in front of the engine. See README.md for why each
/// exists.
struct Workload {
  std::string name;
  bool durable = false;  // EventLog + RecoveryManager on the push path
  size_t batch = 256;    // producer chunk and ParallelTPStream batch size
  int64_t checkpoint_every = 0;  // events between checkpoints (durable only)
  // Fixed open-loop rates in events/s (see README.md, "Rates"); never
  // computed during a run.
  double lo_eps = 0;
  double hi_eps = 0;
  std::string query;
  Input input;
};

/// Generates `events` events of workload `name` from `seed`. Returns false
/// for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, size_t events,
                  Workload* out);

}  // namespace e2e

#endif  // TPSTREAM_E2EBENCH_WORKLOADS_H_
