#ifndef TPSTREAM_TESTS_FAULT_INJECTION_H_
#define TPSTREAM_TESTS_FAULT_INJECTION_H_

// Deterministic, seedable fault-injection harness for the chaos suite
// (tests/chaos_test.cc). Every generator takes an explicit seed and is a
// pure function of it, so a failing configuration reproduces exactly from
// the SCOPED_TRACE line.
//
// Faults covered:
//  * malformed CSV rows interleaved into well-formed input (MalformedCsv)
//  * open-situation floods that grow matcher state (FloodWorkload)
//  * stalled consumers (StallingSink)
//  * allocation failures at a chosen point (ScopedAllocFailure; honored
//    by the counting allocator a test binary installs — see
//    tests/chaos_alloc.h)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/event.h"

namespace tpstream {
namespace testing {

// ---------------------------------------------------------------------------
// Malformed CSV generation
// ---------------------------------------------------------------------------

struct MalformedCsvInput {
  /// Full CSV text: header plus `rows` data rows.
  std::string text;
  /// 1-based data row numbers that are malformed (matches
  /// CsvEventReader::rows_read() / DeadLetterItem::row).
  std::vector<int64_t> bad_rows;
  /// Timestamps of the well-formed rows, in file order (the expected
  /// delivery under kSkipAndQuarantine).
  std::vector<TimePoint> good_timestamps;
};

/// CSV input over schema {key:int, flag:bool} with timestamp column
/// first. Each data row is independently malformed with probability
/// `bad_fraction`, drawing uniformly from four corruption shapes: a bad
/// timestamp, a bad int cell, an unterminated quote, and a missing
/// timestamp column.
inline MalformedCsvInput MalformedCsv(uint64_t seed, int rows,
                                      double bad_fraction) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution corrupt(bad_fraction);
  std::uniform_int_distribution<int> shape(0, 3);

  MalformedCsvInput out;
  out.text = "timestamp,key,flag\n";
  for (int i = 1; i <= rows; ++i) {
    const TimePoint t = i;
    const int64_t key = static_cast<int64_t>(rng() % 7);
    if (corrupt(rng)) {
      out.bad_rows.push_back(i);
      switch (shape(rng)) {
        case 0:  // non-numeric timestamp
          out.text += "t" + std::to_string(t) + "," + std::to_string(key) +
                      ",true\n";
          break;
        case 1:  // bad int in a typed column
          out.text += std::to_string(t) + ",12x,true\n";
          break;
        case 2:  // unterminated quoted field
          out.text += std::to_string(t) + ",\"" + std::to_string(key) +
                      ",true\n";
          break;
        default:  // row too short: timestamp column missing entirely
          out.text += "\n,\n";  // blank line is skipped; ",\n" has no ts
          // The blank first line is ignored by the reader, so only one
          // bad row was actually added.
          break;
      }
    } else {
      out.text += std::to_string(t) + "," + std::to_string(key) + "," +
                  (rng() % 2 == 0 ? "true" : "false") + "\n";
      out.good_timestamps.push_back(t);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Open-situation floods
// ---------------------------------------------------------------------------

/// Adversarial workload for the {key:int, flag:bool} two-symbol query
/// (A = flag, B = !flag): every key flips its flag every tick, so each
/// tick finishes one situation per key — with a window wider than the
/// horizon, matcher buffers grow linearly unless capped.
inline std::vector<Event> FloodWorkload(int keys, TimePoint horizon,
                                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<bool> value(keys, false);
  for (int k = 0; k < keys; ++k) value[k] = rng() % 2 == 0;
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(keys) * static_cast<size_t>(horizon));
  for (TimePoint t = 1; t <= horizon; ++t) {
    for (int k = 0; k < keys; ++k) {
      value[k] = !value[k];
      events.push_back(
          Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// Stalled consumers
// ---------------------------------------------------------------------------

/// Output callback wrapper that busy-sleeps when `should_stall` says so,
/// simulating a slow downstream consumer. The stall can be switched off
/// at runtime (the recovery phase of a chaos scenario). Thread-safe: the
/// wrapped sink is invoked as-is, the flag is atomic.
class StallingSink {
 public:
  StallingSink(std::function<void(const Event&)> inner,
               std::function<bool(const Event&)> should_stall,
               std::chrono::microseconds stall)
      : inner_(std::move(inner)),
        should_stall_(std::move(should_stall)),
        stall_(stall) {}

  void operator()(const Event& e) {
    if (armed_.load(std::memory_order_relaxed) && should_stall_(e)) {
      std::this_thread::sleep_for(stall_);
    }
    if (inner_) inner_(e);
  }

  void Disarm() { armed_.store(false, std::memory_order_relaxed); }

 private:
  std::function<void(const Event&)> inner_;
  std::function<bool(const Event&)> should_stall_;
  std::chrono::microseconds stall_;
  std::atomic<bool> armed_{true};
};

// ---------------------------------------------------------------------------
// Allocation failures
// ---------------------------------------------------------------------------

/// Countdown honored by the chaos binary's counting allocator (see
/// tests/chaos_alloc.h): when positive, each allocation on any thread
/// decrements it and the allocation that reaches zero throws
/// std::bad_alloc. 0 = disarmed.
inline std::atomic<int64_t> g_fail_alloc_countdown{0};

/// Arms an allocation failure for the enclosing scope: the `after`-th
/// allocation (1 = the very next one) fails with std::bad_alloc.
/// Disarms on destruction (also when the failure already fired).
class ScopedAllocFailure {
 public:
  explicit ScopedAllocFailure(int64_t after = 1) {
    g_fail_alloc_countdown.store(after, std::memory_order_relaxed);
  }
  ~ScopedAllocFailure() {
    g_fail_alloc_countdown.store(0, std::memory_order_relaxed);
  }
};

}  // namespace testing
}  // namespace tpstream

#endif  // TPSTREAM_TESTS_FAULT_INJECTION_H_
