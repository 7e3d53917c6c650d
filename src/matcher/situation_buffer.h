#ifndef TPSTREAM_MATCHER_SITUATION_BUFFER_H_
#define TPSTREAM_MATCHER_SITUATION_BUFFER_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "algebra/range_bounds.h"
#include "ckpt/serde.h"
#include "common/situation.h"
#include "common/status.h"
#include "matcher/index_ranges.h"

namespace tpstream {

/// Array-backed ring buffer holding the finished situations of one stream
/// inside the evaluation window.
///
/// Derived situation streams have pairwise disjoint intervals
/// (Definition 8), so the buffer is simultaneously sorted by start and end
/// timestamp. Range queries on either endpoint therefore return one
/// contiguous index range, found with binary search (Section 5.2).
class SituationBuffer {
 public:
  /// The ring is allocated by the first Append, so an idle symbol (or
  /// partition) costs no situation storage.
  SituationBuffer() = default;

  void Append(const Situation& s) {
    assert(size_ == 0 || (s.ts >= Back().te));
    if (size_ == data_.size()) Grow();
    data_[(head_ + size_) % data_.size()] = s;
    ++size_;
  }

  /// Move-in variant for the allocation-free ingest path: the situation's
  /// payload tuple changes owner instead of being copied.
  void Append(Situation&& s) {
    assert(size_ == 0 || (s.ts >= Back().te));
    if (size_ == data_.size()) Grow();
    data_[(head_ + size_) % data_.size()] = std::move(s);
    ++size_;
  }

  /// Drops all situations with ts < min_ts (window purge, Algorithm 2).
  void PurgeBefore(TimePoint min_ts) {
    while (size_ > 0 && Front().ts < min_ts) {
      head_ = (head_ + 1) % data_.size();
      --size_;
    }
  }

  /// Drops the oldest buffered situation (overload shedding; the caller
  /// accounts for the eviction). No-op on an empty buffer. Indices from
  /// earlier range queries are invalidated; pointers to the remaining
  /// situations stay valid (no reallocation).
  void PopFront() {
    if (size_ == 0) return;
    // The slot keeps its payload capacity for reuse by a later Append
    // (allocation-free steady state); total retained storage stays
    // bounded by the ring's slot count.
    head_ = (head_ + 1) % data_.size();
    --size_;
  }

  /// Drops every buffered situation (Reset/Restore lifecycle). The ring
  /// storage is retained for reuse.
  void Clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Serializes the buffered situations in logical (timestamp) order.
  void Checkpoint(ckpt::Writer& w) const {
    const size_t cookie = w.BeginSection(ckpt::Tag::kSituationBuffer);
    w.U64(size_);
    for (size_t i = 0; i < size_; ++i) w.WriteSituation(At(i));
    w.EndSection(cookie);
  }

  /// Replaces the buffer contents with the checkpointed situations. The
  /// physical ring layout may differ from the checkpointing instance; all
  /// observable behaviour depends only on the logical sequence.
  Status Restore(ckpt::Reader& r) {
    const size_t end = r.BeginSection(ckpt::Tag::kSituationBuffer);
    Clear();
    const uint64_t n = r.U64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      Situation s = r.ReadSituation();
      if (!r.ok()) break;
      if (size_ > 0 && s.ts < Back().te) {
        r.Fail(Status::ParseError(
            "checkpoint: situation buffer not in timestamp order"));
        break;
      }
      Append(std::move(s));
    }
    return r.EndSection(end);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Situation& At(size_t logical_index) const {
    assert(logical_index < size_);
    return data_[(head_ + logical_index) % data_.size()];
  }
  const Situation& Front() const { return At(0); }
  const Situation& Back() const { return At(size_ - 1); }

  /// Logical index range of situations whose start timestamp falls into
  /// `range` (inclusive bounds).
  IndexRange FindTs(const TimeRange& range) const {
    return IndexRange{LowerBound(range.lo, /*by_ts=*/true),
                      UpperBound(range.hi, /*by_ts=*/true)};
  }

  /// Logical index range of situations whose end timestamp falls into
  /// `range`.
  IndexRange FindTe(const TimeRange& range) const {
    return IndexRange{LowerBound(range.lo, /*by_ts=*/false),
                      UpperBound(range.hi, /*by_ts=*/false)};
  }

  /// Index range of candidates satisfying both endpoint bounds.
  IndexRange Find(const RelationBounds& bounds) const {
    return FindTs(bounds.ts_range).Intersect(FindTe(bounds.te_range));
  }

 private:
  void Grow() {
    // Move, don't copy: payload tuples keep their heap buffers, so growth
    // costs one array allocation regardless of situation payload sizes.
    std::vector<Situation> bigger(std::max<size_t>(16, data_.size() * 2));
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(data_[(head_ + i) % data_.size()]);
    }
    data_ = std::move(bigger);
    head_ = 0;
  }

  TimePoint Key(size_t logical_index, bool by_ts) const {
    const Situation& s = At(logical_index);
    return by_ts ? s.ts : s.te;
  }

  // First logical index with key >= t.
  uint32_t LowerBound(TimePoint t, bool by_ts) const {
    size_t lo = 0;
    size_t hi = size_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (Key(mid, by_ts) < t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<uint32_t>(lo);
  }

  // First logical index with key > t.
  uint32_t UpperBound(TimePoint t, bool by_ts) const {
    if (t == kTimeMax) return static_cast<uint32_t>(size_);
    size_t lo = 0;
    size_t hi = size_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (Key(mid, by_ts) <= t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<uint32_t>(lo);
  }

  std::vector<Situation> data_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_SITUATION_BUFFER_H_
