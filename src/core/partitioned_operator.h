#ifndef TPSTREAM_CORE_PARTITIONED_OPERATOR_H_
#define TPSTREAM_CORE_PARTITIONED_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/operator.h"

namespace tpstream {

/// PARTITION BY support (Listing 1): every partition (e.g. every car) is
/// evaluated independently, exactly as by its own TPStreamOperator.
///
/// The query half is built once per stream, with its first partition:
/// one Deriver::Program (definitions, compiled predicates, scratch) and
/// one MatchEngine::Program (matcher program, detection analysis, initial
/// plan, metric handles). A partition holds only its stream state — a
/// Deriver's slots and a MatchEngine's buffers, statistics and adaptive
/// state — so a new key costs no plan DP and no copy of the query.
/// Int keys are routed by value, string keys by their text without
/// allocating, other types by Value::ToString().
class PartitionedTPStream {
 public:
  PartitionedTPStream(QuerySpec spec, TPStreamOperator::Options options,
                      TPStreamOperator::OutputCallback output);
  /// As above, but sharing the initial plan with `plan_source` (a stream
  /// over the same query and options, possibly driven by another thread):
  /// the workers of a ParallelTPStream run the plan DP once in total.
  PartitionedTPStream(QuerySpec spec, TPStreamOperator::Options options,
                      TPStreamOperator::OutputCallback output,
                      const PartitionedTPStream* plan_source);
  PartitionedTPStream(const PartitionedTPStream&) = delete;
  PartitionedTPStream& operator=(const PartitionedTPStream&) = delete;

  void Push(const Event& event);

  /// Batched ingestion, equivalent to one Push() per event
  /// (differential-tested): routes the whole batch, then evaluates the
  /// DEFINE predicates once over the mixed-key span (columnarly with
  /// compiled predicates, see Deriver::PrepareBatch) and feeds each
  /// event to its key's state in order.
  void PushBatch(std::span<const Event> events);

  /// Synchronization point (lifecycle contract): flushes every partition
  /// operator (see TPStreamOperator::Flush). Idempotent; a no-op before
  /// the first Push; the stream may continue afterwards.
  void Flush();

  /// Returns the stream to its freshly-constructed state: every partition
  /// is discarded (new keys re-create them) and the event/match counts
  /// rewind. The query programs, configuration and observability
  /// counters survive.
  void Reset();

  /// Serializes all partitions (sorted by key, so identical state always
  /// produces identical bytes), each in the operator checkpoint layout,
  /// stamped with the event-log offset (= num_events()).
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on a partitioned stream with the same
  /// query and options, re-creating each partition. Keys must be strictly
  /// ascending, as the writer emits them; a repeated or out-of-order key
  /// is a ParseError. On success, `*offset` (when non-null) receives the
  /// event-log offset to replay from. On error the stream must be Reset()
  /// or discarded.
  Status Restore(ckpt::Reader& r, uint64_t* offset = nullptr);

  /// Incremental checkpoints (Durability contract): between full
  /// snapshots, only the partitions touched since the last successful
  /// checkpoint are serialized (a kPartitionedDelta section; dirty
  /// tracking piggybacks on the Push routing path). Deltas only make
  /// sense relative to a base snapshot, so a delta is valid iff
  /// CanCheckpointIncremental() — false on a fresh or Reset() stream
  /// until the next full checkpoint/restore re-establishes a baseline.
  /// The caller (log::RecoveryManager) owns the chain bookkeeping:
  /// after the bytes are durably persisted it calls
  /// MarkCheckpointBaseline() to clear the dirty set; on persist
  /// failure it simply does not, so the next delta re-covers the same
  /// partitions and nothing is lost.
  bool CanCheckpointIncremental() const { return incremental_valid_; }
  void CheckpointIncremental(ckpt::Writer& w) const;
  /// Applies a delta on top of the current state (a restored base full
  /// snapshot plus any earlier deltas of the same chain): partitions in
  /// the delta are replaced or created, all others keep their state. Key
  /// order is validated as in Restore().
  Status RestoreIncremental(ckpt::Reader& r, uint64_t* offset = nullptr);
  /// Declares the current state the persisted baseline: clears the
  /// dirty set and enables incremental checkpoints.
  void MarkCheckpointBaseline();

  size_t num_partitions() const {
    return int_partitions_.size() + string_partitions_.size();
  }
  int64_t num_matches() const { return num_matches_; }
  int64_t num_events() const { return num_events_; }
  size_t BufferedCount() const;

 private:
  /// One key's stream state. The engine reads ongoing aggregates from the
  /// deriver next to it, so a partition never moves (map nodes are
  /// stable).
  struct Partition {
    Partition(std::shared_ptr<Deriver::Program> derive,
              std::shared_ptr<MatchEngine::Program> match)
        : deriver(std::move(derive)), engine(std::move(match), &deriver) {}
    Partition(const Partition&) = delete;
    Partition& operator=(const Partition&) = delete;

    Deriver deriver;
    MatchEngine engine;
    bool dirty = false;  // touched since the last checkpoint baseline
  };

  // Heterogeneous lookup: a string key is found by its std::string_view.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using IntMap = std::unordered_map<int64_t, Partition>;
  using StringMap =
      std::unordered_map<std::string, Partition, StringHash, std::equal_to<>>;
  using IntEntry = IntMap::value_type;
  using StringEntry = StringMap::value_type;

  /// The entry of `key`, its partition created on first use.
  template <typename Map, typename Key>
  typename Map::value_type& Find(Map& map, const Key& key);
  /// Find(), marking the partition dirty for the next delta.
  template <typename Map, typename Key>
  Partition& Touch(Map& map, std::vector<typename Map::value_type*>& dirty,
                   const Key& key);
  Partition& Route(const Event& event);
  /// Derives and matches one routed event on its partition's state.
  void Step(Partition& partition, const Event& event);
  void BuildPrograms();

  void Write(ckpt::Writer& w, ckpt::Tag tag,
             std::vector<const IntEntry*> ints,
             std::vector<const StringEntry*> strings) const;
  Status Read(ckpt::Reader& r, ckpt::Tag tag, uint64_t* offset);

  QuerySpec spec_;
  TPStreamOperator::Options options_;
  TPStreamOperator::OutputCallback output_;
  // Built with the first partition (null before).
  std::shared_ptr<Deriver::Program> derive_program_;
  std::shared_ptr<MatchEngine::Program> match_program_;
  std::shared_ptr<MatchEngine::Program::InitialPlan> initial_plan_;
  int64_t num_matches_ = 0;
  int64_t num_events_ = 0;

  // Observability handles (null when options.metrics is null). The
  // programs record into the same registry, so the per-component
  // counters aggregate across partitions.
  obs::Counter* events_ctr_ = nullptr;
  obs::Gauge* partitions_gauge_ = nullptr;

  IntMap int_partitions_;
  StringMap string_partitions_;
  // PushBatch scratch: the partition of each batch event.
  std::vector<Partition*> routes_;

  // Partitions touched since the last MarkCheckpointBaseline() (those
  // with the dirty bit set); the payload of the next incremental
  // checkpoint.
  std::vector<IntEntry*> dirty_int_;
  std::vector<StringEntry*> dirty_string_;
  bool incremental_valid_ = false;
};

}  // namespace tpstream

#endif  // TPSTREAM_CORE_PARTITIONED_OPERATOR_H_
