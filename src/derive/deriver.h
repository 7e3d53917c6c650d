#ifndef TPSTREAM_DERIVE_DERIVER_H_
#define TPSTREAM_DERIVE_DERIVER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/serde.h"
#include "common/event.h"
#include "common/situation.h"
#include "common/status.h"
#include "derive/definition.h"
#include "expr/bytecode.h"
#include "obs/metrics.h"

namespace tpstream {

/// Tuning knobs for the deriver's predicate-evaluation stage.
struct DeriveOptions {
  /// Compile DEFINE predicates to branch-free register bytecode
  /// (expr/bytecode.h) and evaluate them columnarly over the event
  /// batches a caller announces via PrepareBatch(). Single events —
  /// Process() without an announced batch, or a batch walked out of
  /// order — always use the tree interpreter, which stays the semantic
  /// oracle (the two are differentially fuzzed against each other; see
  /// docs/architecture.md, "Compiled predicate path"). On by default;
  /// false is the interpreter-only ablation. Observable behaviour —
  /// situations, counters, metrics — is identical either way; a
  /// predicate that fails to compile silently keeps the interpreter.
  bool compiled_predicates = true;

  /// SIMD tier for columnar batch evaluation: "off", "sse2", "avx2" or
  /// "native" (best the machine supports). Empty defers to the
  /// TPSTREAM_SIMD environment variable, then the machine default.
  /// Requests above the machine's capability clamp down; unparsable
  /// values fall back to the default. Only meaningful with
  /// `compiled_predicates` — result bits are identical at every level.
  std::string simd;
};

/// The deriver component (Algorithm 1): consumes a point event stream and
/// incrementally derives one situation stream per definition.
///
/// In low-latency mode (`announce_starts`), a situation is additionally
/// announced as *started* as soon as its eventual duration is guaranteed
/// to satisfy the minimum duration constraint (Section 5.3.2):
///  - no constraints: announced with its first event;
///  - minimum only: announcement deferred to the deferred start ts̄, the
///    first event at which `t + 1 - ts >= min` holds (event timestamps are
///    strictly increasing, so the end timestamp will be at least t + 1);
///  - any maximum: never announced; such situations take part in matching
///    only once finished (and the constraint is validated then).
///
/// The deriver holds only stream state: one open-situation slot per
/// definition. The definitions, their compiled programs, the metric
/// handles and all per-event scratch form the query's Program, which the
/// derivers of every PARTITION BY key share.
class Deriver {
 public:
  /// Situations started / finished while processing one event.
  struct Update {
    std::vector<SymbolSituation> started;
    std::vector<SymbolSituation> finished;

    bool empty() const { return started.empty() && finished.empty(); }
  };

  class Program;

  /// `metrics`, when non-null, receives the `deriver.*` counters (events,
  /// predicate evaluations, situations opened / announced / finished /
  /// discarded). Must outlive the deriver.
  ///
  /// With `options.compiled_predicates`, each distinct predicate (keyed
  /// by its structural fingerprint, expr/expression.h) is compiled once
  /// and shared across definitions; `num_compiled_programs()` /
  /// `program_cache_hits()` and the `deriver.compiled_programs` /
  /// `deriver.program_cache_hits` metrics pin the sharing.
  Deriver(std::vector<SituationDefinition> definitions, bool announce_starts,
          obs::MetricsRegistry* metrics = nullptr,
          DeriveOptions options = {});

  /// A deriver over a shared program: fresh slots, nothing compiled.
  explicit Deriver(std::shared_ptr<Program> program);

  /// Processes one event; events must arrive in strictly increasing
  /// timestamp order. The returned reference is valid until the next call
  /// on any deriver sharing this one's program.
  /// The reference is mutable so the operator hot path can *move* the
  /// started/finished situations straight into the matcher buffers; the
  /// scratch vectors are cleared on the next Process() regardless.
  Update& Process(const Event& event);

  /// Announces that the next `events.size()` Process() calls — on this
  /// deriver or any other sharing its program — will walk exactly the
  /// elements of `events` in order (the PushBatch contract).
  /// In compiled mode this pre-evaluates every predicate columnarly over
  /// the whole batch — one pass per distinct program with its code and
  /// the referenced field columns hot in cache — and Process() then
  /// consumes the precomputed rows. A no-op in interpreter mode, and
  /// never required for correctness: if the caller pushes different
  /// events instead, Process() detects the mismatch and evaluates with
  /// the interpreter. `events` must stay alive and unmodified until the
  /// batch is consumed.
  void PrepareBatch(std::span<const Event> events);

  /// True if `symbol` has an announced, still ongoing situation.
  bool IsOngoing(int symbol) const {
    return slots_[symbol].active && slots_[symbol].announced;
  }

  /// Current aggregate snapshot of `symbol`'s ongoing situation. Only
  /// valid while IsOngoing(symbol).
  Tuple SnapshotOngoing(int symbol) const {
    return slots_[symbol].aggs.Snapshot();
  }

  int num_definitions() const;
  const SituationDefinition& definition(int i) const;

  /// Duration constraints in symbol order (input to DetectionAnalysis).
  std::vector<DurationConstraint> durations() const;

  /// Returns the deriver to its freshly-constructed stream state: every
  /// open situation slot is closed (without emitting) with its running
  /// aggregates cleared, and any announced batch is forgotten. The
  /// program — definitions, compiled predicates — is configuration and
  /// survives.
  void Reset();

  /// Serializes the per-definition open-situation slots (active flag,
  /// announcement flag, start timestamp, running aggregates). Prepared
  /// batch state is transient and never checkpointed — a checkpoint is
  /// only taken between events, where no batch is in flight.
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on a deriver with the same definitions.
  /// On error the deriver must be Reset() or discarded before further
  /// use.
  Status Restore(ckpt::Reader& r);

  /// Compiled-mode introspection (0 in interpreter mode): distinct
  /// bytecode programs, and definitions that reused a sibling's program
  /// because their predicate fingerprints matched.
  int num_compiled_programs() const;
  int64_t program_cache_hits() const;
  bool compiled() const;

  /// Active SIMD tier name for columnar evaluation ("off" when not in
  /// compiled mode, else "off"/"sse2"/"avx2" after clamping the request
  /// to machine capability).
  const char* simd_level() const;

 private:
  struct Slot {
    bool active = false;
    bool announced = false;
    TimePoint ts = 0;
    AggregatorSet aggs;

    explicit Slot(std::vector<AggregateSpec> specs)
        : aggs(std::move(specs)) {}
  };

  void ApplyDef(int i, const Event& event, bool satisfied);

  std::shared_ptr<Program> program_;
  std::vector<Slot> slots_;
  // Mirrors slot.active for definitions < 64 (the sparse batch path).
  uint64_t active_mask_ = 0;
};

/// The per-query half of derivation: the definitions, their compiled
/// predicate programs, the metric handles and the per-event scratch (the
/// Update handed to callers, the prepared batch's columns and bitmaps).
/// Built once per query; the derivers of every partition share it.
/// Single-threaded, like the derivers.
class Deriver::Program {
 public:
  Program(std::vector<SituationDefinition> definitions, bool announce_starts,
          obs::MetricsRegistry* metrics = nullptr, DeriveOptions options = {});
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Deriver::PrepareBatch for every deriver on this program: the batch
  /// may mix the events of many keys, each key's Process() consuming its
  /// own row as the derivers walk the span in order.
  void PrepareBatch(std::span<const Event> events);

 private:
  friend class Deriver;

  void CompilePredicates();
  // Predicate `def` over the prepared batch's current row (the
  // interpreter when `def` did not compile). Only with a batch prepared.
  bool EvalCompiled(int def, const Event& event) const;
  void ForgetBatch();

  // Fields every Process() reads come first, so that the derivers of
  // many keys, each on a private program (a key per operator), touch
  // few cache lines per event.
  std::vector<SituationDefinition> defs_;
  Update update_;
  // Observability handles (null when metrics are disabled).
  obs::Counter* events_ctr_ = nullptr;
  obs::Counter* predicate_evals_ctr_ = nullptr;
  obs::Counter* opened_ctr_ = nullptr;
  obs::Counter* announced_ctr_ = nullptr;
  obs::Counter* finished_ctr_ = nullptr;
  obs::Counter* discarded_ctr_ = nullptr;
  bool announce_starts_;
  DeriveOptions options_;

  // Compiled-predicate state (empty in interpreter mode). Definitions
  // with fingerprint-equal predicates share one program: program_of_def_
  // maps definition -> index into programs_; -1 falls back to the
  // interpreter for that definition.
  std::vector<std::shared_ptr<const BytecodeProgram>> programs_;
  std::vector<int> program_of_def_;
  std::vector<int> batch_fields_;  // union of referenced fields, ascending
  int64_t program_cache_hits_ = 0;
  ExecScratch exec_scratch_;

  // Prepared-batch state, valid while the caller walks the announced
  // span in order (checked by address). Predicate results are selection
  // bitmaps: bit `row % 64` of batch_bits_[prog * batch_words_ + row/64]
  // is prog's predicate over batch event `row`.
  ColumnarBatch batch_;
  std::vector<uint64_t> batch_bits_;
  const Event* batch_base_ = nullptr;
  size_t batch_n_ = 0;
  size_t batch_words_ = 0;
  size_t batch_cursor_ = 0;

  // Sparse definition-loop state, live when every predicate compiled
  // and both counts fit in one word (sparse_masks_ok_). PrepareBatch
  // transposes the program bitmaps into batch_row_mask_: bit p of
  // batch_row_mask_[row] is program p's predicate over batch event
  // `row`. def_mask_of_prog_[p] is the set of definitions sharing
  // program p, and the deriver's active_mask_ mirrors slot.active for
  // definitions < 64. Process() then walks only the set bits of
  // (satisfied | active): a clear bit is a definition that can neither
  // open, extend, nor close a situation on this event. Other
  // configurations run the dense loop over batch_bits_.
  std::vector<uint64_t> batch_row_mask_;
  std::vector<uint64_t> def_mask_of_prog_;
  bool sparse_masks_ok_ = false;
};

}  // namespace tpstream

#endif  // TPSTREAM_DERIVE_DERIVER_H_
