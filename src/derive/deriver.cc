#include "derive/deriver.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

namespace tpstream {

Deriver::Deriver(std::vector<SituationDefinition> definitions,
                 bool announce_starts, obs::MetricsRegistry* metrics,
                 DeriveOptions options)
    : Deriver(std::make_shared<Program>(std::move(definitions),
                                        announce_starts, metrics,
                                        std::move(options))) {}

Deriver::Deriver(std::shared_ptr<Program> program)
    : program_(std::move(program)) {
  slots_.reserve(program_->defs_.size());
  for (const SituationDefinition& def : program_->defs_) {
    slots_.emplace_back(def.aggregates);
  }
}

int Deriver::num_definitions() const {
  return static_cast<int>(program_->defs_.size());
}

const SituationDefinition& Deriver::definition(int i) const {
  return program_->defs_[i];
}

int Deriver::num_compiled_programs() const {
  return static_cast<int>(program_->programs_.size());
}

int64_t Deriver::program_cache_hits() const {
  return program_->program_cache_hits_;
}

bool Deriver::compiled() const {
  return program_->options_.compiled_predicates;
}

const char* Deriver::simd_level() const {
  return compiled() ? simd::SimdLevelName(
                          simd::Effective(program_->exec_scratch_.simd))
                    : "off";
}

Deriver::Program::Program(std::vector<SituationDefinition> definitions,
                          bool announce_starts, obs::MetricsRegistry* metrics,
                          DeriveOptions options)
    : defs_(std::move(definitions)),
      announce_starts_(announce_starts),
      options_(std::move(options)) {
  if (options_.compiled_predicates) {
    if (!options_.simd.empty()) {
      simd::SimdLevel level;
      if (simd::ParseSimdLevel(options_.simd, &level)) {
        exec_scratch_.simd = simd::Effective(level);
      }
    }
    CompilePredicates();
  }
  if (metrics != nullptr) {
    events_ctr_ = metrics->GetCounter("deriver.events");
    predicate_evals_ctr_ = metrics->GetCounter("deriver.predicate_evals");
    opened_ctr_ = metrics->GetCounter("deriver.situations_opened");
    announced_ctr_ = metrics->GetCounter("deriver.situations_announced");
    finished_ctr_ = metrics->GetCounter("deriver.situations_finished");
    discarded_ctr_ = metrics->GetCounter("deriver.situations_discarded");
    if (options_.compiled_predicates) {
      metrics->GetGauge("deriver.compiled_programs")
          ->Set(static_cast<double>(programs_.size()));
      metrics->GetCounter("deriver.program_cache_hits")
          ->Inc(program_cache_hits_);
    }
  }
}

void Deriver::Program::CompilePredicates() {
  // One program per distinct predicate fingerprint: definitions that
  // differ only in aggregates/duration (or symbol name) share code, the
  // same keying the multi-query engine uses to share whole definitions.
  std::unordered_map<std::string, int> by_fingerprint;
  program_of_def_.assign(defs_.size(), -1);
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].predicate == nullptr) continue;
    const std::string fp = ExprFingerprint(*defs_[i].predicate);
    auto [it, inserted] =
        by_fingerprint.emplace(fp, static_cast<int>(programs_.size()));
    if (inserted) {
      auto compiled = CompilePredicate(*defs_[i].predicate);
      if (!compiled.ok()) {
        // Semantics over speed: this definition keeps the interpreter.
        by_fingerprint.erase(it);
        continue;
      }
      programs_.push_back(std::move(compiled).value());
      const auto& fields = programs_.back()->referenced_fields();
      batch_fields_.insert(batch_fields_.end(), fields.begin(),
                           fields.end());
    } else {
      ++program_cache_hits_;
    }
    program_of_def_[i] = it->second;
  }
  std::sort(batch_fields_.begin(), batch_fields_.end());
  batch_fields_.erase(
      std::unique(batch_fields_.begin(), batch_fields_.end()),
      batch_fields_.end());
  sparse_masks_ok_ =
      !defs_.empty() && defs_.size() <= 64 && programs_.size() <= 64 &&
      std::find(program_of_def_.begin(), program_of_def_.end(), -1) ==
          program_of_def_.end();
  def_mask_of_prog_.assign(programs_.size(), 0);
  if (sparse_masks_ok_) {
    for (size_t i = 0; i < defs_.size(); ++i) {
      def_mask_of_prog_[program_of_def_[i]] |= uint64_t{1} << i;
    }
  }
}

namespace {

// In-place 64x64 bit-matrix transpose about the anti-diagonal
// (Hacker's Delight 7-3): element (row i, bit b) moves to
// (row 63-b, bit 63-i). PrepareBatch compensates by reversing the row
// order on the way in and out, which nets the plain transpose.
void AntiTranspose64(uint64_t m[64]) {
  uint64_t mask = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const uint64_t t = (m[k] ^ (m[k + j] >> j)) & mask;
      m[k] ^= t;
      m[k + j] ^= t << j;
    }
  }
}

}  // namespace

void Deriver::PrepareBatch(std::span<const Event> events) {
  program_->PrepareBatch(events);
}

void Deriver::Program::PrepareBatch(std::span<const Event> events) {
  batch_base_ = nullptr;
  if (!options_.compiled_predicates || events.empty() ||
      programs_.empty()) {
    return;
  }
  batch_.Assign(events, batch_fields_);
  batch_n_ = events.size();
  batch_words_ = (batch_n_ + 63) / 64;
  batch_bits_.resize(programs_.size() * batch_words_);
  for (size_t p = 0; p < programs_.size(); ++p) {
    programs_[p]->RunPredicateColumnBits(
        batch_, &exec_scratch_, batch_bits_.data() + p * batch_words_);
  }
  if (sparse_masks_ok_) {
    // Transpose the program-major bitmaps into one program mask per
    // event, a 64x64 bit transpose per word block. Rows past batch_n_
    // carry zero bits (the packer zeroes the tail), so the over-sized
    // final block is harmless.
    batch_row_mask_.resize(batch_words_ * 64);
    const int nprogs = static_cast<int>(programs_.size());
    for (size_t w = 0; w < batch_words_; ++w) {
      uint64_t blk[64];
      for (int p = 0; p < 64; ++p) {
        blk[63 - p] =
            p < nprogs
                ? batch_bits_[static_cast<size_t>(p) * batch_words_ + w]
                : 0;
      }
      AntiTranspose64(blk);
      uint64_t* out = batch_row_mask_.data() + w * 64;
      for (int r = 0; r < 64; ++r) out[r] = blk[63 - r];
    }
  }
  batch_base_ = events.data();
  batch_cursor_ = 0;
}

void Deriver::Program::ForgetBatch() {
  update_.started.clear();
  update_.finished.clear();
  batch_base_ = nullptr;
  batch_n_ = 0;
  batch_words_ = 0;
  batch_cursor_ = 0;
}

bool Deriver::Program::EvalCompiled(int def, const Event& event) const {
  const int p = program_of_def_[def];
  if (p < 0) {
    return EvalPredicate(*defs_[def].predicate, event.payload);
  }
  return (batch_bits_[static_cast<size_t>(p) * batch_words_ +
                      (batch_cursor_ >> 6)] >>
              (batch_cursor_ & 63) &
          1) != 0;
}

void Deriver::ApplyDef(int i, const Event& event, bool satisfied) {
  Program& p = *program_;
  const SituationDefinition& def = p.defs_[i];
  Slot& slot = slots_[i];
  if (satisfied) {
    if (!slot.active) {
      slot.active = true;
      slot.announced = false;
      slot.ts = event.t;
      slot.aggs.Init(event.payload);
      if (i < 64) active_mask_ |= uint64_t{1} << i;
      if (p.opened_ctr_ != nullptr) p.opened_ctr_->Inc();
    } else {
      slot.aggs.Update(event.payload);
    }
    // Low-latency announcement once the eventual duration is guaranteed
    // to reach the minimum (the end timestamp will be > event.t).
    if (p.announce_starts_ && !slot.announced && !def.duration.has_max() &&
        event.t + 1 - slot.ts >= def.duration.min) {
      slot.announced = true;
      if (p.announced_ctr_ != nullptr) p.announced_ctr_->Inc();
      p.update_.started.push_back(SymbolSituation{
          i, Situation(slot.aggs.Snapshot(), slot.ts, kTimeUnknown)});
    }
  } else if (slot.active) {
    // First non-satisfying event fixes the end timestamp (half-open).
    const TimePoint te = event.t;
    if (def.duration.Contains(te - slot.ts)) {
      if (p.finished_ctr_ != nullptr) p.finished_ctr_->Inc();
      p.update_.finished.push_back(
          SymbolSituation{i, Situation(slot.aggs.Snapshot(), slot.ts, te)});
    } else if (p.discarded_ctr_ != nullptr) {
      p.discarded_ctr_->Inc();
    }
    slot.active = false;
    slot.announced = false;
    if (i < 64) active_mask_ &= ~(uint64_t{1} << i);
  }
}

Deriver::Update& Deriver::Process(const Event& event) {
  Program& p = *program_;
  p.update_.started.clear();
  p.update_.finished.clear();
  if (p.events_ctr_ != nullptr) {
    p.events_ctr_->Inc();
    p.predicate_evals_ctr_->Inc(static_cast<int64_t>(p.defs_.size()));
  }

  // batch_base_ is set only by a compiled program (PrepareBatch).
  if (p.batch_base_ != nullptr &&
      (p.batch_cursor_ >= p.batch_n_ ||
       &event != p.batch_base_ + p.batch_cursor_)) {
    // The caller deviated from the announced batch (or consumed it);
    // drop the precomputed rows and evaluate with the interpreter.
    p.batch_base_ = nullptr;
  }
  const bool batched = p.batch_base_ != nullptr;

  // Sparse fast path: the transposed bitmap hands us this event's
  // satisfied-program mask in one load; expanding through
  // def_mask_of_prog_ and OR-ing the open slots yields exactly the
  // definitions with any work to do. The loop below visits only those
  // (in ascending definition order, matching the dense loop's
  // started/finished emission order); on a quiet event it runs zero
  // iterations. This is where the columnar bitmaps pay off: a
  // definition whose predicate rarely flips costs nothing per event.
  if (batched && p.sparse_masks_ok_) {
    uint64_t sat_defs = 0;
    for (uint64_t pm = p.batch_row_mask_[p.batch_cursor_]; pm != 0;
         pm &= pm - 1) {
      sat_defs |= p.def_mask_of_prog_[std::countr_zero(pm)];
    }
    for (uint64_t work = sat_defs | active_mask_; work != 0;
         work &= work - 1) {
      const int i = std::countr_zero(work);
      ApplyDef(i, event, (sat_defs >> i & 1) != 0);
    }
    ++p.batch_cursor_;
    return p.update_;
  }

  for (int i = 0; i < static_cast<int>(p.defs_.size()); ++i) {
    ApplyDef(i, event,
             batched ? p.EvalCompiled(i, event)
                     : EvalPredicate(*p.defs_[i].predicate, event.payload));
  }
  if (batched) ++p.batch_cursor_;
  return p.update_;
}

void Deriver::Reset() {
  for (Slot& slot : slots_) {
    slot.active = false;
    slot.announced = false;
    slot.ts = 0;
    slot.aggs.Reset();
  }
  program_->ForgetBatch();
  active_mask_ = 0;
}

void Deriver::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kDeriver);
  w.U32(static_cast<uint32_t>(slots_.size()));
  for (const Slot& slot : slots_) {
    w.Bool(slot.active);
    w.Bool(slot.announced);
    w.I64(slot.ts);
    slot.aggs.Checkpoint(w);
  }
  w.EndSection(cookie);
}

Status Deriver::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kDeriver);
  const uint32_t n = r.U32();
  if (r.ok() && n != slots_.size()) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: definition count mismatch (query changed?)"));
    return r.status();
  }
  for (Slot& slot : slots_) {
    slot.active = r.Bool();
    slot.announced = r.Bool();
    slot.ts = r.I64();
    Status status = slot.aggs.Restore(r);
    if (!status.ok()) return status;
  }
  program_->ForgetBatch();
  active_mask_ = 0;
  for (size_t i = 0; i < slots_.size() && i < 64; ++i) {
    if (slots_[i].active) active_mask_ |= uint64_t{1} << i;
  }
  return r.EndSection(end);
}

std::vector<DurationConstraint> Deriver::durations() const {
  std::vector<DurationConstraint> out;
  out.reserve(program_->defs_.size());
  for (const SituationDefinition& def : program_->defs_) {
    out.push_back(def.duration);
  }
  return out;
}

}  // namespace tpstream
