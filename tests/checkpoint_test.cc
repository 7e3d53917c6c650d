// Durability contract unit suite (docs/architecture.md): the checkpoint
// wire format round-trips exactly (doubles bit-exact, hostile inputs
// rejected with Status errors, never UB), component Restore() validates
// structural compatibility with the configured instance, and the
// Reset()/Restore() lifecycle interactions pinned by this PR's bug sweep
// stay fixed — notably the exactly-once fingerprint table surviving
// Reset() and suppressing legitimate re-emission.

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "matcher/stats.h"
#include "query/builder.h"

namespace tpstream {
namespace {

// ---------------------------------------------------------------------------
// Wire format primitives

TEST(CkptSerde, PrimitivesRoundTrip) {
  ckpt::Writer w;
  w.U8(0xab);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.Str("hello");
  w.Str("");

  ckpt::Reader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CkptSerde, DoublesRoundTripBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           -1e300,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  ckpt::Writer w;
  for (double v : values) w.F64(v);
  ckpt::Reader r(w.buffer());
  for (double v : values) {
    const double got = r.F64();
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &v, sizeof(v));
    std::memcpy(&got_bits, &got, sizeof(got));
    EXPECT_EQ(got_bits, want_bits);  // bit identity, not numeric equality
  }
  EXPECT_TRUE(r.ok());
}

TEST(CkptSerde, ValuesTuplesSituationsEventsRoundTrip) {
  ckpt::Writer w;
  w.WriteValue(Value::Null());
  w.WriteValue(Value(int64_t{-7}));
  w.WriteValue(Value(2.75));
  w.WriteValue(Value(true));
  w.WriteValue(Value(std::string("xyz")));
  const Tuple tuple{Value(int64_t{1}), Value(std::string("two")),
                    Value::Null()};
  w.WriteTuple(tuple);
  const Situation situation(Tuple{Value(3.5)}, 10, 20);
  w.WriteSituation(situation);
  const Event event(Tuple{Value(false), Value(int64_t{9})}, 99);
  w.WriteEvent(event);

  ckpt::Reader r(w.buffer());
  // Null obeys SQL comparison semantics (Null == Null is *false*), so
  // null round-trips are checked by type, not by operator==.
  EXPECT_TRUE(r.ReadValue().is_null());
  EXPECT_EQ(r.ReadValue(), Value(int64_t{-7}));
  EXPECT_EQ(r.ReadValue(), Value(2.75));
  EXPECT_EQ(r.ReadValue(), Value(true));
  EXPECT_EQ(r.ReadValue(), Value(std::string("xyz")));
  const Tuple got = r.ReadTuple();
  ASSERT_EQ(got.size(), tuple.size());
  EXPECT_EQ(got[0], tuple[0]);
  EXPECT_EQ(got[1], tuple[1]);
  EXPECT_TRUE(got[2].is_null());
  const Situation s = r.ReadSituation();
  EXPECT_EQ(s.payload, situation.payload);
  EXPECT_EQ(s.ts, situation.ts);
  EXPECT_EQ(s.te, situation.te);
  const Event e = r.ReadEvent();
  EXPECT_EQ(e.payload, event.payload);
  EXPECT_EQ(e.t, event.t);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CkptSerde, TruncatedReadLatchesErrorAndReturnsZeros) {
  ckpt::Writer w;
  w.U32(7);
  ckpt::Reader r(w.buffer());
  EXPECT_EQ(r.U64(), 0u);  // needs 8 bytes, only 4 present
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // Latched: later reads keep returning zeros, no further state change.
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(CkptSerde, EnvelopeRejectsBadMagicAndVersion) {
  {
    ckpt::Writer w;
    w.U32(0x12345678);
    w.U32(ckpt::kFormatVersion);
    w.U64(0);
    ckpt::Reader r(w.buffer());
    EXPECT_EQ(r.Envelope(nullptr).code(), StatusCode::kParseError);
  }
  {
    ckpt::Writer w;
    w.U32(ckpt::kMagic);
    w.U32(ckpt::kFormatVersion + 1);  // future format
    w.U64(0);
    ckpt::Reader r(w.buffer());
    EXPECT_EQ(r.Envelope(nullptr).code(), StatusCode::kInvalidArgument);
  }
  {
    ckpt::Reader r(std::string_view("TP"));  // shorter than the envelope
    EXPECT_FALSE(r.Envelope(nullptr).ok());
  }
  {
    ckpt::Writer w;
    w.Envelope(1234);
    ckpt::Reader r(w.buffer());
    uint64_t offset = 0;
    EXPECT_TRUE(r.Envelope(&offset).ok());
    EXPECT_EQ(offset, 1234u);
  }
}

TEST(CkptSerde, SectionTagMismatchFails) {
  ckpt::Writer w;
  const size_t cookie = w.BeginSection(ckpt::Tag::kJoiner);
  w.U32(5);
  w.EndSection(cookie);

  ckpt::Reader r(w.buffer());
  (void)r.BeginSection(ckpt::Tag::kDeriver);  // wrong component
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CkptSerde, SectionUnderAndOverConsumptionFails) {
  ckpt::Writer w;
  const size_t cookie = w.BeginSection(ckpt::Tag::kJoiner);
  w.U32(5);
  w.U32(6);
  w.EndSection(cookie);

  {
    ckpt::Reader r(w.buffer());  // under-consumes: one field unread
    const size_t end = r.BeginSection(ckpt::Tag::kJoiner);
    EXPECT_EQ(r.U32(), 5u);
    EXPECT_FALSE(r.EndSection(end).ok());
  }
  {
    ckpt::Reader r(w.buffer());  // exact consumption passes
    const size_t end = r.BeginSection(ckpt::Tag::kJoiner);
    EXPECT_EQ(r.U32(), 5u);
    EXPECT_EQ(r.U32(), 6u);
    EXPECT_TRUE(r.EndSection(end).ok());
  }
}

TEST(CkptSerde, HostileSizesAreRejectedNotAllocated) {
  // A tuple claiming ~2^64 entries must fail fast instead of reserving.
  ckpt::Writer w;
  w.U64(std::numeric_limits<uint64_t>::max());
  ckpt::Reader r(w.buffer());
  (void)r.ReadTuple();
  EXPECT_FALSE(r.ok());

  // A section claiming to extend past the input is rejected up front.
  ckpt::Writer w2;
  w2.U32(1u << 30);
  w2.U32(static_cast<uint32_t>(ckpt::Tag::kJoiner));
  ckpt::Reader r2(w2.buffer());
  (void)r2.BeginSection(ckpt::Tag::kJoiner);
  EXPECT_FALSE(r2.ok());
}

// ---------------------------------------------------------------------------
// Component round-trips

Schema TwoBoolSchema() {
  return Schema({Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool}});
}

QuerySpec OverlapSpec() {
  QueryBuilder qb(TwoBoolSchema());
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", FieldRef(1, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n_a", "A", AggKind::kCount);
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

/// One a-overlaps-b episode on [base+2, base+9); concludes at base+6.
void PushEpisode(const std::function<void(const Event&)>& push,
                 TimePoint base) {
  for (TimePoint t = 1; t <= 10; ++t) {
    push(Event({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, base + t));
  }
}

TEST(CkptComponents, MatcherStatsRoundTripBitExact) {
  QuerySpec spec = OverlapSpec();
  MatcherStats stats(spec.pattern, 0.25);
  stats.UpdateBufferSize(0, 17.5);
  stats.UpdateBufferSize(1, 3.0);
  stats.UpdateSelectivity(0, 0.125);

  ckpt::Writer w;
  stats.Checkpoint(w);

  MatcherStats restored(spec.pattern, 0.25);
  ckpt::Reader r(w.buffer());
  ASSERT_TRUE(restored.Restore(r).ok());
  EXPECT_EQ(restored.alpha(), stats.alpha());
  EXPECT_EQ(restored.buffer_emas(), stats.buffer_emas());
  EXPECT_EQ(restored.selectivity_emas(), stats.selectivity_emas());

  // Restore into a differently-sized instance is a structural error.
  QueryBuilder qb(Schema({Field{"a", ValueType::kBool}}));
  qb.Define("A", FieldRef(0, "a")).Within(10).Return("n", "A",
                                                     AggKind::kCount);
  auto single = qb.Build();
  ASSERT_TRUE(single.ok());
  MatcherStats wrong(single.value().pattern, 0.25);
  ckpt::Reader r2(w.buffer());
  EXPECT_FALSE(wrong.Restore(r2).ok());
}

TEST(CkptComponents, OperatorRoundTripAndByteDeterminism) {
  const QuerySpec spec = OverlapSpec();
  std::vector<Event> outputs;
  TPStreamOperator op(spec, {}, [&](const Event& e) { outputs.push_back(e); });
  PushEpisode([&](const Event& e) { op.Push(e); }, 0);
  // Leave a half-open episode so live state (open situations, partial
  // buffers) is actually at stake.
  op.Push(Event({Value(true), Value(false)}, 42));

  ckpt::Writer w1;
  op.Checkpoint(w1);

  std::vector<Event> restored_outputs;
  TPStreamOperator restored(spec, {}, [&](const Event& e) {
    restored_outputs.push_back(e);
  });
  ckpt::Reader r(w1.buffer());
  uint64_t offset = 0;
  ASSERT_TRUE(restored.Restore(r, &offset).ok());
  EXPECT_EQ(offset, static_cast<uint64_t>(op.num_events()));
  EXPECT_EQ(restored.num_events(), op.num_events());
  EXPECT_EQ(restored.num_matches(), op.num_matches());
  EXPECT_EQ(restored.BufferedCount(), op.BufferedCount());
  EXPECT_EQ(restored.CurrentOrder(), op.CurrentOrder());
  EXPECT_EQ(restored.stats().buffer_emas(), op.stats().buffer_emas());

  // Checkpoint-of-restore is byte-identical to the original checkpoint:
  // serialization is a pure function of logical state.
  ckpt::Writer w2;
  restored.Checkpoint(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
}

TEST(CkptComponents, OperatorRestoreValidatesMatcherMode) {
  const QuerySpec spec = OverlapSpec();
  TPStreamOperator ll_op(spec, {}, nullptr);
  PushEpisode([&](const Event& e) { ll_op.Push(e); }, 0);
  ckpt::Writer w;
  ll_op.Checkpoint(w);

  TPStreamOperator::Options baseline;
  baseline.low_latency = false;
  TPStreamOperator baseline_op(spec, baseline, nullptr);
  ckpt::Reader r(w.buffer());
  EXPECT_FALSE(baseline_op.Restore(r).ok());

  TPStreamOperator::Options non_adaptive;
  non_adaptive.adaptive = false;
  TPStreamOperator non_adaptive_op(spec, non_adaptive, nullptr);
  ckpt::Reader r2(w.buffer());
  EXPECT_FALSE(non_adaptive_op.Restore(r2).ok());
}

/// `n` copies of OverlapSpec in one operator, without outputs.
std::unique_ptr<TPStreamOperator> OverlapCopies(int n) {
  std::vector<TPStreamOperator::Query> queries(n);
  for (auto& query : queries) query.spec = OverlapSpec();
  auto op = TPStreamOperator::Create(std::move(queries), {});
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  return std::move(op).value();
}

TEST(CkptComponents, QueryGroupRestoreValidatesRegisteredQueries) {
  auto group = OverlapCopies(1);
  PushEpisode([&](const Event& e) { group->Push(e); }, 0);
  ckpt::Writer w;
  group->Checkpoint(w);

  auto two = OverlapCopies(2);
  ckpt::Reader r(w.buffer());
  EXPECT_FALSE(two->Restore(r).ok());

  auto same = OverlapCopies(1);
  ckpt::Reader r2(w.buffer());
  uint64_t offset = 0;
  ASSERT_TRUE(same->Restore(r2, &offset).ok());
  EXPECT_EQ(offset, 10u);
  EXPECT_EQ(same->num_events(), group->num_events());
  EXPECT_EQ(same->num_matches(0), group->num_matches(0));
}

// The retired multi-query layout (tag 12: envelope, query and distinct-
// definition counts, the shared deriver, then each engine) is refused
// with a Status by the operator that replaced it.
TEST(CkptComponents, RetiredMultiQueryLayoutIsRejected) {
  auto source = OverlapCopies(2);
  PushEpisode([&](const Event& e) { source->Push(e); }, 0);
  ckpt::Writer current;
  source->Checkpoint(current);

  ckpt::Writer w;
  w.Envelope(10);
  const size_t cookie = w.BeginSection(static_cast<ckpt::Tag>(12));
  w.U32(2);  // queries
  w.U32(2);  // distinct definitions
  Deriver deriver(OverlapSpec().definitions, /*announce_starts=*/true);
  deriver.Checkpoint(w);
  w.EndSection(cookie);

  auto target = OverlapCopies(2);
  ckpt::Reader r(w.buffer());
  const Status status = target->Restore(r);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  // The operator is still usable after Reset.
  target->Reset();
  ckpt::Reader good(current.buffer());
  EXPECT_TRUE(target->Restore(good).ok());
}

// ---------------------------------------------------------------------------
// Reset lifecycle bug sweep

// Satellite regression (pinned): LowLatencyMatcher::Reset() used to keep
// the exactly-once fingerprint map, so replaying the same stream after a
// Reset silently suppressed every match the first run had emitted.
TEST(MatcherReset, ReplayAfterResetReEmits) {
  std::vector<Event> outputs;
  TPStreamOperator op(OverlapSpec(), {},
                      [&](const Event& e) { outputs.push_back(e); });
  PushEpisode([&](const Event& e) { op.Push(e); }, 0);
  ASSERT_EQ(outputs.size(), 1u);

  op.Reset();
  EXPECT_EQ(op.num_events(), 0);
  EXPECT_EQ(op.num_matches(), 0);
  EXPECT_EQ(op.BufferedCount(), 0u);

  // Identical replay: with a stale fingerprint table this found 0.
  PushEpisode([&](const Event& e) { op.Push(e); }, 0);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[1].t, outputs[0].t);
  EXPECT_EQ(outputs[1].payload, outputs[0].payload);
}

TEST(MatcherReset, ResetMatchesFreshOperatorByteForByte) {
  const QuerySpec spec = OverlapSpec();
  TPStreamOperator reused(spec, {}, nullptr);
  PushEpisode([&](const Event& e) { reused.Push(e); }, 0);
  reused.Reset();
  PushEpisode([&](const Event& e) { reused.Push(e); }, 7);

  TPStreamOperator fresh(spec, {}, nullptr);
  PushEpisode([&](const Event& e) { fresh.Push(e); }, 7);

  ckpt::Writer wa, wb;
  reused.Checkpoint(wa);
  fresh.Checkpoint(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

// Satellite regression (pinned): UpdateBufferSize/UpdateSelectivity on a
// default-constructed MatcherStats wrote through empty vectors (an OOB
// store). Now: debug assert, release-safe no-op.
TEST(MatcherStatsGuard, UnsizedUpdateIsRejected) {
  MatcherStats unsized;
  EXPECT_DEBUG_DEATH(unsized.UpdateBufferSize(0, 1.0), "not sized");
  EXPECT_DEBUG_DEATH(unsized.UpdateSelectivity(0, 1.0), "not sized");
#ifdef NDEBUG
  // Release builds: the guarded no-op leaves the instance untouched.
  unsized.UpdateBufferSize(3, 1.0);
  unsized.UpdateSelectivity(3, 1.0);
  EXPECT_TRUE(unsized.buffer_emas().empty());
  EXPECT_TRUE(unsized.selectivity_emas().empty());
#endif
}

TEST(MatcherStatsGuard, OutOfRangeSymbolOnSizedInstance) {
  MatcherStats stats(OverlapSpec().pattern, 0.5);
  const std::vector<double> before = stats.buffer_emas();
  EXPECT_DEBUG_DEATH(stats.UpdateBufferSize(-1, 9.0), "not sized");
  EXPECT_DEBUG_DEATH(stats.UpdateBufferSize(99, 9.0), "not sized");
#ifdef NDEBUG
  stats.UpdateBufferSize(-1, 9.0);
  stats.UpdateBufferSize(99, 9.0);
  EXPECT_EQ(stats.buffer_emas(), before);
#endif
}

TEST(RestoreLifecycle, FailedRestoreThenResetRecovers) {
  const QuerySpec spec = OverlapSpec();
  std::vector<Event> outputs;
  TPStreamOperator op(spec, {}, [&](const Event& e) { outputs.push_back(e); });
  PushEpisode([&](const Event& e) { op.Push(e); }, 0);

  ckpt::Writer w;
  op.Checkpoint(w);
  // Truncate mid-blob: Restore fails and leaves the operator in an
  // unspecified state — the documented escape hatch is Reset().
  const std::string truncated = w.buffer().substr(0, w.buffer().size() / 2);
  ckpt::Reader r(truncated);
  ASSERT_FALSE(op.Restore(r).ok());

  op.Reset();
  outputs.clear();
  PushEpisode([&](const Event& e) { op.Push(e); }, 0);
  EXPECT_EQ(outputs.size(), 1u);
}

}  // namespace
}  // namespace tpstream
