// Ingestion-path contract: steady-state sequential ingestion performs
// ZERO heap allocations per event (counting global operator new, in the
// style of partition_hash_test.cc) when the static analysis proves
// exactly-once delivery and no aggregates/metrics are attached. PushBatch
// vs per-event Push equivalence on every surface lives in
// engine_conformance_test.cc.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/detection.h"
#include "core/operator.h"
#include "query/builder.h"
#include "workload/synthetic.h"

// Counting global allocator: every operator new in this binary bumps the
// counter, so a test can assert a region of code performs none.
namespace {
std::atomic<size_t> g_allocation_count{0};

void* CountedAlloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpstream {
namespace {

/// "A before B" over two boolean streams, no aggregates (interval-
/// accessor RETURN only), no partitioning: the allocation-free profile
/// (empty aggregate snapshots, dedup statically proven unnecessary).
QuerySpec BeforeSpec() {
  Schema schema(
      {Field{"s0", ValueType::kBool}, Field{"s1", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "s0"))
      .Define("B", FieldRef(1, "s1"))
      .Relate("A", Relation::kBefore, "B")
      .Within(150)
      .ReturnStart("a_start", "A");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

TEST(IngestAllocationTest, SteadyStateSequentialIngestIsAllocationFree) {
  const QuerySpec spec = BeforeSpec();
  // Precondition for the strongest claim: the analysis proves
  // exactly-once delivery, so the fingerprint table is never touched.
  {
    DetectionAnalysis analysis(
        spec.pattern,
        std::vector<DurationConstraint>(spec.pattern.num_symbols()));
    ASSERT_FALSE(analysis.needs_dedup());
  }

  for (const bool low_latency : {true, false}) {
    TPStreamOperator::Options options;
    options.low_latency = low_latency;
    options.adaptive = false;  // controller re-optimization allocates
    TPStreamOperator op(spec, options, /*output=*/nullptr);

    SyntheticGenerator gen({.num_streams = 2, .seed = 9});
    Event scratch;

    // Warmup: situation buffers grow to their window-bounded size, all
    // scratch vectors reach steady capacity.
    for (int i = 0; i < 20000; ++i) {
      gen.Next(&scratch);
      op.Push(scratch);
    }

    const int64_t matches_before = op.num_matches();
    const size_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 20000; ++i) {
      gen.Next(&scratch);
      op.Push(scratch);
    }
    const size_t after = g_allocation_count.load(std::memory_order_relaxed);

    EXPECT_EQ(after, before)
        << (low_latency ? "low-latency" : "baseline")
        << " ingest allocated on the hot path ("
        << (after - before) << " allocations / 20000 events)";
    // The measurement window must actually exercise the matcher.
    EXPECT_GT(op.num_matches(), matches_before);
  }
}

}  // namespace
}  // namespace tpstream
