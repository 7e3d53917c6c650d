#include "optimizer/shared_plan_cache.h"

#include <cstdio>
#include <cstring>

namespace tpstream {

namespace {

void AppendDoubleBits(double d, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  out->append(buf);
}

}  // namespace

const std::vector<int>& SharedPlanCache::GetOrCompute(
    const std::string& key,
    const std::function<std::vector<int>()>& compute) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  if (cache_.size() >= kMaxEntries) cache_.clear();
  return cache_.emplace(key, compute()).first->second;
}

std::string PatternPlanKey(const TemporalPattern& pattern, bool low_latency) {
  std::string key;
  key.reserve(16 + pattern.constraints().size() * 12);
  key.append(low_latency ? "ll" : "bl")
      .append(std::to_string(pattern.num_symbols()));
  for (const TemporalConstraint& c : pattern.constraints()) {
    key.append("|")
        .append(std::to_string(c.a))
        .append(",")
        .append(std::to_string(c.b))
        .append(":")
        .append(std::to_string(c.relations.mask()));
  }
  return key;
}

std::string StatsPlanKey(const MatcherStats& stats) {
  std::string key;
  key.reserve(1 + 17 * (stats.buffer_emas().size() +
                        stats.selectivity_emas().size()));
  for (double ema : stats.buffer_emas()) {
    key.append("b");
    AppendDoubleBits(ema, &key);
  }
  for (double ema : stats.selectivity_emas()) {
    key.append("s");
    AppendDoubleBits(ema, &key);
  }
  return key;
}

}  // namespace tpstream
