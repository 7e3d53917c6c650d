#include "optimizer/plan_optimizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "algebra/detection.h"

namespace tpstream {

namespace {

double BufferSize(const MatcherStats& stats, int symbol) {
  // Before any data arrives the EMAs are zero; assume unit-sized buffers
  // so that the initial plan choice is driven by the Table 3
  // selectivities, as in the paper.
  return std::max(stats.buffer_ema(symbol), 1.0);
}

// Cost bound of findMatches on a buffer of size b with `constraints`
// applicable constraints: per constraint up to 13 relations, 4 binary
// searches each (Section 5.2).
double FindMatchesCost(double b, int constraints) {
  if (constraints == 0) return b;  // cross product scan
  return constraints * 13.0 * 4.0 * std::log2(std::max(b, 2.0));
}

}  // namespace

PlanOptimizer::PlanOptimizer(const TemporalPattern* pattern,
                             bool low_latency)
    : pattern_(pattern) {
  // Table 3-weighted share of each constraint's relations that stay
  // decidable while one side's end is unknown.
  ongoing_fraction_.reserve(pattern->constraints().size());
  for (const TemporalConstraint& c : pattern->constraints()) {
    double total = 0.0;
    double a_ok = 0.0;
    double b_ok = 0.0;
    c.relations.ForEach([&](Relation r) {
      const double w = DefaultSelectivity(r);
      total += w;
      if (CertainWhileOngoing(r, /*a_side_ongoing=*/true)) a_ok += w;
      if (CertainWhileOngoing(r, /*a_side_ongoing=*/false)) b_ok += w;
    });
    ongoing_fraction_.emplace_back(total > 0 ? a_ok / total : 0.0,
                                   total > 0 ? b_ok / total : 0.0);
  }

  // Seed variants: the low-latency matcher joins from trigger endpoints
  // (start triggers with the seed still ongoing); the baseline matcher
  // from every finished situation.
  if (low_latency) {
    const DetectionAnalysis analysis(
        *pattern, std::vector<DurationConstraint>(pattern->num_symbols()));
    for (int s = 0; s < pattern->num_symbols(); ++s) {
      if (analysis.match_on_start(s)) seeds_.push_back(Seed{s, true});
      if (analysis.match_on_end(s)) seeds_.push_back(Seed{s, false});
    }
  }
  if (seeds_.empty()) {
    for (int s = 0; s < pattern->num_symbols(); ++s) {
      seeds_.push_back(Seed{s, false});
    }
  }
}

double PlanOptimizer::EffectiveSelectivity(int ci, const MatcherStats& stats,
                                           const Seed& seed) const {
  const TemporalConstraint& c = pattern_->constraints()[ci];
  double sel = stats.selectivity_ema(ci);
  if (seed.ongoing && (c.a == seed.symbol || c.b == seed.symbol)) {
    const auto& [a_fraction, b_fraction] = ongoing_fraction_[ci];
    sel *= (c.a == seed.symbol) ? a_fraction : b_fraction;
  }
  return sel;
}

double PlanOptimizer::ResultSize(uint32_t subset, const MatcherStats& stats,
                                 const Seed& seed) const {
  double r = 1.0;
  bool any = false;
  for (int s = 0; s < pattern_->num_symbols(); ++s) {
    if (subset & (1u << s)) {
      r *= BufferSize(stats, s);
      any = true;
    }
  }
  if (!any) return 0.0;
  for (int ci = 0; ci < static_cast<int>(pattern_->constraints().size());
       ++ci) {
    const TemporalConstraint& c = pattern_->constraints()[ci];
    if ((subset & (1u << c.a)) && (subset & (1u << c.b))) {
      r *= EffectiveSelectivity(ci, stats, seed);
    }
  }
  return r;
}

double PlanOptimizer::StepCost(int symbol, uint32_t subset,
                               const MatcherStats& stats,
                               const Seed& seed) const {
  int applicable = 0;
  for (const TemporalConstraint& c : pattern_->constraints()) {
    if ((c.a == symbol && (subset & (1u << c.b))) ||
        (c.b == symbol && (subset & (1u << c.a)))) {
      ++applicable;
    }
  }
  const double r_prev = ResultSize(subset, stats, seed);
  const double r_next = ResultSize(subset | (1u << symbol), stats, seed);
  // The binary searches run once per partial configuration reaching the
  // step; an upstream empty result short-circuits the enumeration.
  return r_prev * r_next + std::min(r_prev, 1.0) *
                               FindMatchesCost(BufferSize(stats, symbol),
                                               applicable);
}

double PlanOptimizer::Cost(const std::vector<int>& permutation,
                           const MatcherStats& stats) const {
  // Equation 2 averaged over the seed variants: the seed's own step is
  // intercepted (constraint checks only, negligible), every other step
  // pays the scan cost with the seed's constraints applicable.
  double total = 0.0;
  for (const Seed& seed : seeds_) {
    uint32_t bound = 1u << seed.symbol;
    for (int symbol : permutation) {
      if (symbol == seed.symbol) continue;
      total += StepCost(symbol, bound, stats, seed);
      bound |= 1u << symbol;
    }
  }
  return total / static_cast<double>(seeds_.size());
}

double PlanOptimizer::PaperCost(const std::vector<int>& permutation,
                                const MatcherStats& stats) const {
  double cost = 0.0;
  double r_prev = 0.0;
  uint32_t placed = 0;
  for (size_t i = 0; i < permutation.size(); ++i) {
    const int sym = permutation[i];
    if (i == 0) {
      r_prev = BufferSize(stats, sym);  // |R_1| = |B_1|
      placed = 1u << sym;
      continue;
    }
    const double b = BufferSize(stats, sym);
    double sel = 1.0;
    int applicable = 0;
    for (int ci = 0; ci < static_cast<int>(pattern_->constraints().size());
         ++ci) {
      const TemporalConstraint& c = pattern_->constraints()[ci];
      const bool touches = (c.a == sym && (placed & (1u << c.b))) ||
                           (c.b == sym && (placed & (1u << c.a)));
      if (touches) {
        sel *= stats.selectivity_ema(ci);
        ++applicable;
      }
    }
    const double r = r_prev * b * sel;                     // Equation 3
    cost += r_prev * r + FindMatchesCost(b, applicable);   // Equation 2
    r_prev = r;
    placed |= 1u << sym;
  }
  return cost;
}

bool PlanOptimizer::ConnectedToSubset(int symbol, uint32_t subset) const {
  for (int other = 0; other < pattern_->num_symbols(); ++other) {
    if ((subset & (1u << other)) &&
        pattern_->ConstraintIndex(symbol, other) >= 0) {
      return true;
    }
  }
  return false;
}

std::vector<int> PlanOptimizer::BestOrder(const MatcherStats& stats) const {
  const int n = pattern_->num_symbols();
  const uint32_t full = (1u << n) - 1;
  const double inf = std::numeric_limits<double>::infinity();

  // DP over the set of already-visited order positions. The per-seed
  // trajectories only depend on that subset: for seed s, the bound set
  // after a prefix P is P | {s}, so the summed step cost of appending a
  // symbol is a function of (subset, symbol) alone.
  auto summed_step_cost = [&](uint32_t prefix, int symbol) {
    double total = 0.0;
    for (const Seed& seed : seeds_) {
      if (seed.symbol == symbol) continue;  // intercepted: negligible
      total += StepCost(symbol, prefix | (1u << seed.symbol), stats, seed);
    }
    return total;
  };

  std::vector<double> best_cost(full + 1, inf);
  std::vector<int> best_last(full + 1, -1);

  for (int s = 0; s < n; ++s) {
    best_cost[1u << s] = summed_step_cost(0, s);
    best_last[1u << s] = s;
  }

  for (uint32_t subset = 1; subset <= full; ++subset) {
    if (best_cost[subset] == inf || subset == full) continue;

    // Prefer connected extensions; fall back to cross products only when
    // no symbol outside the subset is connected to it.
    bool any_connected = false;
    for (int s = 0; s < n; ++s) {
      if (!(subset & (1u << s)) && ConnectedToSubset(s, subset)) {
        any_connected = true;
        break;
      }
    }
    for (int s = 0; s < n; ++s) {
      if (subset & (1u << s)) continue;
      if (any_connected && !ConnectedToSubset(s, subset)) continue;
      const uint32_t next = subset | (1u << s);
      const double total = best_cost[subset] + summed_step_cost(subset, s);
      if (total < best_cost[next]) {
        best_cost[next] = total;
        best_last[next] = s;
      }
    }
  }

  std::vector<int> order;
  order.reserve(n);
  uint32_t subset = full;
  while (subset != 0) {
    const int s = best_last[subset];
    order.push_back(s);
    subset &= ~(1u << s);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<std::vector<int>> PlanOptimizer::EnumerateOrders() const {
  const int n = pattern_->num_symbols();
  std::vector<std::vector<int>> out;
  std::vector<int> current;
  uint32_t placed = 0;

  // Depth-first enumeration with the same cross-product rule as the DP.
  std::function<void()> recurse = [&]() {
    if (static_cast<int>(current.size()) == n) {
      out.push_back(current);
      return;
    }
    bool any_connected = false;
    if (!current.empty()) {
      for (int s = 0; s < n; ++s) {
        if (!(placed & (1u << s)) && ConnectedToSubset(s, placed)) {
          any_connected = true;
          break;
        }
      }
    }
    for (int s = 0; s < n; ++s) {
      if (placed & (1u << s)) continue;
      if (!current.empty() && any_connected && !ConnectedToSubset(s, placed)) {
        continue;
      }
      placed |= 1u << s;
      current.push_back(s);
      recurse();
      current.pop_back();
      placed &= ~(1u << s);
    }
  };
  recurse();
  return out;
}

AdaptiveController::Planner::Planner(const TemporalPattern* pattern,
                                     Options options)
    : optimizer_(pattern, options.low_latency), options_(options) {
  if (options_.plan_cache != nullptr) {
    plan_key_prefix_ = PatternPlanKey(*pattern, options_.low_latency);
  }
  if (options_.metrics != nullptr) {
    reopt_ctr_ = options_.metrics->GetCounter("optimizer.reoptimizations");
    switches_ctr_ = options_.metrics->GetCounter("optimizer.plan_switches");
    buffer_drift_gauge_ = options_.metrics->GetGauge("optimizer.buffer_drift");
    selectivity_drift_gauge_ =
        options_.metrics->GetGauge("optimizer.selectivity_drift");
  }
}

AdaptiveController::AdaptiveController(const TemporalPattern* pattern,
                                       Options options)
    : AdaptiveController(std::make_shared<const Planner>(pattern, options)) {}

AdaptiveController::AdaptiveController(std::shared_ptr<const Planner> planner)
    : planner_(std::move(planner)),
      check_interval_(planner_->options_.check_interval) {}

AdaptiveController::AdaptiveController(std::shared_ptr<const Planner> planner,
                                       const AdaptiveController& state)
    : AdaptiveController(state) {
  planner_ = std::move(planner);
  check_interval_ = planner_->options_.check_interval;
}

void AdaptiveController::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kController);
  w.I64(calls_);
  w.I64(reoptimizations_);
  w.I64(migrations_);
  w.Bool(initialized_);
  w.U64(snapshot_buffers_.size());
  for (double v : snapshot_buffers_) w.F64(v);
  w.U64(snapshot_selectivities_.size());
  for (double v : snapshot_selectivities_) w.F64(v);
  w.U32(static_cast<uint32_t>(current_order_.size()));
  for (int s : current_order_) w.U32(static_cast<uint32_t>(s));
  w.EndSection(cookie);
}

Status AdaptiveController::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kController);
  const int64_t calls = r.I64();
  const int64_t reoptimizations = r.I64();
  const int64_t migrations = r.I64();
  const bool initialized = r.Bool();
  const uint64_t num_buffers = r.U64();
  if (num_buffers > r.remaining() / 8) {
    r.Fail(Status::ParseError("checkpoint: controller size exceeds input"));
    return r.status();
  }
  std::vector<double> buffers(num_buffers);
  for (double& v : buffers) v = r.F64();
  const uint64_t num_selectivities = r.U64();
  if (num_selectivities > r.remaining() / 8) {
    r.Fail(Status::ParseError("checkpoint: controller size exceeds input"));
    return r.status();
  }
  std::vector<double> selectivities(num_selectivities);
  for (double& v : selectivities) v = r.F64();
  const uint32_t order_size = r.U32();
  if (order_size > r.remaining() / 4) {
    r.Fail(Status::ParseError("checkpoint: controller size exceeds input"));
    return r.status();
  }
  std::vector<int> order(order_size);
  for (int& s : order) s = static_cast<int>(r.U32());
  Status status = r.EndSection(end);
  if (!status.ok()) return status;
  calls_ = calls;
  reoptimizations_ = reoptimizations;
  migrations_ = migrations;
  initialized_ = initialized;
  snapshot_buffers_ = std::move(buffers);
  snapshot_selectivities_ = std::move(selectivities);
  current_order_ = std::move(order);
  return Status::OK();
}

bool AdaptiveController::Drifted(const MatcherStats& stats) const {
  auto deviation = [](double current, double snapshot) {
    const double base = std::max(std::abs(snapshot), 1e-9);
    return std::abs(current - snapshot) / base;
  };
  double max_buffer_dev = 0.0;
  for (size_t i = 0; i < snapshot_buffers_.size(); ++i) {
    max_buffer_dev = std::max(
        max_buffer_dev, deviation(stats.buffer_emas()[i], snapshot_buffers_[i]));
  }
  double max_sel_dev = 0.0;
  for (size_t i = 0; i < snapshot_selectivities_.size(); ++i) {
    max_sel_dev =
        std::max(max_sel_dev, deviation(stats.selectivity_emas()[i],
                                        snapshot_selectivities_[i]));
  }
  const Planner& p = *planner_;
  if (p.buffer_drift_gauge_ != nullptr) {
    p.buffer_drift_gauge_->Set(max_buffer_dev);
  }
  if (p.selectivity_drift_gauge_ != nullptr) {
    p.selectivity_drift_gauge_->Set(max_sel_dev);
  }
  return max_buffer_dev > p.options_.threshold ||
         max_sel_dev > p.options_.threshold;
}

std::optional<std::vector<int>> AdaptiveController::MaybeReoptimize(
    const MatcherStats& stats) {
  ++calls_;
  if (initialized_) {
    if (calls_ % check_interval_ != 0) return std::nullopt;
    if (!Drifted(stats)) return std::nullopt;
  }
  const Planner& p = *planner_;
  snapshot_buffers_ = stats.buffer_emas();
  snapshot_selectivities_ = stats.selectivity_emas();
  ++reoptimizations_;
  if (p.reopt_ctr_ != nullptr) p.reopt_ctr_->Inc();
  std::vector<int> order =
      p.options_.plan_cache != nullptr
          ? p.options_.plan_cache->GetOrCompute(
                p.plan_key_prefix_ + StatsPlanKey(stats),
                [&] { return p.optimizer_.BestOrder(stats); })
          : p.optimizer_.BestOrder(stats);
  if (initialized_ && order == current_order_) return std::nullopt;
  current_order_ = order;
  initialized_ = true;
  ++migrations_;
  if (p.switches_ctr_ != nullptr) p.switches_ctr_->Inc();
  return order;
}

}  // namespace tpstream
