#include "neurocuts/neurocuts.hpp"

#include <chrono>
#include <limits>

#include "common/rng.hpp"
#include "cutsplit/cutsplit.hpp"

namespace nuevomatch {

NeuroCutsLike::NeuroCutsLike(NeuroCutsConfig cfg) : cfg_(cfg) {}

namespace {

/// Probe packets drawn uniformly from the rules' hyper-cubes — the same
/// distribution the evaluation traces use, so the reward ranks candidate
/// trees by the cost they will actually pay.
std::vector<Packet> make_probes(std::span<const Rule> rules, size_t count, Rng& rng) {
  std::vector<Packet> probes;
  probes.reserve(count);
  if (rules.empty()) return probes;
  for (size_t i = 0; i < count; ++i) {
    const Rule& r = rules[rng.below(rules.size())];
    Packet p;
    for (int f = 0; f < kNumFields; ++f) {
      const Range& rg = r.field[static_cast<size_t>(f)];
      p.field[static_cast<size_t>(f)] =
          rg.lo + static_cast<uint32_t>(rng.below(rg.span()));
    }
    probes.push_back(p);
  }
  return probes;
}

}  // namespace

double NeuroCutsLike::score(const std::vector<CutTree>& trees,
                            std::span<const Packet> probes) const {
  // NeuroCuts' reward is (negative) classification time or memory footprint.
  // The time reward is measured directly: mean lookup cost over the probes.
  size_t bytes = 0;
  for (const CutTree& t : trees) bytes += t.memory_bytes();
  const auto t0 = std::chrono::steady_clock::now();
  int64_t sink = 0;
  for (const Packet& p : probes) {
    MatchResult best;
    for (const CutTree& t : trees) {
      const MatchResult r = t.match_with_floor(p, best.tie_floor());
      if (r.beats(best)) best = r;
    }
    sink += best.rule_id;
  }
  const auto t1 = std::chrono::steady_clock::now();
  score_sink_ = sink;
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                    static_cast<double>(std::max<size_t>(1, probes.size()));
  if (cfg_.reward == NeuroCutsConfig::Reward::kTime)
    return ns + 1e-7 * static_cast<double>(bytes);
  return static_cast<double>(bytes) + 1e-3 * ns;
}

void NeuroCutsLike::build(std::span<const Rule> rules) {
  n_rules_ = rules.size();
  Rng rng{cfg_.seed};
  const std::vector<Packet> probes = make_probes(rules, 2048, rng);

  const int fanouts[] = {4, 8, 16, 32};
  const int binths[] = {4, 8, 16};
  const double repls[] = {1.5, 3.0, 6.0};
  const CutTreeConfig::DimPolicy policies[] = {
      CutTreeConfig::DimPolicy::kMaxDistinct,
      CutTreeConfig::DimPolicy::kLargestSpan,
      CutTreeConfig::DimPolicy::kMinReplication,
  };

  double best_score = std::numeric_limits<double>::infinity();
  for (int it = 0; it < cfg_.search_iterations; ++it) {
    // Episode 0 replays the known-good heuristic configuration (partitioned,
    // distinct-dimension cuts, split fallback); later episodes explore. This
    // mirrors how the RL search warm-starts from existing heuristics and
    // guarantees the output never regresses below them.
    CutTreeConfig tc;
    bool partitioned = true;  // NeuroCuts' top-node partition action
    if (it > 0) {
      tc.max_fanout = fanouts[rng.below(4)];
      tc.binth = binths[rng.below(3)];
      tc.max_replication = repls[rng.below(3)];
      tc.dim_policy = policies[rng.below(3)];
      tc.enable_split_phase = rng.chance(0.5);
      partitioned = rng.chance(0.5);
    }

    std::vector<CutTree> trees;
    if (partitioned) {
      for (auto& group : partition_by_small_fields(rules, 16)) {
        if (group.empty()) continue;
        CutTree t;
        t.build(group, tc);
        trees.push_back(std::move(t));
      }
    } else {
      CutTree t;
      t.build(rules, tc);
      trees.push_back(std::move(t));
    }
    const double s = score(trees, probes);
    if (s < best_score) {
      best_score = s;
      trees_ = std::move(trees);
      best_cfg_ = tc;
      best_partitioned_ = partitioned;
    }
  }
}

MatchResult NeuroCutsLike::match_with_floor(const Packet& p, int32_t priority_floor) const {
  MatchResult best;
  int32_t floor = priority_floor;
  for (const CutTree& t : trees_) {
    const MatchResult r = t.match_with_floor(p, floor);
    if (r.beats(best)) {
      best = r;
      floor = best.tie_floor();  // admit equal-priority rules with smaller ids
    }
  }
  return best;
}

size_t NeuroCutsLike::memory_bytes() const {
  size_t bytes = 0;
  for (const CutTree& t : trees_) bytes += t.memory_bytes();
  return bytes;
}

}  // namespace nuevomatch
