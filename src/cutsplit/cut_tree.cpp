#include "cutsplit/cut_tree.hpp"

#include "common/mem.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace nuevomatch {

namespace {

constexpr size_t kSampleCap = 256;  // rule sample for heuristic estimates

Range intersect(const Range& a, const Range& b) noexcept {
  return Range{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

}  // namespace

void CutTree::build(std::span<const Rule> rules, const CutTreeConfig& cfg) {
  cfg_ = cfg;
  rules_.assign(rules.begin(), rules.end());
  nodes_.clear();
  leaf_rules_.clear();
  n_rules_ = rules_.size();
  pos_by_id_.clear();
  pos_by_id_.reserve(rules_.size());
  for (uint32_t i = 0; i < rules_.size(); ++i) pos_by_id_.emplace(rules_[i].id, i);

  // Every rule-set must at least fit in one root leaf; beyond that the
  // budget scales linearly so replication stays <= ref_budget_factor.
  ref_budget_ = std::max(rules_.size(),
                         static_cast<size_t>(cfg_.ref_budget_factor *
                                             static_cast<double>(rules_.size())));
  pending_refs_ = 0;

  Region root_region;
  for (int f = 0; f < kNumFields; ++f) root_region[static_cast<size_t>(f)] = full_range(f);
  std::vector<uint32_t> all(rules_.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  nodes_.emplace_back();
  build_node(0, std::move(all), root_region, 0, 1.0);
}

int CutTree::choose_dim(std::span<const uint32_t> rule_idx, const Region& region) const {
  const size_t sample = std::min(rule_idx.size(), kSampleCap);
  int best_dim = 0;
  double best_score = -1.0;
  for (int f = 0; f < kNumFields; ++f) {
    const Range& reg = region[static_cast<size_t>(f)];
    if (reg.lo >= reg.hi) continue;  // cannot cut a single point
    double score = 0.0;
    switch (cfg_.dim_policy) {
      case CutTreeConfig::DimPolicy::kMaxDistinct: {
        std::unordered_set<uint64_t> distinct;
        for (size_t i = 0; i < sample; ++i) {
          const Range r = intersect(rules_[rule_idx[i]].field[static_cast<size_t>(f)], reg);
          distinct.insert((static_cast<uint64_t>(r.lo) << 32) | r.hi);
        }
        score = static_cast<double>(distinct.size());
        break;
      }
      case CutTreeConfig::DimPolicy::kLargestSpan:
        score = static_cast<double>(reg.span()) /
                static_cast<double>(kFieldDomain[static_cast<size_t>(f)] + 1);
        break;
      case CutTreeConfig::DimPolicy::kMinReplication:
        score = -replication_estimate(rule_idx, f, region, cfg_.max_fanout);
        break;
    }
    if (score > best_score) {
      best_score = score;
      best_dim = f;
    }
  }
  return best_dim;
}

double CutTree::replication_estimate(std::span<const uint32_t> rule_idx, int dim,
                                     const Region& region, int fanout) const {
  const Range& reg = region[static_cast<size_t>(dim)];
  const uint64_t span = reg.span();
  const uint64_t width = std::max<uint64_t>(1, (span + static_cast<uint64_t>(fanout) - 1) /
                                                   static_cast<uint64_t>(fanout));
  const size_t sample = std::min(rule_idx.size(), kSampleCap);
  if (sample == 0) return 1.0;
  double total = 0.0;
  for (size_t i = 0; i < sample; ++i) {
    const Range r = intersect(rules_[rule_idx[i]].field[static_cast<size_t>(dim)], reg);
    const uint64_t c0 = (r.lo - reg.lo) / width;
    const uint64_t c1 = (r.hi - reg.lo) / width;
    total += static_cast<double>(c1 - c0 + 1);
  }
  return total / static_cast<double>(sample);
}

void CutTree::build_node(uint32_t node_idx, std::vector<uint32_t>&& rule_idx,
                         const Region& region, uint32_t depth, double repl_so_far) {
  Node& self = nodes_[node_idx];
  self.depth = depth;
  self.best_priority = std::numeric_limits<int32_t>::max();
  for (uint32_t i : rule_idx) self.best_priority = std::min(self.best_priority, rules_[i].priority);

  const auto make_leaf = [&](std::vector<uint32_t>& idx) {
    Node& n = nodes_[node_idx];  // re-fetch: nodes_ may have reallocated
    n.kind = Node::Kind::kLeaf;
    n.leaf_begin = static_cast<uint32_t>(leaf_rules_.size());
    n.leaf_count = static_cast<uint32_t>(idx.size());
    std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
      if (rules_[a].priority != rules_[b].priority)
        return rules_[a].priority < rules_[b].priority;
      return rules_[a].id < rules_[b].id;
    });
    leaf_rules_.insert(leaf_rules_.end(), idx.begin(), idx.end());
  };

  if (rule_idx.size() <= static_cast<size_t>(cfg_.binth) ||
      depth >= static_cast<uint32_t>(cfg_.max_depth) ||
      nodes_.size() + static_cast<size_t>(cfg_.max_fanout) >= cfg_.max_nodes) {
    make_leaf(rule_idx);
    return;
  }

  // Refinement may proceed only while the projected reference total —
  // committed leaves, every pending frontier node, and this node's children —
  // fits the budget. This makes `replication <= ref_budget_factor` a hard
  // post-condition rather than a best-effort goal.
  const auto refs_available = [&](size_t child_total) {
    return leaf_rules_.size() + pending_refs_ + child_total <= ref_budget_;
  };

  const int dim = choose_dim(rule_idx, region);
  const Range& reg = region[static_cast<size_t>(dim)];

  // --- cut phase ---------------------------------------------------------
  const uint64_t span = reg.span();
  const int fanout = static_cast<int>(
      std::min<uint64_t>(static_cast<uint64_t>(cfg_.max_fanout), span));
  const double repl = replication_estimate(rule_idx, dim, region, fanout);
  const bool cut_effective = fanout >= 2 && repl <= cfg_.max_replication &&
                             repl * repl_so_far <= cfg_.path_replication_budget;

  if (cut_effective) {
    const uint64_t width =
        std::max<uint64_t>(1, (span + static_cast<uint64_t>(fanout) - 1) /
                                  static_cast<uint64_t>(fanout));
    const auto n_children =
        static_cast<uint32_t>((span + width - 1) / width);

    // Exact per-child occupancy (each rule lands in children [c0, c1]).
    std::vector<size_t> child_count(n_children, 0);
    size_t child_total = 0;
    for (uint32_t i : rule_idx) {
      const Range r = intersect(rules_[i].field[static_cast<size_t>(dim)], reg);
      const uint64_t c0 = (r.lo - reg.lo) / width;
      const uint64_t c1 = (r.hi - reg.lo) / width;
      for (uint64_t c = c0; c <= c1; ++c) ++child_count[c];
      child_total += static_cast<size_t>(c1 - c0 + 1);
    }

    if (refs_available(child_total)) {
      const uint32_t first = static_cast<uint32_t>(nodes_.size());
      {
        Node& n = nodes_[node_idx];
        n.kind = Node::Kind::kCut;
        n.dim = static_cast<uint8_t>(dim);
        n.first_child = first;
        n.n_children = n_children;
        n.cut_lo = reg.lo;
        n.child_width = width;
      }
      nodes_.resize(nodes_.size() + n_children);
      pending_refs_ += child_total;
      for (uint32_t c = 0; c < n_children; ++c) {
        const uint64_t clo = reg.lo + static_cast<uint64_t>(c) * width;
        const uint64_t chi = std::min<uint64_t>(reg.hi, clo + width - 1);
        Region child_region = region;
        child_region[static_cast<size_t>(dim)] =
            Range{static_cast<uint32_t>(clo), static_cast<uint32_t>(chi)};
        std::vector<uint32_t> child_rules;
        child_rules.reserve(child_count[c]);
        for (uint32_t i : rule_idx) {
          if (rules_[i].field[static_cast<size_t>(dim)].overlaps(
                  child_region[static_cast<size_t>(dim)]))
            child_rules.push_back(i);
        }
        pending_refs_ -= child_rules.size();
        build_node(first + c, std::move(child_rules), child_region, depth + 1,
                   repl_so_far * std::max(1.0, repl));
      }
      return;
    }
  }

  // --- split phase (HyperSplit-style binary endpoint split) ---------------
  if (cfg_.enable_split_phase && span >= 2) {
    // Candidate split points: projected range endpoints inside the region.
    std::vector<uint32_t> points;
    const size_t sample = std::min(rule_idx.size(), kSampleCap);
    for (size_t i = 0; i < sample; ++i) {
      const Range r = intersect(rules_[rule_idx[i]].field[static_cast<size_t>(dim)], reg);
      if (r.hi < reg.hi) points.push_back(r.hi);
      if (r.lo > reg.lo) points.push_back(r.lo - 1);
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());

    // left(pt) = #rules with lo <= pt, right(pt) = #rules with hi > pt:
    // both answered in O(log n) from sorted endpoint arrays.
    std::vector<uint32_t> los, his;
    los.reserve(rule_idx.size());
    his.reserve(rule_idx.size());
    for (uint32_t i : rule_idx) {
      const Range& r = rules_[i].field[static_cast<size_t>(dim)];
      los.push_back(r.lo);
      his.push_back(r.hi);
    }
    std::sort(los.begin(), los.end());
    std::sort(his.begin(), his.end());

    uint32_t best_point = 0;
    size_t best_worst = rule_idx.size();
    for (uint32_t pt : points) {
      const size_t left = static_cast<size_t>(
          std::upper_bound(los.begin(), los.end(), pt) - los.begin());
      const size_t right = rule_idx.size() -
                           static_cast<size_t>(std::upper_bound(his.begin(), his.end(),
                                                                pt) -
                                               his.begin());
      const size_t worst = std::max(left, right);
      if (worst < best_worst) {
        best_worst = worst;
        best_point = pt;
      }
    }
    if (best_worst < rule_idx.size() && nodes_.size() + 2 < cfg_.max_nodes) {
      std::array<std::vector<uint32_t>, 2> side_rules;
      std::array<Region, 2> side_region{region, region};
      side_region[0][static_cast<size_t>(dim)] = Range{reg.lo, best_point};
      side_region[1][static_cast<size_t>(dim)] = Range{best_point + 1, reg.hi};
      for (uint32_t i : rule_idx) {
        for (int side = 0; side < 2; ++side) {
          if (rules_[i].field[static_cast<size_t>(dim)].overlaps(
                  side_region[static_cast<size_t>(side)][static_cast<size_t>(dim)]))
            side_rules[static_cast<size_t>(side)].push_back(i);
        }
      }
      if (refs_available(side_rules[0].size() + side_rules[1].size())) {
        const uint32_t first = static_cast<uint32_t>(nodes_.size());
        {
          Node& n = nodes_[node_idx];
          n.kind = Node::Kind::kSplit;
          n.dim = static_cast<uint8_t>(dim);
          n.first_child = first;
          n.split_point = best_point;
        }
        nodes_.resize(nodes_.size() + 2);
        // Splits replicate only straddling rules; charge the measured factor.
        const double split_repl =
            static_cast<double>(side_rules[0].size() + side_rules[1].size()) /
            static_cast<double>(rule_idx.size());
        pending_refs_ += side_rules[0].size() + side_rules[1].size();
        for (int side = 0; side < 2; ++side) {
          pending_refs_ -= side_rules[static_cast<size_t>(side)].size();
          build_node(first + static_cast<uint32_t>(side),
                     std::move(side_rules[static_cast<size_t>(side)]),
                     side_region[static_cast<size_t>(side)], depth + 1,
                     repl_so_far * std::max(1.0, split_repl));
        }
        return;
      }
    }
  }

  make_leaf(rule_idx);  // no effective refinement possible
}

bool CutTree::erase(uint32_t rule_id) noexcept {
  const auto it = pos_by_id_.find(rule_id);
  if (it == pos_by_id_.end()) return false;
  // Range{1, 0} contains no value, so every leaf probe of this body fails.
  rules_[it->second].field[0] = Range{1, 0};
  pos_by_id_.erase(it);
  return true;
}

MatchResult CutTree::match_with_floor(const Packet& p, int32_t priority_floor) const noexcept {
  if (nodes_.empty()) return MatchResult{};
  const Node* n = &nodes_[0];
  for (;;) {
    if (n->best_priority >= priority_floor) return MatchResult{};
    switch (n->kind) {
      case Node::Kind::kLeaf: {
        for (uint32_t i = 0; i < n->leaf_count; ++i) {
          const Rule& r = rules_[leaf_rules_[n->leaf_begin + i]];
          if (r.priority >= priority_floor) break;  // leaf sorted by priority
          if (r.matches(p)) return MatchResult{static_cast<int32_t>(r.id), r.priority};
        }
        return MatchResult{};
      }
      case Node::Kind::kCut: {
        const uint32_t v = p[n->dim];
        uint64_t c = (static_cast<uint64_t>(v) - n->cut_lo) / n->child_width;
        if (c >= n->n_children) c = n->n_children - 1;
        n = &nodes_[n->first_child + static_cast<uint32_t>(c)];
        break;
      }
      case Node::Kind::kSplit: {
        const uint32_t v = p[n->dim];
        n = &nodes_[n->first_child + (v <= n->split_point ? 0u : 1u)];
        break;
      }
    }
  }
}

size_t CutTree::memory_bytes() const noexcept {
  return nodes_.size() * sizeof(Node) + leaf_rules_.size() * sizeof(uint32_t) +
         map_overhead_bytes(pos_by_id_);
}

CutTree::Stats CutTree::stats() const noexcept {
  Stats s;
  s.nodes = nodes_.size();
  double depth_sum = 0.0;
  for (const Node& n : nodes_) {
    s.max_depth = std::max<size_t>(s.max_depth, n.depth);
    if (n.kind == Node::Kind::kLeaf) {
      ++s.leaves;
      depth_sum += n.depth;
      s.max_leaf_rules = std::max<size_t>(s.max_leaf_rules, n.leaf_count);
    }
  }
  if (s.leaves > 0) s.avg_leaf_depth = depth_sum / static_cast<double>(s.leaves);
  if (n_rules_ > 0)
    s.replication =
        static_cast<double>(leaf_rules_.size()) / static_cast<double>(n_rules_);
  return s;
}

}  // namespace nuevomatch
