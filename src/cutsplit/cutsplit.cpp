#include "cutsplit/cutsplit.hpp"

namespace nuevomatch {

std::array<std::vector<Rule>, 4> partition_by_small_fields(std::span<const Rule> rules,
                                                           int small_threshold_bits) {
  const uint64_t limit = uint64_t{1} << small_threshold_bits;
  std::array<std::vector<Rule>, 4> groups;
  for (const Rule& r : rules) {
    const bool src_small = r.field[kSrcIp].span() <= limit;
    const bool dst_small = r.field[kDstIp].span() <= limit;
    const size_t g = (src_small ? 1u : 0u) | (dst_small ? 2u : 0u);
    groups[g].push_back(r);
  }
  return groups;
}

CutSplit::CutSplit(CutSplitConfig cfg) : cfg_(cfg) {}

void CutSplit::build(std::span<const Rule> rules) {
  trees_.clear();
  overflow_.clear();
  n_rules_ = rules.size();
  CutTreeConfig tc = cfg_.tree;
  tc.binth = cfg_.binth;
  for (auto& group : partition_by_small_fields(rules, cfg_.small_threshold_bits)) {
    if (group.empty()) continue;
    CutTree tree;
    tree.build(group, tc);
    trees_.push_back(std::move(tree));
  }
}

MatchResult CutSplit::match_with_floor(const Packet& p, int32_t priority_floor) const {
  MatchResult best;
  int32_t floor = priority_floor;
  for (const CutTree& t : trees_) {
    const MatchResult r = t.match_with_floor(p, floor);
    if (r.beats(best)) {
      best = r;
      // Later trees prune against the running best, but must still admit an
      // equal-priority rule with a smaller id (beats() breaks the tie).
      floor = best.tie_floor();
    }
  }
  // Overflow probe: bound by the CALLER's floor (strict, per the
  // match_with_floor contract), but ties against the running best are
  // broken by smaller id via beats() — the (priority, id) order the
  // LinearSearch oracle uses — so equal-priority rules cannot make CutSplit
  // diverge from it.
  for (const Rule& r : overflow_) {
    if (r.priority >= priority_floor) continue;
    const MatchResult cand{static_cast<int32_t>(r.id), r.priority};
    if (cand.beats(best) && r.matches(p)) best = cand;
  }
  return best;
}

bool CutSplit::insert(const Rule& r) {
  overflow_.push_back(r);
  ++n_rules_;
  return true;
}

bool CutSplit::erase(uint32_t rule_id) {
  for (size_t i = 0; i < overflow_.size(); ++i) {
    if (overflow_[i].id == rule_id) {
      overflow_[i] = overflow_.back();
      overflow_.pop_back();
      --n_rules_;
      return true;
    }
  }
  for (CutTree& t : trees_) {
    if (t.erase(rule_id)) {
      --n_rules_;
      return true;
    }
  }
  return false;
}

size_t CutSplit::memory_bytes() const {
  size_t bytes = 0;
  for (const CutTree& t : trees_) bytes += t.memory_bytes();
  // The overflow list is itself the index for inserted rules.
  bytes += overflow_.size() * sizeof(Rule);
  return bytes;
}

}  // namespace nuevomatch
