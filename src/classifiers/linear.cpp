#include "classifiers/linear.hpp"

#include <algorithm>

namespace nuevomatch {

namespace {
bool priority_less(const Rule& a, const Rule& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.id < b.id;
}
}  // namespace

void LinearSearch::build(std::span<const Rule> rules) {
  rules_.assign(rules.begin(), rules.end());
  std::sort(rules_.begin(), rules_.end(), priority_less);
}

MatchResult LinearSearch::match_with_floor(const Packet& p, int32_t priority_floor) const {
  for (const Rule& r : rules_) {
    if (r.priority >= priority_floor) break;  // sorted: nothing better follows
    if (r.matches(p)) return MatchResult{static_cast<int32_t>(r.id), r.priority};
  }
  return MatchResult{};
}

bool LinearSearch::insert(const Rule& r) {
  const auto it = std::lower_bound(rules_.begin(), rules_.end(), r, priority_less);
  rules_.insert(it, r);
  return true;
}

bool LinearSearch::erase(uint32_t rule_id) {
  const auto it = std::find_if(rules_.begin(), rules_.end(),
                               [&](const Rule& r) { return r.id == rule_id; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  return true;
}

size_t LinearSearch::memory_bytes() const { return rules_.size() * sizeof(Rule); }

}  // namespace nuevomatch
