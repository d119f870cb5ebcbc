#include "tuplemerge/tuplemerge.hpp"

#include <algorithm>

#include "common/mem.hpp"

namespace nuevomatch {

TupleMerge::TupleMerge(TupleMergeConfig cfg) : cfg_(cfg) {}

TupleMerge::TupleMerge(const TupleMerge& o)
    : cfg_(o.cfg_),
      rules_(o.rules_),
      alive_(o.alive_),
      pos_by_id_(o.pos_by_id_),
      live_rules_(o.live_rules_) {
  tables_.reserve(o.tables_.size());
  for (const auto& t : o.tables_) tables_.push_back(std::make_unique<TupleTable>(*t));
}

TupleMerge& TupleMerge::operator=(const TupleMerge& o) {
  if (this != &o) *this = TupleMerge{o};  // copy-construct, then move-assign
  return *this;
}

namespace {

/// Table mask for a new table holding rules of tuple `t`: TupleMerge keys
/// it on the IPv4 prefix lengths alone, rounded down to a coarse granularity
/// and capped, with port and protocol lengths 0, so rules that differ only
/// in port or protocol shape share the table; TSS keeps `t` as-is. The
/// table count is the quantity that dominates lookup cost, and few tables
/// let a priority floor skip whole tables; Rule::matches checks every
/// candidate, and the collision limit splits an overfull key back out into
/// an exact-tuple table that keeps its port bits.
TupleMask relaxed_mask(const TupleMask& t, const TupleMergeConfig& cfg) {
  if (!cfg.enable_merging) return t;
  TupleMask m{};
  for (int f : {kSrcIp, kDstIp}) {
    const int g = std::max(1, cfg.ip_len_granularity);
    m.len[static_cast<size_t>(f)] = static_cast<uint8_t>(
        std::min(cfg.ip_len_cap, t.len[static_cast<size_t>(f)] / g * g));
  }
  return m;
}

}  // namespace

void TupleMerge::build(std::span<const Rule> rules) {
  rules_.assign(rules.begin(), rules.end());
  alive_.assign(rules_.size(), 1);
  live_rules_ = rules_.size();
  pos_by_id_.clear();
  pos_by_id_.reserve(rules_.size());
  for (uint32_t i = 0; i < rules_.size(); ++i) pos_by_id_.emplace(rules_[i].id, i);
  tables_.clear();
  // Priority order makes early termination effective from the start.
  std::vector<uint32_t> order(rules_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return rules_[a].priority < rules_[b].priority;
  });
  for (uint32_t pos : order) insert_into_tables(pos);
  // Fold every table's update region into its flat layout: bulk build must
  // leave nothing on the linear-scan path.
  for (auto& tbl : tables_) tbl->compact();
  sort_tables();
}

void TupleMerge::insert_into_tables(uint32_t rule_pos) {
  const Rule& r = rules_[rule_pos];
  const TupleMask t = tuple_of(r);

  // Most specific existing table that can hold this rule.
  TupleTable* best = nullptr;
  for (auto& tbl : tables_) {
    if (!tbl->mask().covers(t)) continue;
    if (!cfg_.enable_merging && !(tbl->mask() == t)) continue;
    if (best == nullptr || tbl->mask().specificity() > best->mask().specificity())
      best = tbl.get();
  }
  if (best == nullptr) {
    tables_.push_back(std::make_unique<TupleTable>(relaxed_mask(t, cfg_)));
    best = tables_.back().get();
  }
  best->insert(r, rule_pos);

  // TupleMerge split: an overfull relaxed table spills the colliding tuple
  // back into its own exact table.
  if (cfg_.enable_merging && best->max_collisions() > cfg_.collision_limit &&
      !(best->mask() == t)) {
    auto moved = best->extract_tuple(t, rules_);
    if (!moved.empty()) {
      tables_.push_back(std::make_unique<TupleTable>(t));
      TupleTable* fresh = tables_.back().get();
      for (const auto& e : moved) fresh->insert(rules_[e.rule_pos], e.rule_pos);
    }
  }
}

void TupleMerge::sort_tables() {
  std::sort(tables_.begin(), tables_.end(), [](const auto& a, const auto& b) {
    return a->best_rank() < b->best_rank();
  });
}

MatchResult TupleMerge::match(const Packet& p) const {
  return match_with_floor(p, std::numeric_limits<int32_t>::max());
}

MatchResult TupleMerge::match_with_floor(const Packet& p, int32_t priority_floor) const {
  // The running best is a rule_rank bound that starts at the floor, so the
  // tie order of MatchResult::beats holds across tables as well as inside
  // buckets: a table whose best rule ties the current best's priority is
  // still probed when that rule's id is smaller.
  const uint64_t floor = rule_rank(priority_floor, 0);
  uint64_t best = floor;
  for (const auto& tbl : tables_) {
    if (tbl->best_rank() >= best) break;  // sorted: nothing better left
    tbl->probe_best(p, rules_, alive_, best);
  }
  if (best == floor) return MatchResult{};
  return MatchResult{static_cast<int32_t>(static_cast<uint32_t>(best)), rank_priority(best)};
}

bool TupleMerge::insert(const Rule& r) {
  rules_.push_back(r);
  alive_.push_back(1);
  ++live_rules_;
  const auto pos = static_cast<uint32_t>(rules_.size() - 1);
  pos_by_id_.emplace(r.id, pos);  // emplace keeps the oldest on dup ids
  insert_into_tables(pos);
  sort_tables();
  return true;
}

bool TupleMerge::erase(uint32_t rule_id) {
  uint32_t pos = 0;
  const auto it = pos_by_id_.find(rule_id);
  if (it != pos_by_id_.end()) {
    pos = it->second;
  } else {
    // Not mapped: either absent, already erased, or a duplicate id whose
    // mapped occurrence was erased earlier. Match the legacy semantics
    // (first *alive* occurrence) with a scan.
    while (pos < rules_.size() && !(rules_[pos].id == rule_id && alive_[pos])) ++pos;
    if (pos == rules_.size()) return false;
  }
  if (!alive_[pos]) return false;
  for (auto& tbl : tables_) {
    const uint64_t best_before = tbl->best_rank();
    if (tbl->erase(pos, rules_[pos])) {
      alive_[pos] = 0;
      --live_rules_;
      if (it != pos_by_id_.end()) pos_by_id_.erase(it);
      // Erasing a table's best rule RAISES its best_rank, breaking the
      // ascending order match_with_floor's early-termination break relies
      // on — later tables with better rules would be skipped. Restore it
      // (only when the bound actually moved: this runs inside the online
      // writer's generation-exclusive section).
      if (tbl->best_rank() != best_before) sort_tables();
      return true;
    }
  }
  return false;
}

size_t TupleMerge::memory_bytes() const {
  size_t bytes = tables_.size() * sizeof(TupleTable);
  for (const auto& t : tables_) bytes += t->memory_bytes();
  bytes += map_overhead_bytes(pos_by_id_);
  return bytes;
}

}  // namespace nuevomatch
