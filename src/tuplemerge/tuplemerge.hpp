// TupleMerge (Daly et al., ToN'19 — paper baseline "tm") and classic Tuple
// Space Search (Srinivasan et al., SIGCOMM'99 — the Open vSwitch slow path).
//
// TupleMerge reduces the number of hash tables by storing rules in tables
// with *relaxed* (less specific) masks. Mask policy: a new table keys on the
// IPv4 prefix lengths only, rounded down to `ip_len_granularity` and capped
// at `ip_len_cap`; its port and protocol lengths are 0, so rules that differ
// only in port or protocol shape share one table and the full-rule
// candidate check tells them apart. A collision limit (40 in the paper)
// splits an overfull key back out into an exact-tuple table, which keeps the
// rules' port and protocol bits. Tuple Space Search gives every exact tuple
// its own table.
//
// Tables are kept sorted by their best rule, so lookups (and the
// early-termination variant, paper Section 4) stop as soon as no remaining
// table can beat the current best match. Fewer, coarser tables are what let
// a NuevoMatch iSet floor skip whole tables. Ties follow MatchResult::beats
// — (priority, id) — in bucket order, in table order and in the pruning
// bound, so equal-priority rules resolve to the smaller id exactly as
// LinearSearch does. Hash tables support O(1) rule insertion/deletion,
// which is why the paper uses tm as the updatable remainder backend
// (Section 3.9). tombstone() is the reader-safe form of deletion that
// OnlineNuevoMatch applies to a published generation's remainder.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "classifiers/classifier.hpp"
#include "tuplemerge/tuple_table.hpp"

namespace nuevomatch {

struct TupleMergeConfig {
  /// Longest tolerated bucket chain before a table is split (paper: 40).
  size_t collision_limit = 40;
  /// Relax IPv4 prefix lengths down to multiples of this granularity when
  /// creating tables, letting nearby tuples share one table (ports and
  /// protocol are always relaxed to length 0; see the mask policy above).
  int ip_len_granularity = 8;
  /// Cap table IPv4 mask lengths: /32 host rules live in the /24 table and
  /// are disambiguated by the candidate check (Daly et al. Section 5.1 keeps
  /// the table population coarse for exactly this reason).
  int ip_len_cap = 24;
  /// Disable merging/relaxation to obtain classic Tuple Space Search.
  bool enable_merging = true;
};

class TupleMerge : public Classifier {
 public:
  explicit TupleMerge(TupleMergeConfig cfg = {});

  void build(std::span<const Rule> rules) override;
  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const override;

  [[nodiscard]] bool supports_updates() const override { return true; }
  /// O(1) hash insert (plus a possible table split) — the property that
  /// makes tm the paper's updatable remainder backend (§3.9).
  bool insert(const Rule& r) override;
  /// O(1) id lookup + hash-bucket removal. Falls back to a linear scan when
  /// the id is not in the map (duplicate-id inserts keep first-wins there).
  bool erase(uint32_t rule_id) override;
  /// Deletion safe against concurrent match_with_floor(): one relaxed
  /// atomic store clears the rule's alive byte, which every probe reads
  /// before it checks a candidate. Nothing else changes — pos_by_id_, the
  /// tables and their best ranks stay as they are (a dead entry only makes
  /// the table order and the bucket early exit conservative), so size()
  /// and memory_bytes() keep counting the rule until the next build().
  /// The caller must guarantee no insert() runs concurrently with readers:
  /// one would grow rules_/alive_ under them. Returns false for an unknown
  /// or already-dead id.
  bool tombstone(uint32_t rule_id) noexcept;

  [[nodiscard]] size_t memory_bytes() const override;
  [[nodiscard]] size_t size() const override { return live_rules_; }
  [[nodiscard]] std::string name() const override {
    return cfg_.enable_merging ? "tuplemerge" : "tss";
  }

  [[nodiscard]] size_t num_tables() const noexcept { return tables_.size(); }
  /// Table inventory (diagnostics, benches and tests).
  [[nodiscard]] const std::vector<std::unique_ptr<TupleTable>>& tables() const noexcept {
    return tables_;
  }

 private:
  void insert_into_tables(uint32_t rule_pos);
  void sort_tables();

  TupleMergeConfig cfg_;
  std::vector<Rule> rules_;                // rule bodies (not counted as index)
  std::vector<uint8_t> alive_;  // 1 live, 0 erased; see tombstone()
  std::unordered_map<uint32_t, uint32_t> pos_by_id_;  // first-wins on dup ids
  size_t live_rules_ = 0;
  std::vector<std::unique_ptr<TupleTable>> tables_;  // sorted by best rank
};

/// Classic Tuple Space Search: one exact table per tuple.
class TupleSpaceSearch final : public TupleMerge {
 public:
  TupleSpaceSearch()
      : TupleMerge(TupleMergeConfig{.collision_limit = 40,
                                    .ip_len_granularity = 1,
                                    .ip_len_cap = 32,
                                    .enable_merging = false}) {}
};

}  // namespace nuevomatch
