// CutSplit (Li et al., INFOCOM'18 — paper baseline "cs"): FiCuts-style
// pre-partitioning of the rule-set by which IP fields are "small" (specific),
// then one cut/split tree per group. binth = 8 as in the paper (§5.1).
#pragma once

#include <array>
#include <vector>

#include "classifiers/classifier.hpp"
#include "cutsplit/cut_tree.hpp"

namespace nuevomatch {

struct CutSplitConfig {
  int binth = 8;
  /// A field is "small" (specific enough to cut on) when its range spans at
  /// most 2^small_threshold_bits values.
  int small_threshold_bits = 16;
  CutTreeConfig tree{};  // binth is overridden by the field above
};

/// FiCuts grouping: index = (src small ? 1 : 0) | (dst small ? 2 : 0).
[[nodiscard]] std::array<std::vector<Rule>, 4> partition_by_small_fields(
    std::span<const Rule> rules, int small_threshold_bits);

class CutSplit final : public Classifier {
 public:
  explicit CutSplit(CutSplitConfig cfg = {});

  void build(std::span<const Rule> rules) override;
  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const override;

  /// --- incremental updates (paper §3.9) --------------------------------
  /// Decision trees cannot absorb arbitrary inserts without re-cutting, so
  /// insertions land in a small linear-scan overflow list probed after the
  /// trees (the CutSplit paper's own update story is a partial rebuild; the
  /// overflow list is what makes cs usable as NuevoMatch's updatable
  /// remainder, where a background retrain folds it back in periodically).
  /// Deletions tombstone in the owning tree (CutTree::erase) or drop the
  /// rule from the overflow list.
  [[nodiscard]] bool supports_updates() const override { return true; }
  bool insert(const Rule& r) override;
  bool erase(uint32_t rule_id) override;
  [[nodiscard]] size_t overflow_size() const noexcept { return overflow_.size(); }

  [[nodiscard]] size_t memory_bytes() const override;
  [[nodiscard]] size_t size() const override { return n_rules_; }
  [[nodiscard]] std::string name() const override { return "cutsplit"; }

  [[nodiscard]] const std::vector<CutTree>& trees() const noexcept { return trees_; }

 private:
  CutSplitConfig cfg_;
  std::vector<CutTree> trees_;
  std::vector<Rule> overflow_;  // inserted since build, linear probe
  size_t n_rules_ = 0;
};

}  // namespace nuevomatch
