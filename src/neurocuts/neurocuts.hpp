// NeuroCuts-style autotuned decision tree (paper baseline "nc").
//
// The published NeuroCuts uses reinforcement learning to explore the space of
// decision-tree construction actions (cut dimension, fan-out, top-level
// partitioning) offline and emits an optimized tree. What the runtime — and
// NuevoMatch's comparison — interacts with is the *resulting tree*. This
// substitute explores the same configuration space with seeded randomized
// search over whole-tree configurations and keeps the best tree under the
// chosen reward (classification time or memory), mirroring NeuroCuts' two
// reward modes. See DESIGN.md "Substitutions".
#pragma once

#include <vector>

#include "classifiers/classifier.hpp"
#include "cutsplit/cut_tree.hpp"

namespace nuevomatch {

struct NeuroCutsConfig {
  enum class Reward { kTime, kSpace };
  Reward reward = Reward::kTime;
  int search_iterations = 8;  ///< tree configurations sampled per build
  uint64_t seed = 42;
};

class NeuroCutsLike final : public Classifier {
 public:
  explicit NeuroCutsLike(NeuroCutsConfig cfg = {});

  void build(std::span<const Rule> rules) override;
  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const override;

  [[nodiscard]] size_t memory_bytes() const override;
  [[nodiscard]] size_t size() const override { return n_rules_; }
  [[nodiscard]] std::string name() const override { return "neurocuts"; }

  /// Configuration chosen by the search (introspection / ablation benches).
  [[nodiscard]] const CutTreeConfig& chosen_config() const noexcept { return best_cfg_; }
  [[nodiscard]] bool chose_top_partition() const noexcept { return best_partitioned_; }

 private:
  [[nodiscard]] double score(const std::vector<CutTree>& trees,
                             std::span<const Packet> probes) const;

  NeuroCutsConfig cfg_;
  std::vector<CutTree> trees_;
  CutTreeConfig best_cfg_{};
  bool best_partitioned_ = false;
  size_t n_rules_ = 0;
  mutable int64_t score_sink_ = 0;  // defeats dead-code elimination in score()
};

}  // namespace nuevomatch
