// Generic multi-way cut / binary split decision tree over the rule space —
// the substrate for CutSplit (Li et al., INFOCOM'18) and for the
// NeuroCuts-style autotuned tree (Liang et al., SIGCOMM'19).
//
// "Cut" nodes divide the node's region into equal-width slices along one
// dimension (HiCuts-style); "split" nodes cut at a rule endpoint chosen to
// minimize the larger side (HyperSplit-style). Every node stores the best
// priority in its subtree so lookups can terminate early against a priority
// floor (paper Section 4, "Early termination").
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "classifiers/classifier.hpp"

namespace nuevomatch {

struct CutTreeConfig {
  int binth = 8;           ///< max rules in a leaf (paper: binth=8 for cs)
  int max_fanout = 16;     ///< power-of-two children per cut node
  int max_depth = 24;
  double max_replication = 4.0;  ///< switch from cut to split above this
  /// Bound on the replication factor accumulated along a root-to-node path.
  /// Per-node estimates compound multiplicatively down the tree; once a
  /// path's product would exceed this, the node falls back to binary splits
  /// (which replicate only rules straddling the split point).
  double path_replication_budget = 16.0;
  size_t max_nodes = size_t{1} << 20;
  /// Hard global budget on stored rule references, as a multiple of the
  /// input size: a node may refine only when the projected reference total
  /// (committed leaves + every pending frontier node's rules + its own
  /// children) stays within the budget, so the final replication factor is
  /// guaranteed <= this value. This is the guard that keeps HiCuts-style
  /// replication blow-up (paper §2.1) from exhausting memory under
  /// adversarial configurations.
  double ref_budget_factor = 20.0;
  enum class DimPolicy {
    kMaxDistinct,      ///< dimension with most distinct projected ranges
    kLargestSpan,      ///< widest region extent relative to the field domain
    kMinReplication,   ///< dimension minimizing estimated rule duplication
  } dim_policy = DimPolicy::kMaxDistinct;
  bool enable_split_phase = true;  ///< CutSplit's split stage; off = pure cuts
};

class CutTree {
 public:
  using Region = std::array<Range, kNumFields>;

  void build(std::span<const Rule> rules, const CutTreeConfig& cfg);

  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const noexcept;

  /// §3.9 deletion path: tombstone by rewriting the stored rule body to an
  /// unmatchable range. Tree shape, leaf refs and cached subtree
  /// best-priorities are untouched — a stale (too-good) bound only costs
  /// extra probes, never a wrong result — so the lookup hot path carries no
  /// liveness check at all. Returns false when the id is not (or no longer)
  /// live in this tree.
  bool erase(uint32_t rule_id) noexcept;

  [[nodiscard]] size_t memory_bytes() const noexcept;
  [[nodiscard]] size_t num_rules() const noexcept { return n_rules_; }
  [[nodiscard]] size_t num_nodes() const noexcept { return nodes_.size(); }

  struct Stats {
    size_t nodes = 0;
    size_t leaves = 0;
    size_t max_depth = 0;
    double avg_leaf_depth = 0.0;    // averaged over leaves
    double replication = 0.0;       // stored rule refs / input rules
    size_t max_leaf_rules = 0;
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  struct Node {
    enum class Kind : uint8_t { kLeaf, kCut, kSplit };
    Kind kind = Kind::kLeaf;
    uint8_t dim = 0;
    int32_t best_priority = 0;   // min numeric priority in subtree
    // cut node
    uint32_t first_child = 0;
    uint32_t n_children = 0;
    uint32_t cut_lo = 0;         // region lo in `dim`
    uint64_t child_width = 0;    // slice width
    // split node: children at first_child (left) / first_child+1 (right)
    uint32_t split_point = 0;    // left covers [.., split_point]
    // leaf
    uint32_t leaf_begin = 0;
    uint32_t leaf_count = 0;
    uint32_t depth = 0;
  };

  void build_node(uint32_t node_idx, std::vector<uint32_t>&& rule_idx,
                  const Region& region, uint32_t depth, double repl_so_far);
  [[nodiscard]] int choose_dim(std::span<const uint32_t> rule_idx,
                               const Region& region) const;
  [[nodiscard]] double replication_estimate(std::span<const uint32_t> rule_idx, int dim,
                                            const Region& region, int fanout) const;

  CutTreeConfig cfg_;
  std::vector<Rule> rules_;          // rule bodies (shared, unreplicated)
  std::unordered_map<uint32_t, uint32_t> pos_by_id_;  // live ids only
  std::vector<Node> nodes_;
  std::vector<uint32_t> leaf_rules_; // replicated refs, leaf-contiguous
  size_t n_rules_ = 0;
  size_t ref_budget_ = 0;     // hard cap on final leaf_rules_ size
  size_t pending_refs_ = 0;   // rules held by not-yet-expanded frontier nodes
};

}  // namespace nuevomatch
