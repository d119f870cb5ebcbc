// NuevoMatch (paper Figure 1): iSets indexed by RQ-RMIs + a remainder set
// indexed by an external classifier, with a selector returning the highest
// priority validated match. Acts as an accelerator for the remainder engine:
// construct it with the factory of whichever classifier you want to speed up.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "classifiers/classifier.hpp"
#include "isets/iset_index.hpp"
#include "isets/partition.hpp"
#include "rqrmi/model.hpp"

namespace nuevomatch {

struct NuevoMatchConfig {
  /// iSet extraction (paper §5.1 uses max 4 iSets; coverage floor 25% vs
  /// decision trees, 5% vs TupleMerge). At most NuevoMatch::kMaxIsets.
  int max_isets = 4;
  double min_iset_coverage = 0.25;

  /// RQ-RMI training (paper §5.1: error threshold 64; Table 4 widths are
  /// auto-selected per iSet size unless stage_widths_override is non-empty).
  uint32_t error_threshold = 64;
  std::vector<uint32_t> stage_widths_override{};
  int initial_samples = 512;
  int adam_epochs = 100;
  int max_retrain_attempts = 4;

  /// Builds the remainder classifier (and the fallback when no iSet covers
  /// enough rules). Must be set.
  ClassifierFactory remainder_factory;

  uint64_t seed = 7;
};

class NuevoMatch final : public Classifier {
 public:
  /// Bound on the iSet count: the lookup paths keep every iSet's
  /// prediction and candidate in fixed arrays of this width.
  static constexpr size_t kMaxIsets = 8;

  /// Throws std::invalid_argument without a remainder_factory, or when
  /// cfg.max_isets exceeds kMaxIsets.
  explicit NuevoMatch(NuevoMatchConfig cfg);

  void build(std::span<const Rule> rules) override;
  /// Build, reusing trained models from `reuse_models_from`: donor iSets
  /// whose rule arrays are fully intact in `rules` (every rule present with
  /// identical ranges/priority) are pinned verbatim — model, certified §3.3
  /// error bounds and all — and only the leftover rules are partitioned
  /// into the remaining iSet slots. Reuse is exact, not approximate: the
  /// certification is a property of the (model, sorted array) pair, and the
  /// array is unchanged. The plan is gated on coverage: if pinning would
  /// lose more than 2% of the rule-set vs a full re-partition, the
  /// build falls back to retraining everything. Under remainder-only churn
  /// a retrain therefore skips every iSet and costs only the remainder
  /// rebuild. Safe to call with a donor whose tombstone flags are being
  /// flipped concurrently (the scan reads only immutable state).
  void build(std::span<const Rule> rules, const NuevoMatch* reuse_models_from);
  /// iSets whose model the last build() reused instead of training.
  [[nodiscard]] size_t reused_isets() const noexcept { return reused_isets_; }
  // --- lookup (paper Figure 1 + §4 early termination) --------------------
  // One composition: a running priority floor starts at the caller's floor,
  // tightens to best.tie_floor() after every hit, and is threaded through
  // each iSet and then through each remainder stage in order, so a stage is
  // only asked for a rule that can still win. The remainder stages default
  // to the built remainder engine; OnlineNuevoMatch passes its pinned update
  // layer (base remainder or its override, then the churn delta) instead.
  // A stage is any type with match_with_floor(p, floor) — a Classifier, or
  // a plain view that need not implement build()/size()/name().
  // The iSet half runs in three passes — predict every iSet, search every
  // iSet, validate in iSet order — so the candidate loads that search()
  // prefetches for one iSet overlap with the work on the others.
  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const override;
  template <class... Stages>
    requires(sizeof...(Stages) > 0)
  [[nodiscard]] MatchResult match_with_floor(const Packet& p, int32_t priority_floor,
                                             const Stages&... remainder) const;

  /// Batched lookup (paper §5.1 processes packets in batches of 128): a
  /// software pipeline feeds whole tiles through the cross-packet RQ-RMI
  /// kernels (one SIMD lane per packet, see rqrmi/kernel.hpp) per iSet, then
  /// runs the bounded searches (each prefetching its candidate), then
  /// validation + the remainder stages per packet. Element-for-element
  /// identical to match(). out.size() must equal packets.size().
  void match_batch(std::span<const Packet> packets, std::span<MatchResult> out) const;
  template <class... Stages>
    requires(sizeof...(Stages) > 0)
  void match_batch(std::span<const Packet> packets, std::span<MatchResult> out,
                   const Stages&... remainder) const;

  // --- updates (paper §3.9) ---------------------------------------------
  // Synchronous, single-threaded update primitives. The concurrent wrapper
  // (OnlineNuevoMatch, nuevomatch/online.hpp) layers reader/writer exclusion
  // and background retraining on top of these.
  [[nodiscard]] bool supports_updates() const override;
  /// New rules are absorbed by the remainder classifier (§3.9 insertion
  /// path). Rule ids must be unique across the live rule-set; inserting a
  /// duplicate id fails, and so does priority INT32_MAX (reserved for the
  /// miss). O(1) plus the remainder engine's insert cost.
  bool insert(const Rule& r) override;
  /// Tombstone in the owning iSet, or remove from the remainder. O(1) id
  /// lookup plus the owning structure's erase cost.
  bool erase(uint32_t rule_id) override;
  /// Online-engine deletion primitive: tombstone `rule_id` in whichever
  /// iSet holds it alive — an atomic in-place byte flip, safe against
  /// concurrent wait-free lookups — touching NOTHING else. The logical
  /// rule bookkeeping (rules()/size()/pressure) intentionally goes stale:
  /// on a frozen generation it belongs to the online wrapper, which tracks
  /// it on the writer side (DESIGN.md "Update path"). Offline callers want
  /// erase(), not this.
  bool erase_in_isets(uint32_t rule_id) noexcept;
  /// Fraction of rules that have migrated to the remainder since build.
  [[nodiscard]] double update_pressure() const noexcept;
  /// Retrain from the current rule-set (the paper's periodic retraining).
  void rebuild();

  /// Reinstate a built classifier from its parts without retraining the
  /// RQ-RMIs (the serializer's load path). The remainder classifier is
  /// rebuilt from `remainder_rules` via the configured factory — external
  /// engines build fast; only model training is expensive. Throws
  /// std::invalid_argument for more than kMaxIsets iSets.
  void restore(std::vector<IsetIndex> isets, std::vector<Rule> remainder_rules);

  /// Serializer v2 load path: additionally re-applies iSet tombstones
  /// (`erased_ids`) and reinstates the update-pressure counters, so a
  /// classifier with pending updates round-trips exactly. Pass
  /// `built_size == kAutoBuiltSize` to derive it from the restored rules.
  static constexpr size_t kAutoBuiltSize = static_cast<size_t>(-1);
  void restore(std::vector<IsetIndex> isets, std::vector<Rule> remainder_rules,
               std::span<const uint32_t> erased_ids, size_t built_size,
               size_t migrated);

  [[nodiscard]] size_t memory_bytes() const override;
  [[nodiscard]] size_t size() const override { return rules_.size(); }
  [[nodiscard]] std::string name() const override;

  // --- introspection ------------------------------------------------------
  [[nodiscard]] double coverage() const noexcept;  ///< fraction in iSets
  [[nodiscard]] const std::vector<IsetIndex>& isets() const noexcept { return isets_; }
  [[nodiscard]] const Classifier& remainder() const noexcept { return *remainder_; }
  [[nodiscard]] Classifier& remainder() noexcept { return *remainder_; }
  [[nodiscard]] size_t remainder_size() const noexcept { return remainder_->size(); }
  /// The logical rule-set of the remainder engine (everything not covered by
  /// an iSet, including rules migrated there by updates). Serializer input.
  [[nodiscard]] std::vector<Rule> remainder_rules() const;
  /// Current logical rule-set (live iSet rules + remainder, including rules
  /// migrated by updates). Retrain snapshots copy this.
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return rules_; }
  /// Rules at the last (re)build and updates absorbed since — the inputs to
  /// update_pressure(); serialized so pressure survives a round-trip.
  [[nodiscard]] size_t built_size() const noexcept { return built_size_; }
  [[nodiscard]] size_t migrated() const noexcept { return migrated_; }
  [[nodiscard]] uint32_t max_search_error() const noexcept;
  [[nodiscard]] const NuevoMatchConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] rqrmi::RqRmiConfig rqrmi_config(size_t iset_size) const;
  void rebuild_pos_map();
  static constexpr size_t kTile = 32;  ///< batch pipeline tile width
  /// One tile (≤ kTile packets) of the batched iSet pipeline: stage 1 model
  /// inference, stage 2 bounded search, stage 3 validation.
  void iset_stages(const Packet* packets, size_t tile, MatchResult* out) const;
  /// Fold one stage's answer into the running best and tighten the floor.
  static void take(const MatchResult& r, MatchResult& best, int32_t& floor) noexcept {
    if (r.beats(best)) {
      best = r;
      floor = best.tie_floor();
    }
  }

  NuevoMatchConfig cfg_;
  std::vector<Rule> rules_;          // current logical rule-set
  std::unordered_map<uint32_t, size_t> pos_by_id_;  // id → index in rules_
  std::vector<IsetIndex> isets_;
  std::unique_ptr<Classifier> remainder_;
  size_t built_size_ = 0;            // rules at last (re)build
  size_t migrated_ = 0;              // updates routed to remainder since build
  size_t reused_isets_ = 0;          // models reused by the last build()
};

template <class... Stages>
  requires(sizeof...(Stages) > 0)
MatchResult NuevoMatch::match_with_floor(const Packet& p, int32_t priority_floor,
                                         const Stages&... remainder) const {
  const size_t n = isets_.size();
  std::array<uint32_t, kMaxIsets> vals{};
  std::array<rqrmi::Prediction, kMaxIsets> preds{};
  std::array<int32_t, kMaxIsets> pos{};
  for (size_t s = 0; s < n; ++s) {
    vals[s] = p[isets_[s].field()];
    preds[s] = isets_[s].predict(vals[s]);
  }
  for (size_t s = 0; s < n; ++s) pos[s] = isets_[s].search(vals[s], preds[s]);
  MatchResult best;
  int32_t floor = priority_floor;
  for (size_t s = 0; s < n; ++s) take(isets_[s].validate(pos[s], p, floor), best, floor);
  (take(remainder.match_with_floor(p, floor), best, floor), ...);
  return best;
}

template <class... Stages>
  requires(sizeof...(Stages) > 0)
void NuevoMatch::match_batch(std::span<const Packet> packets, std::span<MatchResult> out,
                             const Stages&... remainder) const {
  for (size_t base = 0; base < packets.size(); base += kTile) {
    const size_t tile = std::min(kTile, packets.size() - base);
    iset_stages(packets.data() + base, tile, out.data() + base);
    // Remainder stages per packet, still within the tile for locality.
    for (size_t i = base; i < base + tile; ++i) {
      MatchResult best = out[i];
      int32_t floor = best.tie_floor();
      (take(remainder.match_with_floor(packets[i], floor), best, floor), ...);
      out[i] = best;
    }
  }
}

}  // namespace nuevomatch
