// One indexed iSet (paper Figure 1, left path): an RQ-RMI predicting the
// position of the matching rule in a field-sorted array, a bounded secondary
// search around the prediction, and multi-field validation of the candidate.
//
// Field values of the sorted rules are stored as structure-of-arrays so the
// secondary search touches densely packed cache lines (paper Section 4,
// "Inference and secondary search").
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "rqrmi/model.hpp"

namespace nuevomatch {

/// Number of entries in the ascending array [begin, begin+count) that are
/// <= v: the secondary search's window scan. kAvx runs the 8-lane AVX2
/// kernel when the CPU has AVX2; every other level, and CPUs without AVX2,
/// use std::upper_bound. Results are identical at every level; the search
/// path dispatches once at run time under the NM_SIMD_MAX cap.
[[nodiscard]] size_t count_leq(const uint32_t* begin, size_t count, uint32_t v,
                               rqrmi::SimdLevel level) noexcept;

class IsetIndex {
 public:
  /// `rules` must be pairwise non-overlapping in `field` and sorted by the
  /// field's lo (exactly what partition_rules produces).
  void build(int field, std::vector<Rule> rules, const rqrmi::RqRmiConfig& cfg);

  /// Reinstate from an already-trained model (the serializer's load path).
  /// `rules` must be the exact rule array the model was trained on.
  void restore(int field, std::vector<Rule> rules, rqrmi::RqRmi model);

  /// Full lookup: predict, search, validate. Returns the validated match or
  /// a miss (validation may reject the candidate on another field, §3.6).
  /// A candidate that cannot beat `priority_floor` is rejected from packed
  /// metadata before its rule body is ever fetched (paper §4).
  [[nodiscard]] MatchResult lookup(
      const Packet& p,
      int32_t priority_floor = std::numeric_limits<int32_t>::max()) const noexcept;

  // --- staged API (used by the Figure 14 runtime-breakdown bench and the
  // --- batch pipeline) ---------------------------------------------------
  [[nodiscard]] rqrmi::Prediction predict(
      uint32_t field_value,
      rqrmi::SimdLevel level = rqrmi::best_simd_level()) const noexcept;
  /// Cross-packet batched prediction: normalizes the values (reciprocal
  /// multiply, no divide) and runs the RQ-RMI lane-per-packet kernels.
  /// Writes values.size() predictions to `out`.
  void predict_batch(std::span<const uint32_t> values, std::span<rqrmi::Prediction> out,
                     rqrmi::SimdLevel level = rqrmi::best_simd_level()) const noexcept;
  /// Bounded binary search around the prediction; -1 when no stored range
  /// contains the value. On a hit it prefetches everything validate() reads
  /// for that position (packed metadata and both cache lines of the rule
  /// body), so a caller that searches several iSets or packets before
  /// validating any of them overlaps those misses.
  [[nodiscard]] int32_t search(uint32_t field_value,
                               const rqrmi::Prediction& pred) const noexcept;
  /// search() over a batch; out[i] = search(values[i], preds[i]).
  void search_batch(std::span<const uint32_t> values,
                    std::span<const rqrmi::Prediction> preds,
                    std::span<int32_t> out) const noexcept;
  /// Validate candidate position against all packet fields (tombstone-aware)
  /// under a priority floor: the packed priority/shape metadata decides
  /// cheap rejections (floor) and cheap accepts (rules wildcard outside the
  /// indexed field) without touching the rule body (paper Section 4 packs
  /// per-rule values exactly to avoid these memory accesses).
  [[nodiscard]] MatchResult validate(
      int32_t pos, const Packet& p,
      int32_t priority_floor = std::numeric_limits<int32_t>::max()) const noexcept;

  /// Tombstone a rule (paper §3.9 deletion path). Returns false if absent.
  /// O(1) via the id→position map; the sorted arrays and the trained model
  /// are untouched, so the §3.3 error certification stays valid. The flip
  /// itself is an atomic byte store: the online engine's wait-free readers
  /// race it lock-free, and a monotone 1→0 flag read at validation time is
  /// linearizable either way (a tombstone can only turn a hit into a miss,
  /// never shift a certified position — DESIGN.md "Update path"). Callers
  /// must still serialize erase() against other *writers* (live_ and the
  /// id map are plain).
  bool erase(uint32_t rule_id) noexcept;

  /// Whether position `i` is live (not tombstoned). Serializer support: the
  /// full rule array must travel with the model, so deletions are encoded as
  /// dead ids on the side. Atomic read — safe to call concurrently with
  /// erase() (same contract as lookups).
  [[nodiscard]] bool alive(size_t i) const noexcept { return alive_load(i) != 0; }

  // --- remainder skip bit (paper §4 early termination, across stages) -----
  // needs_remainder(i) is set when some rule of the remainder this iSet was
  // marked against overlaps rule i's 5-field box and outranks it under
  // MatchResult::beats. A packet whose best iSet hit is rule i lies inside
  // its box, so with the bit clear no remainder rule can beat the hit. The
  // bit lives in the shape byte search() prefetches, beside (never inside)
  // the tombstone byte erase() flips concurrently; it is written only
  // before the index is published to readers.

  /// Whether a marked remainder rule overlaps and outranks rule `i`.
  [[nodiscard]] bool needs_remainder(size_t i) const noexcept {
    return (shape_[i] & kNeedsRemainder) != 0;
  }
  /// Clear every needs_remainder bit, then set it for each rule that some
  /// rule of `remainder` overlaps and outranks (build/restore). Per remainder
  /// rule it scans the smaller of two candidate sets: the positions it
  /// overlaps in the indexed field (a binary-searched range) and the rules
  /// it outranks (a suffix of a rank order radix-sorted on first use and
  /// dropped on return).
  void mark_remainder(std::span<const Rule> remainder);
  /// Set the bits of the rules `r` overlaps and outranks: a rule inserted
  /// into the remainder after the build. Scans the overlap range only.
  void mark_remainder_rule(const Rule& r) noexcept;

  [[nodiscard]] int field() const noexcept { return field_; }
  [[nodiscard]] size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] size_t live_rules() const noexcept { return live_; }
  [[nodiscard]] uint32_t max_search_error() const noexcept {
    return model_.max_search_error();
  }
  /// RQ-RMI weights — the part that must stay in cache (Figure 1 keeps the
  /// rule bodies in DRAM).
  [[nodiscard]] size_t model_bytes() const noexcept { return model_.memory_bytes(); }
  /// Sorted field arrays + rule bodies (the DRAM side).
  [[nodiscard]] size_t rule_storage_bytes() const noexcept;
  [[nodiscard]] const rqrmi::RqRmi& model() const noexcept { return model_; }
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return rules_; }

 private:
  /// Fill the SoA arrays from rules_; validates sortedness/disjointness.
  /// Leaves every needs_remainder bit clear.
  void index_rules();
  /// Positions [first, last) whose ranges overlap `r` in the indexed field.
  [[nodiscard]] std::pair<size_t, size_t> overlap_range(const Rule& r) const noexcept;
  /// Set the needs_remainder bit of each position in [first, last) that `r`
  /// outranks and overlaps.
  void mark_range(const Rule& r, size_t first, size_t last) noexcept;

  /// Packed per-rule shape bits (shape_).
  static constexpr uint8_t kWildRest = 1;        ///< wildcard in every non-indexed field
  static constexpr uint8_t kNeedsRemainder = 2;  ///< see needs_remainder()

  /// Tombstone flag access. std::atomic_ref on the plain byte array keeps
  /// the SoA layout (and its serializer framing) unchanged while giving the
  /// reader/writer race defined behavior; relaxed order suffices because
  /// nothing else is published through the flag (the rule body it gates is
  /// immutable) — cross-thread visibility ordering comes from the caller
  /// (the online engine's swap machinery, or plain thread join).
  [[nodiscard]] uint8_t alive_load(size_t i) const noexcept {
    return std::atomic_ref<uint8_t>(const_cast<uint8_t&>(alive_[i]))
        .load(std::memory_order_relaxed);
  }
  void alive_store(size_t i, uint8_t v) noexcept {
    std::atomic_ref<uint8_t>(alive_[i]).store(v, std::memory_order_relaxed);
  }

  int field_ = 0;
  uint64_t domain_ = 0;
  double inv_domain_ = 0.0;  // 1/(domain_+1): multiply, don't divide, per key
  std::vector<uint32_t> lo_;      // SoA: range starts, sorted
  std::vector<uint32_t> hi_;      // SoA: range ends
  std::vector<int32_t> prio_;     // SoA: rule priorities
  std::vector<uint32_t> id_;      // SoA: rule ids
  std::vector<uint8_t> shape_;    // kWildRest | kNeedsRemainder bits
  std::vector<Rule> rules_;       // same order as lo_/hi_
  std::vector<uint8_t> alive_;    // tombstones
  std::unordered_map<uint32_t, uint32_t> pos_by_id_;  // O(1) erase
  size_t live_ = 0;
  rqrmi::RqRmi model_;
};

}  // namespace nuevomatch
