// Shared machinery for tuple-space classifiers (Srinivasan et al. '99;
// Daly et al. TupleMerge '19): rules whose fields share a prefix-length
// tuple live in one hash table keyed by the masked field values.
//
// Arbitrary ranges (ports) participate as exact (len 16/8) when lo==hi and
// as wildcard (len 0) otherwise; the candidate check against the full rule
// removes false positives — the classic tuple-space treatment of ranges.
//
// Storage layout: bucket headers index a flat entry array in which each
// bucket's entries are contiguous and sorted by rank — (priority, id), the
// order MatchResult::beats and LinearSearch use. A probe is one header load
// plus a linear walk that stops at the first entry that cannot beat the
// current best match — the same "pack values densely, terminate early"
// treatment the paper applies to its own secondary search (§4).
// Updates append to a small per-table overflow region that is folded back
// into the flat layout once it grows past a threshold, keeping inserts O(1)
// amortized (TupleMerge's selling point as the updatable remainder, §3.9).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace nuevomatch {

/// Per-field significant-bit counts defining one tuple.
struct TupleMask {
  std::array<uint8_t, kNumFields> len{};

  /// True when every field of *this is no more specific than `o` — rules of
  /// tuple `o` can be stored in a table masked by *this.
  [[nodiscard]] bool covers(const TupleMask& o) const noexcept {
    for (int f = 0; f < kNumFields; ++f)
      if (len[static_cast<size_t>(f)] > o.len[static_cast<size_t>(f)]) return false;
    return true;
  }
  [[nodiscard]] int specificity() const noexcept {
    int s = 0;
    for (uint8_t l : len) s += l;
    return s;
  }
  friend bool operator==(const TupleMask&, const TupleMask&) = default;
};

/// Field bit-width (32/32/16/16/8 for the classic 5-tuple).
[[nodiscard]] int field_bits(int f) noexcept;

/// Keep the `len` most significant bits of a field value.
[[nodiscard]] uint32_t mask_field(uint32_t v, int field, uint8_t len) noexcept;

/// The natural tuple of a rule: exact prefix length per field, or 0 for
/// fields whose range is not a prefix block.
[[nodiscard]] TupleMask tuple_of(const Rule& r) noexcept;

/// A rule's place in MatchResult::beats order packed into one word, so a
/// single unsigned compare orders rules by (priority, id): the sign-flipped
/// priority is the high half, the id the low half. A caller's priority floor
/// F becomes the bound rule_rank(F, 0): every rule with priority < F ranks
/// below it and none with priority >= F does.
[[nodiscard]] constexpr uint64_t rule_rank(int32_t priority, uint32_t id) noexcept {
  return (static_cast<uint64_t>(static_cast<uint32_t>(priority) ^ 0x80000000u) << 32) | id;
}
[[nodiscard]] constexpr int32_t rank_priority(uint64_t rank) noexcept {
  return static_cast<int32_t>(static_cast<uint32_t>(rank >> 32) ^ 0x80000000u);
}

/// One hash table holding rules under a common mask.
class TupleTable {
 public:
  explicit TupleTable(TupleMask mask);

  struct Entry {
    std::array<uint32_t, kNumFields> key{};
    uint32_t rule_pos = kDead;  // position in the owning classifier's rule array
    uint64_t rank = 0;          // rule_rank(priority, id)
  };
  static constexpr uint32_t kDead = std::numeric_limits<uint32_t>::max();

  void insert(const Rule& r, uint32_t rule_pos);
  bool erase(uint32_t rule_pos, const Rule& r);

  /// Allocation-free probe: lower `best` (a rule_rank bound) to the rank of
  /// the best full-matching candidate that ranks below it, if any (the
  /// classifier's hot path).
  void probe_best(const Packet& p, std::span<const Rule> rules,
                  std::span<const uint8_t> alive, uint64_t& best) const noexcept;

  /// Most rules sharing one masked key (TupleMerge's split trigger — rules
  /// that genuinely collide must all be walked by a matching probe).
  [[nodiscard]] size_t max_collisions() const noexcept { return max_chain_; }
  [[nodiscard]] const TupleMask& mask() const noexcept { return mask_; }
  [[nodiscard]] size_t size() const noexcept { return n_entries_; }
  /// Rank of the best live rule; UINT64_MAX when the table is empty.
  [[nodiscard]] uint64_t best_rank() const noexcept { return best_rank_; }
  [[nodiscard]] int32_t best_priority() const noexcept { return rank_priority(best_rank_); }
  [[nodiscard]] size_t memory_bytes() const noexcept;

  /// Remove and return all entries whose rule (looked up by rule_pos in
  /// `rules`) has exact tuple `t`.
  [[nodiscard]] std::vector<Entry> extract_tuple(const TupleMask& t,
                                                 std::span<const Rule> rules);

  /// All entries (rebuild support).
  [[nodiscard]] std::vector<Entry> all_entries() const;

  /// Fold overflow into the flat layout and drop tombstones.
  void compact();

 private:
  [[nodiscard]] std::array<uint32_t, kNumFields> key_of(const Rule& r) const noexcept;
  [[nodiscard]] size_t bucket_of(const std::array<uint32_t, kNumFields>& key) const noexcept;
  void rebuild(std::vector<Entry> live);
  void recompute_stats() noexcept;

  TupleMask mask_;
  // Flat region: per-bucket contiguous, rank-sorted entries.
  std::vector<uint32_t> heads_;   // bucket -> first entry; power-of-two size
  std::vector<uint32_t> counts_;  // bucket -> entry count
  std::vector<Entry> entries_;
  // Update region: recent inserts, folded in by compact().
  std::vector<Entry> overflow_;
  size_t n_entries_ = 0;
  size_t n_dead_ = 0;  // tombstones inside entries_
  size_t max_chain_ = 0;  // max same-key multiplicity
  uint64_t best_rank_ = std::numeric_limits<uint64_t>::max();
};

}  // namespace nuevomatch
