// Core packet/rule model shared by every classifier in the repository.
//
// A rule matches a packet when every field value lies inside the rule's
// per-field inclusive range (the paper's hyper-cube view, Section 2.1).
// Priorities follow the paper's convention (Figure 2): a numerically
// *smaller* priority value wins. Ties are broken by smaller rule id so that
// every classifier is a deterministic function of the rule-set.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace nuevomatch {

/// Number of fields in the classic 5-tuple used throughout the evaluation.
inline constexpr int kNumFields = 5;

/// Canonical field order (matches ClassBench filter format).
enum Field : int {
  kSrcIp = 0,
  kDstIp = 1,
  kSrcPort = 2,
  kDstPort = 3,
  kProto = 4,
};

/// Inclusive upper bound of each field's domain.
inline constexpr std::array<uint64_t, kNumFields> kFieldDomain = {
    0xFFFF'FFFFull,  // src ip
    0xFFFF'FFFFull,  // dst ip
    0xFFFFull,       // src port
    0xFFFFull,       // dst port
    0xFFull,         // protocol
};

/// Inclusive integer range [lo, hi] over a single field.
struct Range {
  uint32_t lo = 0;
  uint32_t hi = 0;

  [[nodiscard]] constexpr bool contains(uint32_t v) const noexcept {
    return lo <= v && v <= hi;
  }
  [[nodiscard]] constexpr bool overlaps(const Range& o) const noexcept {
    return lo <= o.hi && o.lo <= hi;
  }
  /// Number of integer points covered (fits in u64 even for [0, 2^32-1]).
  [[nodiscard]] constexpr uint64_t span() const noexcept {
    return static_cast<uint64_t>(hi) - lo + 1;
  }
  [[nodiscard]] constexpr bool is_exact() const noexcept { return lo == hi; }
  friend constexpr bool operator==(const Range&, const Range&) = default;
};

/// Wildcard range for a given field.
[[nodiscard]] constexpr Range full_range(int field) noexcept {
  return Range{0, static_cast<uint32_t>(kFieldDomain[static_cast<size_t>(field)])};
}

/// A packet header projected onto the classification fields.
struct Packet {
  std::array<uint32_t, kNumFields> field{};

  [[nodiscard]] constexpr uint32_t operator[](int f) const noexcept {
    return field[static_cast<size_t>(f)];
  }
};

/// A classification rule: one range per field plus priority and action.
struct Rule {
  std::array<Range, kNumFields> field{};
  int32_t priority = 0;  ///< smaller value = higher priority
  uint32_t id = 0;       ///< dense id, also the index into the rule array
  int32_t action = 0;    ///< opaque action token

  [[nodiscard]] bool matches(const Packet& p) const noexcept {
    for (int f = 0; f < kNumFields; ++f) {
      if (!field[static_cast<size_t>(f)].contains(p[f])) return false;
    }
    return true;
  }
  [[nodiscard]] bool is_wildcard(int f) const noexcept {
    return field[static_cast<size_t>(f)] == full_range(f);
  }
};

/// Result of a classification lookup.
struct MatchResult {
  static constexpr int32_t kNoMatch = -1;
  int32_t rule_id = kNoMatch;
  int32_t priority = std::numeric_limits<int32_t>::max();

  [[nodiscard]] constexpr bool hit() const noexcept { return rule_id != kNoMatch; }

  /// True when *this beats `o` under (priority, id) lexicographic order.
  [[nodiscard]] constexpr bool beats(const MatchResult& o) const noexcept {
    if (!hit()) return false;
    if (!o.hit()) return true;
    if (priority != o.priority) return priority < o.priority;
    return rule_id < o.rule_id;
  }

  /// The priority floor a later stage must be given so it can still return
  /// a rule that ties this result (beats() then breaks the tie by id):
  /// match_with_floor admits priorities strictly below the floor, so this is
  /// priority + 1, saturating at INT32_MAX (a miss: no floor).
  [[nodiscard]] constexpr int32_t tie_floor() const noexcept {
    return priority == std::numeric_limits<int32_t>::max() ? priority : priority + 1;
  }
};

/// A rule-set: rules with dense ids [0, n) in priority order by convention.
using RuleSet = std::vector<Rule>;

/// Re-number ids/priorities to the dense convention (id = index,
/// priority = index) preserving the current order.
void canonicalize(RuleSet& rules);

/// Sanity-check a rule-set: ranges within field domains, dense unique ids.
/// Returns an empty string when valid, otherwise a description of the issue.
[[nodiscard]] std::string validate_ruleset(std::span<const Rule> rules);

/// Human-readable rendering (for logging and golden tests).
[[nodiscard]] std::string to_string(const Range& r);
[[nodiscard]] std::string to_string(const Rule& r);
[[nodiscard]] std::string to_string(const Packet& p);

}  // namespace nuevomatch
