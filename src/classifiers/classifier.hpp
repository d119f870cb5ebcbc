// Uniform classifier interface implemented by every engine in the repo
// (LinearSearch, TupleMerge, TupleSpaceSearch, CutSplit, NeuroCutsLike,
// NuevoMatch, OnlineNuevoMatch). Benchmarks and NuevoMatch's remainder path
// treat engines interchangeably through this API. The one lookup an engine
// implements is the floored one (match_with_floor); match() is that lookup
// with no floor.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "common/types.hpp"

namespace nuevomatch {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Build the index from scratch. Rules must pass validate_ruleset().
  virtual void build(std::span<const Rule> rules) = 0;

  /// The one lookup every engine implements (paper Section 4 early
  /// termination): the best matching rule strictly better than
  /// `priority_floor` (numerically smaller), ties broken by smaller id
  /// (MatchResult::beats), or a miss. Priority INT32_MAX is reserved for the
  /// miss, so a floor of INT32_MAX excludes no rule.
  [[nodiscard]] virtual MatchResult match_with_floor(const Packet& p,
                                                     int32_t priority_floor) const = 0;

  /// Highest-priority matching rule, or MatchResult::kNoMatch.
  [[nodiscard]] MatchResult match(const Packet& p) const {
    return match_with_floor(p, std::numeric_limits<int32_t>::max());
  }

  /// --- Incremental updates (paper Section 3.9) -------------------------
  [[nodiscard]] virtual bool supports_updates() const { return false; }
  virtual bool insert(const Rule&) { return false; }
  virtual bool erase(uint32_t /*rule_id*/) { return false; }

  /// Index memory in bytes, excluding the rule bodies themselves (the
  /// paper's Figure 13 convention: "only the index data structures but not
  /// the rules").
  [[nodiscard]] virtual size_t memory_bytes() const = 0;

  /// Number of rules currently indexed.
  [[nodiscard]] virtual size_t size() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Factory used by NuevoMatch to construct its remainder backend.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

}  // namespace nuevomatch
