// Shared test helper: compare any classifier against the LinearSearch oracle
// on generated traces. Used by every engine's equivalence suite.
#pragma once

#include <gtest/gtest.h>

#include "classifiers/classifier.hpp"
#include "classifiers/linear.hpp"
#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace nuevomatch::testing_support {

/// Assert `cls` and the oracle agree on every packet of a trace drawn from
/// `rules` plus some guaranteed-miss packets.
inline void expect_matches_oracle(Classifier& cls, const RuleSet& rules,
                                  size_t n_packets = 4000, uint64_t seed = 123) {
  LinearSearch oracle;
  oracle.build(rules);

  TraceConfig tc;
  tc.kind = TraceConfig::Kind::kUniform;
  tc.n_packets = n_packets;
  tc.seed = seed;
  const auto trace = generate_trace(rules, tc);
  for (size_t i = 0; i < trace.size(); ++i) {
    const MatchResult expect = oracle.match(trace[i]);
    const MatchResult got = cls.match(trace[i]);
    ASSERT_EQ(got.rule_id, expect.rule_id)
        << cls.name() << " diverges from oracle on packet " << i << ": "
        << to_string(trace[i]) << " expected rule " << expect.rule_id << " got "
        << got.rule_id;
  }

  // Random packets (mostly misses / partial matches).
  Rng rng{seed ^ 0xFACE};
  for (int i = 0; i < 500; ++i) {
    Packet p;
    for (int f = 0; f < kNumFields; ++f)
      p.field[static_cast<size_t>(f)] =
          static_cast<uint32_t>(rng.below(kFieldDomain[static_cast<size_t>(f)] + 1));
    const MatchResult expect = oracle.match(p);
    const MatchResult got = cls.match(p);
    ASSERT_EQ(got.rule_id, expect.rule_id)
        << cls.name() << " diverges on random packet " << to_string(p);
  }
}

/// Re-draw every rule's priority from `n_values` values, so many
/// rules tie and the (priority, id) order of MatchResult::beats — the order
/// LinearSearch uses — decides between overlapping matches.
inline RuleSet with_tied_priorities(RuleSet rules, uint64_t n_values, uint64_t seed) {
  Rng rng{seed};
  for (Rule& r : rules) r.priority = static_cast<int32_t>(rng.below(n_values));
  return rules;
}

/// Assert match_with_floor is consistent with match for any engine: it must
/// return the same rule when the floor does not exclude it, and a miss (or a
/// strictly better rule) when it does.
inline void expect_floor_consistency(Classifier& cls, const RuleSet& rules,
                                     uint64_t seed = 321) {
  TraceConfig tc;
  tc.n_packets = 600;
  tc.seed = seed;
  const auto trace = generate_trace(rules, tc);
  for (const Packet& p : trace) {
    const MatchResult full = cls.match(p);
    if (!full.hit()) continue;
    const MatchResult same = cls.match_with_floor(p, full.priority + 1);
    ASSERT_EQ(same.rule_id, full.rule_id) << cls.name();
    const MatchResult cut = cls.match_with_floor(p, full.priority);
    ASSERT_FALSE(cut.hit()) << cls.name() << ": floor at own priority must exclude";
  }
}

}  // namespace nuevomatch::testing_support
