// NuevoMatch end-to-end equivalence with the oracle across application
// classes, rule-set sizes, remainder backends and configurations — the
// repo's most important integration property.
#include <gtest/gtest.h>

#include <memory>

#include "classbench/generator.hpp"
#include "classbench/stanford.hpp"
#include "cutsplit/cutsplit.hpp"
#include "neurocuts/neurocuts.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "oracle_check.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using testing_support::expect_floor_consistency;
using testing_support::expect_matches_oracle;
using testing_support::with_tied_priorities;

NuevoMatchConfig base_config(ClassifierFactory remainder) {
  NuevoMatchConfig cfg;
  cfg.remainder_factory = std::move(remainder);
  cfg.min_iset_coverage = 0.05;
  return cfg;
}

struct NmCase {
  AppClass app;
  int variant;
  size_t n;
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const NmCase& c) {
    return os << ruleset_name(c.app, c.variant) << "_n" << c.n << "_s" << c.seed;
  }
};

class NuevoMatchOracle : public ::testing::TestWithParam<NmCase> {};

TEST_P(NuevoMatchOracle, WithTupleMergeRemainder) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, c.variant, c.n, c.seed);
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
  nm.build(rules);
  expect_matches_oracle(nm, rules);
}

TEST_P(NuevoMatchOracle, WithCutSplitRemainder) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, c.variant, c.n, c.seed);
  NuevoMatch nm{base_config([] { return std::make_unique<CutSplit>(); })};
  nm.build(rules);
  expect_matches_oracle(nm, rules);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NuevoMatchOracle,
                         ::testing::Values(NmCase{AppClass::kAcl, 1, 1000, 1},
                                           NmCase{AppClass::kAcl, 3, 4000, 2},
                                           NmCase{AppClass::kFw, 1, 1000, 3},
                                           NmCase{AppClass::kFw, 4, 4000, 4},
                                           NmCase{AppClass::kIpc, 1, 2500, 5},
                                           NmCase{AppClass::kIpc, 2, 800, 6},
                                           NmCase{AppClass::kAcl, 5, 8000, 7}));

TEST(NuevoMatch, WithNeuroCutsRemainder) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 2000, 8);
  NuevoMatch nm{base_config([] {
    NeuroCutsConfig nc;
    nc.search_iterations = 4;
    return std::make_unique<NeuroCutsLike>(nc);
  })};
  nm.build(rules);
  expect_matches_oracle(nm, rules);
}

TEST(NuevoMatch, EarlyTerminationDoesNotChangeResults) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 2, 3000, 9);
  NuevoMatchConfig with_et = base_config([] { return std::make_unique<TupleMerge>(); });
  NuevoMatchConfig without_et = with_et;
  without_et.early_termination = false;
  NuevoMatch a{with_et};
  NuevoMatch b{without_et};
  a.build(rules);
  b.build(rules);
  TraceConfig tc;
  tc.n_packets = 4000;
  tc.seed = 10;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(a.match(p).rule_id, b.match(p).rule_id);
}

TEST(NuevoMatch, FloorConsistency) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 4, 2000, 11);
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
  nm.build(rules);
  expect_floor_consistency(nm, rules);
}

// Equal priorities resolve to the smaller id on every path: the iSet hit's
// floor must still admit an equal-priority rule in a later iSet or in the
// remainder, and beats() then breaks the tie by id as LinearSearch does.
TEST(NuevoMatch, TiedPrioritiesBreakByIdOnEveryPath) {
  const RuleSet rules =
      with_tied_priorities(generate_classbench(AppClass::kAcl, 1, 5000, 70), 50, 71);
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
  nm.build(rules);
  ASSERT_FALSE(nm.isets().empty());
  expect_matches_oracle(nm, rules, 20000, 72);

  LinearSearch oracle;
  oracle.build(rules);
  TraceConfig tc;
  tc.n_packets = 20000;
  tc.seed = 73;
  const auto trace = generate_trace(rules, tc);
  std::vector<MatchResult> batched(trace.size());
  nm.match_batch(trace, batched);
  for (size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(batched[i].rule_id, oracle.match(trace[i]).rule_id)
        << "match_batch, packet " << i << ": " << to_string(trace[i]);
}

TEST(NuevoMatch, StanfordSingleFieldDataset) {
  const RuleSet rules = generate_stanford_like(1, 20'000, 12);
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
  nm.build(rules);
  expect_matches_oracle(nm, rules, 3000, 13);
  EXPECT_GT(nm.coverage(), 0.4);
}

TEST(NuevoMatch, FallsBackWhenNoIsetQualifies) {
  // Low-diversity Cartesian rules: partitioning should segregate them to the
  // remainder; the classifier must still be exact (paper §5.2 "it promptly
  // identifies the rule-sets expected to be slow and falls back").
  const RuleSet rules = generate_low_diversity(2000, 4, 14);
  NuevoMatchConfig cfg = base_config([] { return std::make_unique<TupleMerge>(); });
  cfg.min_iset_coverage = 0.25;
  NuevoMatch nm{cfg};
  nm.build(rules);
  expect_matches_oracle(nm, rules);
  EXPECT_LT(nm.coverage(), 0.5);
}

TEST(NuevoMatch, CoverageReportingConsistent) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 5000, 15);
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
  nm.build(rules);
  size_t covered = 0;
  for (const auto& is : nm.isets()) covered += is.size();
  EXPECT_EQ(covered + nm.remainder_size(), rules.size());
  EXPECT_NEAR(nm.coverage(),
              static_cast<double>(covered) / static_cast<double>(rules.size()), 1e-12);
}

TEST(NuevoMatch, IndexMemoryIsSmallerThanBaseline) {
  // The headline claim (paper Figure 13): the nm index (RQ-RMI + remainder)
  // is much smaller than the baseline indexing the whole rule-set.
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 30'000, 16);
  TupleMerge tm;
  tm.build(rules);
  NuevoMatchConfig cfg = base_config([] { return std::make_unique<TupleMerge>(); });
  NuevoMatch nm{cfg};
  nm.build(rules);
  EXPECT_LT(nm.memory_bytes(), tm.memory_bytes() / 2)
      << "nm=" << nm.memory_bytes() << " tm=" << tm.memory_bytes()
      << " coverage=" << nm.coverage();
}

TEST(NuevoMatch, RequiresRemainderFactory) {
  EXPECT_THROW(NuevoMatch{NuevoMatchConfig{}}, std::invalid_argument);
}

TEST(NuevoMatch, EmptyRuleSet) {
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
  nm.build({});
  EXPECT_FALSE(nm.match(Packet{}).hit());
  EXPECT_EQ(nm.size(), 0u);
  EXPECT_DOUBLE_EQ(nm.coverage(), 0.0);
}

TEST(NuevoMatch, NameIncludesRemainder) {
  NuevoMatch nm{base_config([] { return std::make_unique<CutSplit>(); })};
  EXPECT_EQ(nm.name(), "nuevomatch(cutsplit)");
}

TEST(NuevoMatch, MaxSearchErrorWithinConfiguredBallpark) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 10'000, 17);
  NuevoMatchConfig cfg = base_config([] { return std::make_unique<TupleMerge>(); });
  cfg.error_threshold = 64;
  NuevoMatch nm{cfg};
  nm.build(rules);
  ASSERT_FALSE(nm.isets().empty());
  // Threshold + float slack; the bound is certified, not a target, so allow
  // headroom for non-converged leaves (paper §3.5.6 allows the same).
  EXPECT_LT(nm.max_search_error(), 1024u);
}

}  // namespace
}  // namespace nuevomatch
