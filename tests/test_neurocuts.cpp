#include <gtest/gtest.h>

#include "classbench/generator.hpp"
#include "neurocuts/neurocuts.hpp"
#include "oracle_check.hpp"

namespace nuevomatch {
namespace {

using testing_support::expect_floor_consistency;
using testing_support::expect_matches_oracle;

TEST(NeuroCuts, MatchesOracleAcl) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 2000, 1);
  NeuroCutsLike nc;
  nc.build(rules);
  expect_matches_oracle(nc, rules);
}

TEST(NeuroCuts, MatchesOracleFw) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 3, 1500, 2);
  NeuroCutsLike nc;
  nc.build(rules);
  expect_matches_oracle(nc, rules);
}

// Equal priorities across trees: a later tree must still return an
// equal-priority rule with a smaller id, so the tree floor is tie_floor(),
// not the running best's priority.
TEST(NeuroCuts, TiedPrioritiesBreakByIdLikeLinearSearch) {
  for (const auto& [app, variant] :
       {std::pair{AppClass::kAcl, 1}, std::pair{AppClass::kFw, 1},
        std::pair{AppClass::kIpc, 1}}) {
    SCOPED_TRACE(ruleset_name(app, variant));
    const RuleSet rules = testing_support::with_tied_priorities(
        generate_classbench(app, variant, 5000, 70), 50, 71);
    NeuroCutsLike nc;
    nc.build(rules);
    expect_matches_oracle(nc, rules, 20'000);
  }
}

TEST(NeuroCuts, FloorConsistency) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 1000, 3);
  NeuroCutsLike nc;
  nc.build(rules);
  expect_floor_consistency(nc, rules);
}

TEST(NeuroCuts, SearchIsDeterministicPerSeed) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 1000, 4);
  NeuroCutsConfig cfg;
  cfg.seed = 99;
  NeuroCutsLike a{cfg};
  NeuroCutsLike b{cfg};
  a.build(rules);
  b.build(rules);
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  EXPECT_EQ(a.chosen_config().max_fanout, b.chosen_config().max_fanout);
  EXPECT_EQ(a.chose_top_partition(), b.chose_top_partition());
}

TEST(NeuroCuts, SpaceRewardYieldsSmallerTrees) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 4000, 5);
  NeuroCutsConfig time_cfg;
  time_cfg.reward = NeuroCutsConfig::Reward::kTime;
  time_cfg.search_iterations = 10;
  NeuroCutsConfig space_cfg = time_cfg;
  space_cfg.reward = NeuroCutsConfig::Reward::kSpace;
  NeuroCutsLike nt{time_cfg};
  NeuroCutsLike ns{space_cfg};
  nt.build(rules);
  ns.build(rules);
  EXPECT_LE(ns.memory_bytes(), nt.memory_bytes() * 2)
      << "space-optimized tree should not be much bigger than time-optimized";
}

TEST(NeuroCuts, MoreIterationsNeverWorseScore) {
  // With the same seed, a longer search sees a superset of configurations.
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 1500, 6);
  NeuroCutsConfig small;
  small.search_iterations = 2;
  small.reward = NeuroCutsConfig::Reward::kSpace;
  NeuroCutsConfig large = small;
  large.search_iterations = 12;
  NeuroCutsLike a{small};
  NeuroCutsLike b{large};
  a.build(rules);
  b.build(rules);
  EXPECT_LE(b.memory_bytes(), a.memory_bytes());
}

TEST(NeuroCuts, EmptyRuleSet) {
  NeuroCutsLike nc;
  nc.build({});
  EXPECT_FALSE(nc.match(Packet{}).hit());
}

}  // namespace
}  // namespace nuevomatch
