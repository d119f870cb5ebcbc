#include <gtest/gtest.h>

#include "classbench/generator.hpp"
#include "cutsplit/cutsplit.hpp"
#include "oracle_check.hpp"

namespace nuevomatch {
namespace {

using testing_support::expect_floor_consistency;
using testing_support::expect_matches_oracle;

struct CsCase {
  AppClass app;
  int variant;
  size_t n;
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const CsCase& c) {
    return os << ruleset_name(c.app, c.variant) << "_n" << c.n << "_s" << c.seed;
  }
};

class CutSplitOracle : public ::testing::TestWithParam<CsCase> {};

TEST_P(CutSplitOracle, MatchesLinearSearch) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, c.variant, c.n, c.seed);
  CutSplit cs;
  cs.build(rules);
  expect_matches_oracle(cs, rules);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CutSplitOracle,
                         ::testing::Values(CsCase{AppClass::kAcl, 1, 1000, 1},
                                           CsCase{AppClass::kAcl, 4, 3000, 2},
                                           CsCase{AppClass::kFw, 2, 1500, 3},
                                           CsCase{AppClass::kFw, 5, 3000, 4},
                                           CsCase{AppClass::kIpc, 1, 2500, 5},
                                           CsCase{AppClass::kIpc, 2, 600, 6}));

// Equal priorities across trees: a later tree must still return an
// equal-priority rule with a smaller id, so the tree floor is tie_floor(),
// not the running best's priority.
TEST(CutSplit, TiedPrioritiesBreakByIdLikeLinearSearch) {
  for (const auto& [app, variant] :
       {std::pair{AppClass::kAcl, 1}, std::pair{AppClass::kFw, 1},
        std::pair{AppClass::kIpc, 1}}) {
    SCOPED_TRACE(ruleset_name(app, variant));
    const RuleSet rules = testing_support::with_tied_priorities(
        generate_classbench(app, variant, 5000, 70), 50, 71);
    CutSplit cs;
    cs.build(rules);
    expect_matches_oracle(cs, rules, 20'000);
  }
}

TEST(CutSplit, FloorConsistency) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 2, 1200, 7);
  CutSplit cs;
  cs.build(rules);
  expect_floor_consistency(cs, rules);
}

TEST(CutSplit, PartitionBySmallFieldsIsExhaustive) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 2000, 8);
  const auto groups = partition_by_small_fields(rules, 16);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, rules.size());
  // Group membership must reflect the predicate.
  const uint64_t limit = uint64_t{1} << 16;
  for (const Rule& r : groups[0]) {
    EXPECT_GT(r.field[kSrcIp].span(), limit);
    EXPECT_GT(r.field[kDstIp].span(), limit);
  }
  for (const Rule& r : groups[3]) {
    EXPECT_LE(r.field[kSrcIp].span(), limit);
    EXPECT_LE(r.field[kDstIp].span(), limit);
  }
}

TEST(CutTree, RespectsBinthInLeaves) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 3000, 9);
  CutTreeConfig cfg;
  cfg.binth = 8;
  CutTree tree;
  tree.build(rules, cfg);
  const auto s = tree.stats();
  // Leaves may exceed binth only when refinement stalls; on ACL-style rules
  // the bulk must respect it.
  EXPECT_LE(s.max_leaf_rules, 512u);
  EXPECT_GT(s.leaves, rules.size() / 64);
}

TEST(CutTree, ReplicationIsBounded) {
  // max_replication bounds the per-node estimate; multiplied across levels
  // the total ref count can still grow, but must stay far from the
  // exponential blow-up HiCuts suffers (paper §2.1).
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 2000, 10);
  CutTreeConfig cfg;
  CutTree tree;
  tree.build(rules, cfg);
  EXPECT_LT(tree.stats().replication, 24.0) << "rule replication explosion";
}

TEST(CutTree, PureCutModeStillCorrect) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 800, 11);
  CutTreeConfig cfg;
  cfg.enable_split_phase = false;
  CutTree tree;
  tree.build(rules, cfg);
  LinearSearch oracle;
  oracle.build(rules);
  TraceConfig tc;
  tc.n_packets = 2000;
  tc.seed = 12;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(tree.match_with_floor(p, INT32_MAX).rule_id, oracle.match(p).rule_id);
}

TEST(CutTree, EmptyAndSingleRule) {
  CutTree empty;
  empty.build({}, CutTreeConfig{});
  EXPECT_FALSE(empty.match_with_floor(Packet{}, INT32_MAX).hit());

  RuleSet one(1);
  for (int f = 0; f < kNumFields; ++f) one[0].field[static_cast<size_t>(f)] = full_range(f);
  canonicalize(one);
  CutTree single;
  single.build(one, CutTreeConfig{});
  EXPECT_EQ(single.match_with_floor(Packet{}, INT32_MAX).rule_id, 0);
}

TEST(CutSplit, MemoryAccountedAndUpdateSupport) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 1000, 13);
  CutSplit cs;
  cs.build(rules);
  EXPECT_GT(cs.memory_bytes(), 0u);
  EXPECT_TRUE(cs.supports_updates());
  EXPECT_EQ(cs.name(), "cutsplit");
  EXPECT_EQ(cs.size(), rules.size());
}

TEST(CutSplit, InsertLandsInOverflowEraseTombstonesTree) {
  // §3.9 on the decision-tree backend: inserts go to the overflow list
  // (probed after the trees), deletions tombstone inside the owning tree.
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 800, 17);
  CutSplit cs;
  cs.build(rules);

  Rule extra = rules[3];
  extra.id = 50'000;
  extra.priority = -1;  // on top of everything
  ASSERT_TRUE(cs.insert(extra));
  EXPECT_EQ(cs.overflow_size(), 1u);
  ASSERT_TRUE(cs.erase(7));
  EXPECT_FALSE(cs.erase(7)) << "double-erase must fail";
  EXPECT_EQ(cs.size(), rules.size());  // +1 insert, -1 erase

  RuleSet expected;  // the logical post-update rule-set, for a fresh oracle
  for (const Rule& r : rules)
    if (r.id != 7) expected.push_back(r);
  expected.push_back(extra);
  expect_matches_oracle(cs, expected);
}

TEST(CutSplit, OverflowTiesBreakBySmallerIdLikeTheOracle) {
  // Two equal-priority overflow rules matching the same packet: the
  // (priority, id) order of types.hpp must pick the smaller id, exactly as
  // LinearSearch does — insertion order must not matter.
  RuleSet rules = generate_classbench(AppClass::kAcl, 1, 200, 19);
  CutSplit cs;
  cs.build(rules);
  Packet p;
  for (int f = 0; f < kNumFields; ++f) p.field[static_cast<size_t>(f)] = 2u;
  Rule a, b;
  for (int f = 0; f < kNumFields; ++f) {
    a.field[static_cast<size_t>(f)] = Range{2, 2};
    b.field[static_cast<size_t>(f)] = Range{2, 2};
  }
  a.id = 9'200;
  b.id = 9'100;  // smaller id, inserted second
  a.priority = b.priority = -5;
  ASSERT_TRUE(cs.insert(a));
  ASSERT_TRUE(cs.insert(b));
  EXPECT_EQ(cs.match(p).rule_id, 9'100);
}

}  // namespace
}  // namespace nuevomatch
