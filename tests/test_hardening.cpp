// Adversarial and invariant tests for the performance-critical machinery:
// the cut tree's hard replication budget, TupleMerge's flat bucket layout
// under heavy update churn, and the iSet's packed-metadata fast paths.
#include <gtest/gtest.h>

#include <algorithm>

#include "classbench/generator.hpp"
#include "classifiers/linear.hpp"
#include "common/prefix.hpp"
#include "common/rng.hpp"
#include "cutsplit/cut_tree.hpp"
#include "isets/iset_index.hpp"
#include "isets/partition.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

// --- cut tree: replication budget is a hard post-condition -------------------

RuleSet adversarial_wildcards(size_t n, uint64_t seed) {
  // Worst case for cutting: rules wildcard in most dimensions with short,
  // heavily overlapping prefixes — every cut replicates nearly every rule.
  Rng rng{seed};
  RuleSet rules;
  for (size_t i = 0; i < n; ++i) {
    Rule r;
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
    const int len = static_cast<int>(rng.between(1, 6));
    r.field[rng.chance(0.5) ? kSrcIp : kDstIp] = prefix_to_range(rng.next_u32(), len);
    if (rng.chance(0.3)) {
      const auto lo = static_cast<uint32_t>(rng.below(60000));
      r.field[kDstPort] = Range{lo, std::min(65535u, lo + 8192)};
    }
    rules.push_back(r);
  }
  canonicalize(rules);
  return rules;
}

class ReplicationBudget : public ::testing::TestWithParam<double> {};

TEST_P(ReplicationBudget, HoldsOnAdversarialWildcardRules) {
  const RuleSet rules = adversarial_wildcards(3000, 17);
  CutTreeConfig cfg;
  cfg.ref_budget_factor = GetParam();
  CutTree tree;
  tree.build(rules, cfg);
  EXPECT_LE(tree.stats().replication, cfg.ref_budget_factor)
      << "budget must be a hard post-condition";

  // And the tree must still answer correctly.
  LinearSearch oracle;
  oracle.build(rules);
  TraceConfig tc;
  tc.n_packets = 3000;
  tc.seed = 18;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(tree.match_with_floor(p, INT32_MAX).rule_id, oracle.match(p).rule_id);
}

INSTANTIATE_TEST_SUITE_P(Budgets, ReplicationBudget, ::testing::Values(2.0, 8.0, 20.0));

TEST(ReplicationBudget, BudgetBelowOneStillBuilds) {
  // Degenerate budget: the tree must fall back to one leaf, not crash.
  const RuleSet rules = adversarial_wildcards(200, 19);
  CutTreeConfig cfg;
  cfg.ref_budget_factor = 0.0;
  CutTree tree;
  tree.build(rules, cfg);
  EXPECT_LE(tree.stats().replication, 1.0 + 1e-9);
  LinearSearch oracle;
  oracle.build(rules);
  TraceConfig tc;
  tc.n_packets = 500;
  tc.seed = 20;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(tree.match_with_floor(p, INT32_MAX).rule_id, oracle.match(p).rule_id);
}

// --- TupleMerge: flat layout under update churn -------------------------------

TEST(TupleMergeChurn, InsertEraseCyclesStayConsistent) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 2000, 21);
  TupleMerge tm;
  tm.build(rules);
  LinearSearch oracle;
  oracle.build(rules);

  Rng rng{22};
  std::vector<Rule> live(rules.begin(), rules.end());
  std::vector<Rule> dead;
  uint32_t next_id = static_cast<uint32_t>(rules.size());
  for (int round = 0; round < 400; ++round) {
    if (!live.empty() && rng.chance(0.5)) {
      const size_t k = rng.below(live.size());
      ASSERT_TRUE(tm.erase(live[k].id)) << "round " << round;
      dead.push_back(live[k]);
      live.erase(live.begin() + static_cast<long>(k));
    } else {
      Rule r = dead.empty() ? rules[rng.below(rules.size())] : dead.back();
      if (!dead.empty()) dead.pop_back();
      r.id = next_id++;
      r.priority = static_cast<int32_t>(r.id);
      ASSERT_TRUE(tm.insert(r));
      live.push_back(r);
    }
  }
  EXPECT_EQ(tm.size(), live.size());

  LinearSearch fresh;
  fresh.build(live);
  TraceConfig tc;
  tc.n_packets = 4000;
  tc.seed = 23;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(tm.match(p).rule_id, fresh.match(p).rule_id);
}

TEST(TupleMergeChurn, EraseOfUnknownIdFails) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 300, 24);
  TupleMerge tm;
  tm.build(rules);
  EXPECT_FALSE(tm.erase(999'999));
  EXPECT_EQ(tm.size(), rules.size());
  ASSERT_TRUE(tm.erase(rules[7].id));
  EXPECT_FALSE(tm.erase(rules[7].id)) << "double erase must fail";
}

TEST(TupleMergeChurn, MemoryShrinksAfterCompactingErasures) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 4000, 25);
  TupleMerge tm;
  tm.build(rules);
  const size_t before = tm.memory_bytes();
  for (size_t i = 0; i < rules.size(); i += 2) ASSERT_TRUE(tm.erase(rules[i].id));
  // Erasing half the rules must eventually compact tables.
  EXPECT_LT(tm.memory_bytes(), before);
  EXPECT_EQ(tm.size(), rules.size() - rules.size() / 2);
}

// --- iSet packed-metadata fast paths ------------------------------------------

IsetIndex build_iset(const RuleSet& rules) {
  IsetPartitionConfig pc;
  pc.max_isets = 1;
  pc.min_coverage_fraction = 0.01;
  IsetPartition part = partition_rules(rules, pc);
  IsetIndex idx;
  idx.build(part.isets.at(0).field, std::move(part.isets.at(0).rules),
            rqrmi::default_config(1000));
  return idx;
}

TEST(IsetFastPath, FloorRejectsWithoutChangingSemantics) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 3000, 26);
  const IsetIndex idx = build_iset(rules);
  TraceConfig tc;
  tc.n_packets = 5000;
  tc.seed = 27;
  for (const Packet& p : generate_trace(rules, tc)) {
    const MatchResult full = idx.lookup(p);
    // Floor above the hit keeps it; floor at/below the hit suppresses it.
    if (full.hit()) {
      const MatchResult keep = idx.lookup(p, full.priority + 1);
      ASSERT_EQ(keep.rule_id, full.rule_id);
      const MatchResult cut = idx.lookup(p, full.priority);
      ASSERT_FALSE(cut.hit());
    } else {
      ASSERT_FALSE(idx.lookup(p, 123).hit());
    }
  }
}

TEST(IsetFastPath, WildcardShortcutAgreesWithFullValidation) {
  // Single-field rules: every rule is wildcard outside the indexed field, so
  // the shortcut path answers everything — and must agree with a from-scratch
  // check against the rule bodies.
  RuleSet rules;
  Rng rng{28};
  uint32_t at = 0;
  for (int i = 0; i < 500; ++i) {
    Rule r;
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
    const uint32_t len = 1 + static_cast<uint32_t>(rng.below(1000));
    r.field[kDstIp] = Range{at, at + len - 1};
    at += len + 1 + static_cast<uint32_t>(rng.below(1000));
    rules.push_back(r);
  }
  canonicalize(rules);
  IsetIndex idx;
  idx.build(kDstIp, rules, rqrmi::default_config(rules.size()));
  LinearSearch oracle;
  oracle.build(rules);
  TraceConfig tc;
  tc.n_packets = 5000;
  tc.seed = 29;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(idx.lookup(p).rule_id, oracle.match(p).rule_id);
}

TEST(IsetFastPath, ErasedRuleNeverReturnedThroughShortcut) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 3, 1500, 30);
  IsetIndex idx = build_iset(rules);
  ASSERT_GT(idx.size(), 10u);
  const Rule victim = idx.rule(idx.size() / 2);
  ASSERT_TRUE(idx.erase(victim.id));
  Packet p;
  for (int f = 0; f < kNumFields; ++f)
    p.field[static_cast<size_t>(f)] = victim.field[static_cast<size_t>(f)].lo;
  const MatchResult r = idx.lookup(p);
  EXPECT_NE(r.rule_id, static_cast<int32_t>(victim.id));
}

}  // namespace
}  // namespace nuevomatch
