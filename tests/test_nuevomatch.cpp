// NuevoMatch end-to-end equivalence with the oracle across application
// classes, rule-set sizes, remainder backends and configurations — the
// repo's most important integration property.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "classbench/generator.hpp"
#include "classbench/stanford.hpp"
#include "cutsplit/cutsplit.hpp"
#include "neurocuts/neurocuts.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "nuevomatch/online.hpp"
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

TEST(NuevoMatch, FloorConsistency) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 4, 2000, 11);
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
  nm.build(rules);
  expect_floor_consistency(nm, rules);
}

// The caller's floor must reach all three online stages: the iSets, the base
// remainder (here replaced by its copy-on-write override after a base erase)
// and the churn delta (rules inserted after build). Tied priorities make the
// floor admit equal-priority rules across stage boundaries.
TEST(OnlineNuevoMatch, FloorConsistencyThroughOverrideAndChurnDelta) {
  const RuleSet rules =
      with_tied_priorities(generate_classbench(AppClass::kAcl, 1, 3000, 16), 200, 17);
  OnlineConfig ocfg;
  ocfg.base = base_config([] { return std::make_unique<TupleMerge>(); });
  ocfg.auto_retrain = false;
  OnlineNuevoMatch online{ocfg};
  const std::span<const Rule> all{rules};
  const auto late = all.subspan(all.size() / 2);
  online.build(all.first(all.size() / 2));
  ASSERT_FALSE(online.pin().nm().isets().empty());
  const std::vector<Rule> base_rem = online.pin().nm().remainder_rules();
  ASSERT_FALSE(base_rem.empty());
  const uint32_t erased = base_rem.front().id;
  ASSERT_TRUE(online.erase(erased));
  ASSERT_EQ(online.insert_batch(late), late.size());
  ASSERT_EQ(online.health().churn_rules, late.size());

  RuleSet live;
  for (const Rule& r : rules)
    if (r.id != erased) live.push_back(r);
  expect_matches_oracle(online, live, 4000, 18);
  expect_floor_consistency(online, live, 19);
}

// Equal priorities resolve to the smaller id on every path: the iSet hit's
// floor must still admit an equal-priority rule in a later iSet, in the
// remainder or in the online churn delta, and beats() then breaks the tie by
// id as LinearSearch does.
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

  // Online: the second half of the rules arrives after build(), so it sits
  // in the churn delta and ties with base rules of the same priority.
  OnlineConfig ocfg;
  ocfg.base = base_config([] { return std::make_unique<TupleMerge>(); });
  ocfg.auto_retrain = false;
  OnlineNuevoMatch online{ocfg};
  const std::span<const Rule> all{rules};
  const auto late = all.subspan(all.size() / 2);
  online.build(all.first(all.size() / 2));
  ASSERT_EQ(online.insert_batch(late), late.size());
  ASSERT_EQ(online.health().churn_rules, late.size());
  expect_matches_oracle(online, rules, 20000, 72);
  online.match_batch(trace, batched);
  for (size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(batched[i].rule_id, oracle.match(trace[i]).rule_id)
        << "online match_batch, packet " << i << ": " << to_string(trace[i]);
}

// The per-key walk predicts every iSet, then searches every iSet, then
// validates in iSet order while threading the floor; match_batch does the
// same per tile. Tombstoned candidates (whose metadata search() has already
// prefetched) must still be rejected, a caller floor must still cut every
// stage, and a ragged batch tail must not read past the packets it was given.
TEST(NuevoMatch, StagedWalkMatchesLinearSearchUnderFloorsAndTombstones) {
  const RuleSet rules =
      with_tied_priorities(generate_classbench(AppClass::kAcl, 2, 4000, 80), 100, 81);
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
  nm.build(rules);
  ASSERT_FALSE(nm.isets().empty());

  std::vector<uint32_t> doomed;
  for (const IsetIndex& is : nm.isets())
    for (size_t i = 0; i < is.rules().size(); i += 10) doomed.push_back(is.rules()[i].id);
  for (const uint32_t id : doomed) ASSERT_TRUE(nm.erase(id)) << id;
  RuleSet live;
  for (const Rule& r : rules)
    if (std::find(doomed.begin(), doomed.end(), r.id) == doomed.end()) live.push_back(r);
  LinearSearch oracle;
  oracle.build(live);

  std::vector<int32_t> prios;
  for (const Rule& r : live) prios.push_back(r.priority);
  std::nth_element(prios.begin(), prios.begin() + prios.size() / 2, prios.end());
  const int32_t floors[] = {INT32_MAX, prios[prios.size() / 2], 0};

  // The trace is drawn from every rule, tombstoned ones included, so many
  // packets land on a dead iSet candidate.
  TraceConfig tc;
  tc.n_packets = 6000;
  tc.seed = 82;
  const auto trace = generate_trace(rules, tc);
  for (const Packet& p : trace)
    for (const int32_t floor : floors)
      ASSERT_EQ(nm.match_with_floor(p, floor).rule_id,
                oracle.match_with_floor(p, floor).rule_id)
          << "floor " << floor << ": " << to_string(p);

  const std::span<const Packet> all{trace};
  std::vector<MatchResult> got(33);
  size_t at = 0;
  for (size_t len = 1; len <= 33; ++len) {
    const auto burst = all.subspan(at, len);
    nm.match_batch(burst, std::span(got).first(len));
    for (size_t i = 0; i < len; ++i)
      ASSERT_EQ(got[i].rule_id, oracle.match(burst[i]).rule_id)
          << "batch of " << len << ", packet " << i << ": " << to_string(burst[i]);
    at += len;
  }
}

TEST(NuevoMatch, IsetCountIsBoundedByKMaxIsets) {
  NuevoMatchConfig cfg = base_config([] { return std::make_unique<TupleMerge>(); });
  cfg.max_isets = static_cast<int>(NuevoMatch::kMaxIsets);
  NuevoMatch nm{cfg};
  cfg.max_isets = static_cast<int>(NuevoMatch::kMaxIsets) + 1;
  EXPECT_THROW(NuevoMatch{cfg}, std::invalid_argument);
  EXPECT_THROW(nm.restore(std::vector<IsetIndex>(NuevoMatch::kMaxIsets + 1), {}),
               std::invalid_argument);
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
