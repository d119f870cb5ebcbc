// NuevoMatch end-to-end equivalence with the oracle across application
// classes, rule-set sizes, remainder backends and configurations — the
// repo's most important integration property.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>

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

// --- remainder skip (IsetIndex::needs_remainder) ------------------------------

/// A remainder stage that counts how often the composition asks it.
struct CountingStage {
  const Classifier& inner;
  mutable size_t calls = 0;
  [[nodiscard]] MatchResult match_with_floor(const Packet& p, int32_t floor) const {
    ++calls;
    return inner.match_with_floor(p, floor);
  }
};

/// The skip bit by brute force: some remainder rule overlaps the iSet
/// rule's box and outranks it under MatchResult::beats.
bool brute_needs_remainder(const Rule& w, std::span<const Rule> remainder) {
  const MatchResult mw{static_cast<int32_t>(w.id), w.priority};
  for (const Rule& r : remainder) {
    if (!MatchResult{static_cast<int32_t>(r.id), r.priority}.beats(mw)) continue;
    bool overlap = true;
    for (size_t f = 0; f < kNumFields; ++f) overlap = overlap && r.field[f].overlaps(w.field[f]);
    if (overlap) return true;
  }
  return false;
}

void expect_bits_match_brute_force(const NuevoMatch& nm, std::span<const Rule> remainder) {
  for (const IsetIndex& is : nm.isets())
    for (size_t i = 0; i < is.size(); ++i)
      ASSERT_EQ(is.needs_remainder(i), brute_needs_remainder(is.rules()[i], remainder))
          << "iSet rule " << is.rules()[i].id;
}

/// Boundary probes: each rule's lo corner with one field moved to that
/// field's lo, hi, lo-1, hi+1, 0 or domain maximum (2^32-1 for addresses).
std::vector<Packet> boundary_probes(std::span<const Rule> rules) {
  std::vector<Packet> out;
  for (const Rule& r : rules) {
    Packet corner;
    for (size_t f = 0; f < kNumFields; ++f) corner.field[f] = r.field[f].lo;
    for (size_t f = 0; f < kNumFields; ++f) {
      const uint64_t lo = r.field[f].lo;
      const uint64_t hi = r.field[f].hi;
      std::vector<uint64_t> vals{lo, hi, 0, kFieldDomain[f]};
      if (lo > 0) vals.push_back(lo - 1);
      if (hi < kFieldDomain[f]) vals.push_back(hi + 1);
      for (const uint64_t v : vals) {
        Packet p = corner;
        p.field[f] = static_cast<uint32_t>(v);
        out.push_back(p);
      }
    }
  }
  return out;
}

void expect_oracle_per_key_and_batched(const NuevoMatch& nm, std::span<const Rule> rules,
                                       std::span<const Packet> probes) {
  LinearSearch oracle;
  oracle.build(rules);
  std::vector<MatchResult> batched(probes.size());
  nm.match_batch(probes, batched);
  for (size_t i = 0; i < probes.size(); ++i) {
    const int32_t want = oracle.match(probes[i]).rule_id;
    ASSERT_EQ(nm.match(probes[i]).rule_id, want) << "per-key: " << to_string(probes[i]);
    ASSERT_EQ(batched[i].rule_id, want) << "match_batch: " << to_string(probes[i]);
  }
}

/// 64 iSet rules disjoint in the source address (half of each 2^26 block, so
/// the other half misses the iSet), every fourth one wildcard elsewhere,
/// priorities 100..163 and ids 4..67; and four remainder rules (ids 0..3)
/// that overlap iSet rules:
///   id 0 outranks iSet rule 3 by priority (50 < 103);
///   id 1 ties iSet rule 9's priority (109) and wins on the smaller id;
///   id 2 is a full wildcard at priority 140: it outranks rules 40..63
///        (rule 40 by id) and is outranked by rules 0..39;
///   id 3 is a single point inside iSet rule 20, priority 20.
/// Built through restore(), so the partition cannot move a rule across.
struct SkipFixture {
  std::vector<Rule> iset_rules;
  std::vector<Rule> remainder;
  std::vector<Rule> all;
  NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};

  SkipFixture() {
    for (uint32_t i = 0; i < 64; ++i) {
      Rule r;
      for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
      r.field[kSrcIp] = Range{i << 26, (i << 26) + (1u << 25) - 1};
      if (i % 4 != 0) {
        r.field[kDstIp] = Range{0x0A000000, 0x0AFFFFFF};
        r.field[kDstPort] = Range{1000 + i, 2000 + i};
        r.field[kProto] = Range{6, 6};
      }
      r.priority = static_cast<int32_t>(100 + i);
      r.id = 4 + i;
      iset_rules.push_back(r);
    }
    Rule by_prio = iset_rules[3];
    by_prio.field[kSrcIp] = Range{(3u << 26) + 5, (3u << 26) + 0x105};
    by_prio.field[kSrcPort] = Range{80, 80};
    by_prio.field[kDstPort] = Range{1500, 1600};
    by_prio.priority = 50;
    by_prio.id = 0;
    Rule by_id = iset_rules[9];
    by_id.field[kSrcIp] = Range{(9u << 26) + 0x1000, (9u << 26) + 0x1FFF};
    by_id.id = 1;
    Rule wild;
    for (int f = 0; f < kNumFields; ++f) wild.field[static_cast<size_t>(f)] = full_range(f);
    wild.priority = 140;
    wild.id = 2;
    Rule point;
    for (size_t f = 0; f < kNumFields; ++f) {
      const Range& in = iset_rules[20].field[f];
      point.field[f] = Range{in.lo + 7, in.lo + 7};
    }
    point.priority = 20;
    point.id = 3;
    remainder = {by_prio, by_id, wild, point};
    all = remainder;
    all.insert(all.end(), iset_rules.begin(), iset_rules.end());

    IsetIndex idx;
    auto cfg = rqrmi::default_config(iset_rules.size());
    cfg.seed = 5;
    idx.build(kSrcIp, iset_rules, cfg);
    std::vector<IsetIndex> isets;
    isets.push_back(std::move(idx));
    nm.restore(std::move(isets), remainder);
  }

  [[nodiscard]] bool expected_bit(size_t i) const {
    return i == 3 || i == 9 || i == 20 || i >= 40;
  }
};

TEST(NuevoMatchRemainderSkip, BitIsSetExactlyWhereARemainderRuleCanWin) {
  SkipFixture fx;
  ASSERT_EQ(fx.nm.isets().size(), 1u);
  const IsetIndex& is = fx.nm.isets()[0];
  ASSERT_EQ(is.size(), 64u);
  for (size_t i = 0; i < is.size(); ++i)
    EXPECT_EQ(is.needs_remainder(i), fx.expected_bit(i)) << "iSet rule " << i;
  expect_bits_match_brute_force(fx.nm, fx.remainder);
  EXPECT_DOUBLE_EQ(fx.nm.remainder_skip_fraction(), 37.0 / 64.0);
  expect_oracle_per_key_and_batched(fx.nm, fx.all, boundary_probes(fx.all));
}

// The composition asks the first remainder stage only for iSet misses and
// for hits whose bit is set; a later stage (the churn delta's slot) is asked
// for every packet.
TEST(NuevoMatchRemainderSkip, FirstStageRunsOnlyForMissesAndSetBits) {
  SkipFixture fx;
  const IsetIndex& is = fx.nm.isets()[0];
  std::unordered_map<int32_t, size_t> pos;
  for (size_t i = 0; i < is.size(); ++i) pos[static_cast<int32_t>(is.rules()[i].id)] = i;
  const std::vector<Packet> probes = boundary_probes(fx.all);
  size_t expected = 0;
  for (const Packet& p : probes) {
    const MatchResult hit = is.lookup(p);
    if (!hit.hit() || is.needs_remainder(pos.at(hit.rule_id))) ++expected;
  }
  ASSERT_GT(expected, 0u);
  ASSERT_LT(expected, probes.size());

  LinearSearch oracle;
  oracle.build(fx.all);
  LinearSearch empty;
  empty.build({});
  CountingStage first{fx.nm.remainder()};
  CountingStage later{empty};
  for (const Packet& p : probes)
    ASSERT_EQ(fx.nm.match_with_floor(p, std::numeric_limits<int32_t>::max(), first, later)
                  .rule_id,
              oracle.match(p).rule_id)
        << to_string(p);
  EXPECT_EQ(first.calls, expected);
  EXPECT_EQ(later.calls, probes.size());

  CountingStage first_b{fx.nm.remainder()};
  CountingStage later_b{empty};
  std::vector<MatchResult> out(probes.size());
  fx.nm.match_batch(probes, out, first_b, later_b);
  for (size_t i = 0; i < probes.size(); ++i)
    ASSERT_EQ(out[i].rule_id, oracle.match(probes[i]).rule_id) << to_string(probes[i]);
  EXPECT_EQ(first_b.calls, expected);
  EXPECT_EQ(later_b.calls, probes.size());
}

// NuevoMatch::insert into the base remainder (the retrain replay's path)
// sets the bits of the iSet rules the new rule overlaps and outranks, so a
// rule landing on a skipping iSet hit still wins.
TEST(NuevoMatchRemainderSkip, InsertOverAClearBitWins) {
  SkipFixture fx;
  const IsetIndex& is = fx.nm.isets()[0];
  ASSERT_FALSE(is.needs_remainder(5));
  Rule late = is.rules()[5];
  for (size_t f = 0; f < kNumFields; ++f) late.field[f] = Range{late.field[f].hi, late.field[f].hi};
  late.priority = is.rules()[5].priority - 1;
  late.id = 68;
  ASSERT_TRUE(fx.nm.insert(late));
  EXPECT_TRUE(is.needs_remainder(5));
  for (size_t i = 0; i < is.size(); ++i)
    if (i != 5) EXPECT_EQ(is.needs_remainder(i), fx.expected_bit(i)) << "iSet rule " << i;

  Packet p;
  for (size_t f = 0; f < kNumFields; ++f) p.field[f] = late.field[f].lo;
  EXPECT_EQ(fx.nm.match(p).rule_id, 68);
  fx.all.push_back(late);
  expect_oracle_per_key_and_batched(fx.nm, fx.all, boundary_probes(fx.all));
}

// Generated rule-sets large enough that the build pass takes both candidate
// sets (the overlap range and the outranked rank suffix): the bits equal the
// brute-force definition, and the answers stay exact with ties everywhere.
TEST(NuevoMatchRemainderSkip, BitsMatchBruteForceAndTiesStayExact) {
  for (const auto& [app, seed] : {std::pair{AppClass::kAcl, 90}, std::pair{AppClass::kFw, 91},
                                  std::pair{AppClass::kIpc, 92}}) {
    const RuleSet rules = with_tied_priorities(
        generate_classbench(app, 1, 4000, static_cast<uint64_t>(seed)), 40, 93);
    NuevoMatch nm{base_config([] { return std::make_unique<TupleMerge>(); })};
    nm.build(rules);
    ASSERT_FALSE(nm.isets().empty());
    const std::vector<Rule> rem = nm.remainder_rules();
    expect_bits_match_brute_force(nm, rem);
    EXPECT_GT(nm.remainder_skip_fraction(), 0.0) << ruleset_name(app, 1);
    EXPECT_LT(nm.remainder_skip_fraction(), 1.0) << ruleset_name(app, 1);

    expect_matches_oracle(nm, rules, 8000, 94);
    TraceConfig tc;
    tc.n_packets = 8000;
    tc.seed = 95;
    std::vector<Packet> probes = generate_trace(rules, tc);
    const std::vector<Packet> edges = boundary_probes(std::span(rules).first(200));
    probes.insert(probes.end(), edges.begin(), edges.end());
    expect_oracle_per_key_and_batched(nm, rules, probes);
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
