#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "classbench/generator.hpp"
#include "oracle_check.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using testing_support::expect_floor_consistency;
using testing_support::expect_matches_oracle;
using testing_support::with_tied_priorities;

struct TmCase {
  AppClass app;
  int variant;
  size_t n;
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const TmCase& c) {
    return os << ruleset_name(c.app, c.variant) << "_n" << c.n << "_s" << c.seed;
  }
};

class TupleMergeOracle : public ::testing::TestWithParam<TmCase> {};

TEST_P(TupleMergeOracle, MatchesLinearSearch) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, c.variant, c.n, c.seed);
  TupleMerge tm;
  tm.build(rules);
  expect_matches_oracle(tm, rules);
}

TEST_P(TupleMergeOracle, TssMatchesLinearSearch) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, c.variant, c.n, c.seed);
  TupleSpaceSearch tss;
  tss.build(rules);
  expect_matches_oracle(tss, rules);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TupleMergeOracle,
                         ::testing::Values(TmCase{AppClass::kAcl, 1, 1000, 1},
                                           TmCase{AppClass::kAcl, 3, 3000, 2},
                                           TmCase{AppClass::kFw, 1, 1000, 3},
                                           TmCase{AppClass::kFw, 4, 3000, 4},
                                           TmCase{AppClass::kIpc, 1, 2000, 5},
                                           TmCase{AppClass::kIpc, 2, 500, 6}));

TEST(TupleMerge, FloorConsistency) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 1500, 7);
  TupleMerge tm;
  tm.build(rules);
  expect_floor_consistency(tm, rules);
}

TEST(TupleMerge, MergingUsesFewerTablesThanTss) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 5000, 8);
  TupleMerge tm;
  TupleSpaceSearch tss;
  tm.build(rules);
  tss.build(rules);
  EXPECT_LT(tm.num_tables(), tss.num_tables());
  EXPECT_GT(tm.num_tables(), 0u);
}

TEST(TupleMerge, InsertThenMatch) {
  RuleSet rules = generate_classbench(AppClass::kAcl, 1, 500, 9);
  TupleMerge tm;
  tm.build(rules);
  Rule fresh;
  for (int f = 0; f < kNumFields; ++f) fresh.field[static_cast<size_t>(f)] = full_range(f);
  fresh.field[kDstIp] = Range{0x01020304, 0x01020304};
  fresh.id = 100000;
  fresh.priority = -5;  // best priority
  ASSERT_TRUE(tm.insert(fresh));
  Packet p{};
  p.field[kDstIp] = 0x01020304;
  EXPECT_EQ(tm.match(p).rule_id, 100000);
  EXPECT_EQ(tm.size(), rules.size() + 1);
}

// The two deletion paths: erase() restructures the tables; tombstone()
// only clears the rule's alive byte (the online engine's reader-safe form).
// Each erase test below runs through both.
enum class ErasePath { kErase, kTombstone };

bool erase_via(TupleMerge& tm, uint32_t id, ErasePath path) {
  return path == ErasePath::kErase ? tm.erase(id) : tm.tombstone(id);
}

class TupleMergeErase : public ::testing::TestWithParam<ErasePath> {};

INSTANTIATE_TEST_SUITE_P(Paths, TupleMergeErase,
                         ::testing::Values(ErasePath::kErase, ErasePath::kTombstone),
                         [](const auto& info) {
                           return info.param == ErasePath::kErase ? "erase" : "tombstone";
                         });

TEST_P(TupleMergeErase, EraseRemovesOnlyTarget) {
  RuleSet rules = generate_classbench(AppClass::kFw, 2, 800, 10);
  TupleMerge tm;
  tm.build(rules);
  LinearSearch oracle;
  oracle.build(rules);
  // Erase 50 random rules from both, then compare.
  Rng rng{11};
  for (int i = 0; i < 50; ++i) {
    const auto victim = static_cast<uint32_t>(rng.below(rules.size()));
    const bool a = erase_via(tm, victim, GetParam());
    const bool b = oracle.erase(victim);
    EXPECT_EQ(a, b);
  }
  // Compare the two post-erase instances directly on a trace drawn from the
  // original set (erased rules' packets now hit their next-best match).
  TraceConfig tc;
  tc.n_packets = 1500;
  tc.seed = 13;
  for (const Packet& p : generate_trace(rules, tc))
    EXPECT_EQ(tm.match(p).rule_id, oracle.match(p).rule_id);
}

// Regression (found by the churn serializer tests): erasing a table's BEST
// rule raises that table's best_priority, and the table array must be
// re-sorted or match_with_floor's early-termination break skips later
// tables that still hold better matches — plain match() misses live rules.
// A tombstone leaves best_priority at the dead rule's, which keeps the
// order conservative instead.
TEST_P(TupleMergeErase, EraseOfTableBestKeepsFloorSearchExact) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 1200, 51);
  TupleMerge tm;
  tm.build(rules);
  // Erase the globally best rules one by one: each erase is maximally likely
  // to raise some table's best_priority past its neighbors'.
  std::vector<uint32_t> order;
  for (const Rule& r : rules) order.push_back(r.id);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return rules[a].priority < rules[b].priority;
  });
  LinearSearch oracle;
  oracle.build(rules);
  TraceConfig tc;
  tc.n_packets = 800;
  tc.seed = 52;
  const auto trace = generate_trace(rules, tc);
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_EQ(erase_via(tm, order[i], GetParam()), oracle.erase(order[i]));
    for (const Packet& p : trace) {
      ASSERT_EQ(tm.match(p).rule_id, oracle.match(p).rule_id)
          << "after erasing the " << i << " best rules: " << to_string(p);
    }
    expect_floor_consistency(tm, rules, 60 + i);
  }
}

// tombstone() races lookups: reader threads run match_with_floor while a
// writer tombstones the best rules one at a time. A flip is one byte store
// the probes read atomically, so every answer is LinearSearch's answer
// with some prefix of the flips applied — one no earlier than the flips
// published before the lookup began, none later than the flip in flight
// when it ended. Runs under the TSAN CI leg.
TEST(TupleMerge, TombstoneRacesLookups) {
  const RuleSet rules =
      with_tied_priorities(generate_classbench(AppClass::kAcl, 1, 1500, 70), 200, 71);
  TupleMerge tm;
  tm.build(rules);
  TraceConfig tc;
  tc.n_packets = 400;
  tc.seed = 72;
  const auto trace = generate_trace(rules, tc);

  // Victims: the best rules first, so most flips change some answer.
  constexpr size_t kFlips = 48;
  std::vector<Rule> victims(rules.begin(), rules.end());
  std::sort(victims.begin(), victims.end(), [](const Rule& a, const Rule& b) {
    return MatchResult{static_cast<int32_t>(a.id), a.priority}.beats(
        MatchResult{static_cast<int32_t>(b.id), b.priority});
  });
  victims.resize(kFlips);
  // expected[k][i]: the answer for trace[i] after the first k flips.
  std::vector<std::vector<int32_t>> expected(kFlips + 1);
  LinearSearch oracle;
  oracle.build(rules);
  for (size_t k = 0; k <= kFlips; ++k) {
    if (k > 0) ASSERT_TRUE(oracle.erase(victims[k - 1].id));
    for (const Packet& p : trace) expected[k].push_back(oracle.match(p).rule_id);
  }

  std::atomic<size_t> flips{0};
  std::atomic<bool> done{false};
  std::atomic<size_t> bad{0};
  std::atomic<size_t> lookups{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        i = (i + 1) % trace.size();
        const size_t lo = flips.load(std::memory_order_acquire);
        const int32_t got =
            tm.match_with_floor(trace[i], std::numeric_limits<int32_t>::max()).rule_id;
        const size_t hi = std::min(kFlips, flips.load(std::memory_order_acquire) + 1);
        bool ok = false;
        for (size_t k = lo; k <= hi && !ok; ++k) ok = got == expected[k][i];
        if (!ok) bad.fetch_add(1, std::memory_order_relaxed);
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t k = 0; k < kFlips; ++k) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ASSERT_TRUE(tm.tombstone(victims[k].id));
    flips.store(k + 1, std::memory_order_release);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u) << "of " << lookups.load() << " lookups";
  EXPECT_GT(lookups.load(), 0u);
  // A second flip of the same rule is refused, and the final state is the
  // oracle's.
  EXPECT_FALSE(tm.tombstone(victims[0].id));
  for (size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(tm.match(trace[i]).rule_id, expected[kFlips][i]) << to_string(trace[i]);
}

TEST(TupleMerge, SupportsUpdatesFlag) {
  TupleMerge tm;
  EXPECT_TRUE(tm.supports_updates());
}

TEST(TupleMerge, MemoryGrowsWithRules) {
  TupleMerge small;
  TupleMerge big;
  small.build(generate_classbench(AppClass::kAcl, 1, 500, 14));
  big.build(generate_classbench(AppClass::kAcl, 1, 5000, 14));
  EXPECT_GT(big.memory_bytes(), small.memory_bytes());
}

TEST(TupleMerge, EmptyRuleSet) {
  TupleMerge tm;
  tm.build({});
  EXPECT_FALSE(tm.match(Packet{}).hit());
  EXPECT_EQ(tm.size(), 0u);
}

TEST(TupleMerge, CollisionLimitTriggersSplit) {
  // Many rules sharing one relaxed tuple but distinct exact tuples: the
  // collision limit must spill them into exact tables.
  RuleSet rules;
  for (uint32_t i = 0; i < 200; ++i) {
    Rule r;
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
    // Same /24 block -> same masked key in a /24-relaxed table.
    r.field[kDstIp] = Range{0x0A0A0A00u + i, 0x0A0A0A00u + i};
    rules.push_back(r);
  }
  canonicalize(rules);
  TupleMergeConfig cfg;
  cfg.collision_limit = 8;
  cfg.ip_len_granularity = 8;
  TupleMerge tm{cfg};
  tm.build(rules);
  expect_matches_oracle(tm, rules, 1000, 15);
}

// Equal priorities resolve to the smaller id — MatchResult::beats, the
// LinearSearch order — inside a bucket, across tables and through the
// pruning bound. With priorities drawn from 50 values most overlapping
// matches tie.
TEST(TupleMerge, TiedPrioritiesBreakByIdLikeLinearSearch) {
  const RuleSet rules =
      with_tied_priorities(generate_classbench(AppClass::kAcl, 1, 5000, 60), 50, 61);
  TupleMerge tm;
  TupleSpaceSearch tss;
  tm.build(rules);
  tss.build(rules);
  expect_matches_oracle(tm, rules, 20000, 62);
  expect_matches_oracle(tss, rules, 20000, 62);
  expect_floor_consistency(tm, rules, 63);
  expect_floor_consistency(tss, rules, 63);
}

Rule dst_block_rule(uint32_t dst_port_lo, uint32_t dst_port_hi, uint32_t proto_lo,
                    uint32_t proto_hi) {
  Rule r;
  for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  r.field[kDstIp] = Range{0x0A000000u, 0x0A0000FFu};  // 10.0.0.0/24
  r.field[kDstPort] = Range{dst_port_lo, dst_port_hi};
  r.field[kProto] = Range{proto_lo, proto_hi};
  return r;
}

// Mask policy: merged tables key on IPv4 prefix lengths only, so rules that
// differ only in port or protocol shape share one table — until the
// collision limit splits the overfull key back out into an exact-tuple
// table, which keeps its port and protocol bits.
TEST(TupleMerge, PortAndProtocolShapesShareOneTableUntilSplit) {
  // Priority = id = index. The most specific shape comes first, so an
  // exact-tuple policy would open one table per shape.
  RuleSet rules;
  for (uint32_t i = 0; i < 20; ++i) rules.push_back(dst_block_rule(80 + i, 80 + i, 6, 6));
  for (uint32_t i = 0; i < 5; ++i) rules.push_back(dst_block_rule(0, 65535, 17, 17));
  for (uint32_t i = 0; i < 10; ++i) rules.push_back(dst_block_rule(1024, 65535, 0, 255));
  for (uint32_t i = 20; i < 35; ++i) rules.push_back(dst_block_rule(80 + i, 80 + i, 6, 6));
  canonicalize(rules);
  const RuleSet initial(rules.begin(), rules.begin() + 35);

  TupleMerge tm;
  tm.build(initial);
  TupleSpaceSearch tss;
  tss.build(initial);
  EXPECT_EQ(tss.num_tables(), 3u);  // one table per port/protocol shape
  ASSERT_EQ(tm.num_tables(), 1u);
  TupleMask relaxed;
  relaxed.len[kDstIp] = 24;
  EXPECT_EQ(tm.tables()[0]->mask(), relaxed);
  EXPECT_EQ(tm.tables()[0]->max_collisions(), 35u);
  expect_matches_oracle(tm, initial, 2000, 64);

  // The 41st rule on the one key passes the limit of 40: every exact-port
  // rule moves to a table that hashes the port and protocol.
  for (size_t i = initial.size(); i < rules.size(); ++i) ASSERT_TRUE(tm.insert(rules[i]));
  ASSERT_EQ(tm.num_tables(), 2u);
  TupleMask exact = relaxed;
  exact.len[kDstPort] = 16;
  exact.len[kProto] = 8;
  size_t exact_rules = 0;
  for (const auto& t : tm.tables()) {
    EXPECT_LE(t->max_collisions(), 40u);
    if (t->mask() == exact) exact_rules = t->size();
    else EXPECT_EQ(t->mask(), relaxed);
  }
  EXPECT_EQ(exact_rules, 35u);
  expect_matches_oracle(tm, rules, 2000, 65);
}

// The ClassBench firewall seed whose port ranges change the table inventory
// most under the IP-only mask policy.
TEST(TupleMerge, PortRangeHeavyFirewallMatchesLinearSearch) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 3, 5000, 66);
  TupleMerge tm;
  tm.build(rules);
  TupleSpaceSearch tss;
  tss.build(rules);
  EXPECT_LT(tm.num_tables() * 10, tss.num_tables());
  expect_matches_oracle(tm, rules, 20000, 67);
  expect_floor_consistency(tm, rules, 68);
}

}  // namespace
}  // namespace nuevomatch
