// IsetIndex: RQ-RMI-backed single-field index with secondary search and
// multi-field validation (paper Figure 1 left path).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "classbench/generator.hpp"
#include "common/rng.hpp"
#include "isets/iset_index.hpp"
#include "isets/partition.hpp"
#include "trace/trace.hpp"

namespace nuevomatch {
namespace {

/// Build an iSet index over the largest iSet of a generated rule-set.
struct Fixture {
  RuleSet all;
  IsetIndex index;
  std::vector<Rule> iset_rules;
  int field = 0;

  explicit Fixture(AppClass app, size_t n, uint64_t seed) {
    all = generate_classbench(app, 1, n, seed);
    IsetPartitionConfig pc;
    pc.max_isets = 1;
    pc.min_coverage_fraction = 0.01;
    IsetPartition part = partition_rules(all, pc);
    EXPECT_FALSE(part.isets.empty());
    field = part.isets[0].field;
    iset_rules = part.isets[0].rules;
    auto cfg = rqrmi::default_config(iset_rules.size());
    cfg.seed = seed;
    index.build(field, iset_rules, cfg);
  }
};

TEST(IsetIndex, FindsEveryOwnRule) {
  Fixture fx{AppClass::kAcl, 2000, 5};
  const auto pkts = representative_packets(fx.iset_rules, 17);
  for (size_t i = 0; i < fx.iset_rules.size(); ++i) {
    const MatchResult r = fx.index.lookup(pkts[i]);
    // The packet matches rule i on the indexed field by construction; the
    // index must return it (no other iSet rule can contain the same value).
    ASSERT_TRUE(r.hit()) << "rule " << fx.iset_rules[i].id;
    EXPECT_EQ(static_cast<uint32_t>(r.rule_id), fx.iset_rules[i].id);
  }
}

TEST(IsetIndex, ValidationRejectsWrongOtherFields) {
  Fixture fx{AppClass::kAcl, 1000, 6};
  // Find a rule with a non-wildcard port; flip the packet's port outside.
  for (const Rule& r : fx.iset_rules) {
    if (r.field[kDstPort].hi < 0xFFFF || r.field[kDstPort].lo > 0) {
      Packet p;
      for (int f = 0; f < kNumFields; ++f)
        p.field[static_cast<size_t>(f)] = r.field[static_cast<size_t>(f)].lo;
      p.field[kDstPort] = r.field[kDstPort].hi < 0xFFFF ? r.field[kDstPort].hi + 1
                                                        : r.field[kDstPort].lo - 1;
      const MatchResult m = fx.index.lookup(p);
      if (m.hit()) {
        EXPECT_NE(static_cast<uint32_t>(m.rule_id), r.id);
      }
      return;
    }
  }
  GTEST_SKIP() << "no port-constrained rule in sample";
}

TEST(IsetIndex, MissOnUncoveredKey) {
  // Two far-apart exact values: keys between them must miss.
  RuleSet rules(2);
  for (auto& r : rules)
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  rules[0].field[kDstIp] = Range{100, 200};
  rules[1].field[kDstIp] = Range{0xF0000000, 0xF0000100};
  canonicalize(rules);
  IsetIndex idx;
  idx.build(kDstIp, rules, rqrmi::default_config(2));
  Packet p;
  p.field[kDstIp] = 5000;
  EXPECT_FALSE(idx.lookup(p).hit());
  p.field[kDstIp] = 150;
  EXPECT_TRUE(idx.lookup(p).hit());
}

TEST(IsetIndex, StagedApiAgreesWithLookup) {
  Fixture fx{AppClass::kIpc, 1500, 8};
  const auto pkts = representative_packets(fx.iset_rules, 23);
  for (size_t i = 0; i < pkts.size(); i += 7) {
    const uint32_t v = pkts[i][fx.field];
    const auto pred = fx.index.predict(v);
    const int32_t pos = fx.index.search(v, pred);
    const MatchResult staged = fx.index.validate(pos, pkts[i]);
    const MatchResult direct = fx.index.lookup(pkts[i]);
    EXPECT_EQ(staged.rule_id, direct.rule_id);
  }
}

TEST(IsetIndex, EraseTombstonesRule) {
  Fixture fx{AppClass::kAcl, 800, 9};
  const auto pkts = representative_packets(fx.iset_rules, 31);
  const Rule& victim = fx.iset_rules[fx.iset_rules.size() / 2];
  ASSERT_TRUE(fx.index.erase(victim.id));
  EXPECT_EQ(fx.index.live_rules(), fx.iset_rules.size() - 1);
  const MatchResult m = fx.index.lookup(pkts[fx.iset_rules.size() / 2]);
  if (m.hit()) {
    EXPECT_NE(static_cast<uint32_t>(m.rule_id), victim.id);
  }
  EXPECT_FALSE(fx.index.erase(victim.id)) << "double erase must fail";
  EXPECT_FALSE(fx.index.erase(0xFFFFFFFF));
}

TEST(IsetIndex, ModelBytesAreCacheScale) {
  Fixture fx{AppClass::kAcl, 4000, 10};
  // The RQ-RMI part must be small (paper: KBs), the rule store is separate.
  EXPECT_LT(fx.index.model_bytes(), 64 * 1024u);
  EXPECT_GT(fx.index.rule_storage_bytes(), fx.index.size() * sizeof(Rule));
}

TEST(IsetIndex, RejectsOverlappingRules) {
  RuleSet rules(2);
  for (auto& r : rules)
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  rules[0].field[kDstIp] = Range{0, 100};
  rules[1].field[kDstIp] = Range{50, 150};
  canonicalize(rules);
  IsetIndex idx;
  EXPECT_THROW(idx.build(kDstIp, rules, rqrmi::default_config(2)), std::invalid_argument);
}

// search() prefetches the candidate it returns, so every position it can
// return must lie inside the arrays: at a one-rule iSet, and at keys 0 and
// 2^32-1, whose windows clamp to positions 0 and n-1 (also for predictions
// whose window reaches past either end of the array).
TEST(IsetIndex, SearchAtArrayEdgesStaysInBounds) {
  const auto edge_rule = [](uint32_t lo, uint32_t hi, uint32_t id) {
    Rule r;
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
    r.field[kDstIp] = Range{lo, hi};
    r.field[kProto] = Range{6, 6};  // not wildcard elsewhere: validate reads the body
    r.id = id;
    r.priority = static_cast<int32_t>(id);
    return r;
  };
  Packet lo_key;
  lo_key.field[kDstIp] = 0;
  lo_key.field[kProto] = 6;
  Packet hi_key = lo_key;
  hi_key.field[kDstIp] = 0xFFFFFFFFu;

  IsetIndex one;
  one.build(kDstIp, {edge_rule(0, 0xFFFFFFFFu, 0)}, rqrmi::default_config(1));
  for (const Packet& p : {lo_key, hi_key}) {
    EXPECT_EQ(one.search(p[kDstIp], one.predict(p[kDstIp])), 0);
    EXPECT_EQ(one.lookup(p).rule_id, 0);
  }

  std::vector<Rule> many;
  for (uint32_t i = 0; i < 64; ++i)
    many.push_back(edge_rule(i * 0x04000000u, i * 0x04000000u + 0x03FFFFFFu, i));
  IsetIndex idx;
  idx.build(kDstIp, many, rqrmi::default_config(many.size()));
  const auto last = static_cast<int32_t>(many.size() - 1);
  EXPECT_EQ(idx.search(0, idx.predict(0)), 0);
  EXPECT_EQ(idx.search(0xFFFFFFFFu, idx.predict(0xFFFFFFFFu)), last);
  EXPECT_EQ(idx.lookup(lo_key).rule_id, 0);
  EXPECT_EQ(idx.lookup(hi_key).rule_id, last);

  // Windows that overhang the array on either side, through both entry points.
  const uint32_t vals[] = {0, 0xFFFFFFFFu, 0, 0xFFFFFFFFu};
  const rqrmi::Prediction preds[] = {{0, 1000}, {static_cast<uint32_t>(last), 1000},
                                     {5, 5}, {static_cast<uint32_t>(last) + 3, 4}};
  const int32_t want[] = {0, last, 0, last};
  int32_t got[4] = {};
  idx.search_batch(vals, preds, got);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(idx.search(vals[i], preds[i]), want[i]) << i;
    EXPECT_EQ(got[i], want[i]) << i;
  }
}

TEST(IsetIndex, PortFieldIndexing) {
  // iSets can be built on 16-bit fields too (paper Figure 6 uses Port).
  RuleSet rules(100);
  for (size_t i = 0; i < rules.size(); ++i) {
    for (int f = 0; f < kNumFields; ++f) rules[i].field[static_cast<size_t>(f)] = full_range(f);
    rules[i].field[kDstPort] = Range{static_cast<uint32_t>(i * 600),
                                     static_cast<uint32_t>(i * 600 + 500)};
  }
  rules.resize(109 < rules.size() ? 109 : rules.size());
  RuleSet valid;
  for (auto& r : rules)
    if (r.field[kDstPort].hi <= 0xFFFF) valid.push_back(r);
  canonicalize(valid);
  IsetIndex idx;
  idx.build(kDstPort, valid, rqrmi::default_config(valid.size()));
  for (const Rule& r : valid) {
    Packet p;
    p.field[kDstPort] = r.field[kDstPort].lo + 250;
    const MatchResult m = idx.lookup(p);
    ASSERT_TRUE(m.hit());
    EXPECT_EQ(static_cast<uint32_t>(m.rule_id), r.id);
  }
}

// The window scan of the secondary search agrees with std::upper_bound at
// every SIMD level (a level the CPU lacks degrades to a narrower kernel), on
// every window width the search uses, for probes at, between and beyond the
// stored values — including values across the sign bit the AVX2 kernel
// biases away.
TEST(IsetIndex, CountLeqAgreesWithUpperBoundAtEveryLevel) {
  Rng rng{17};
  for (size_t width = 1; width <= 40; ++width) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<uint32_t> window(width);
      for (uint32_t& x : window) x = rng.next_u32();
      if (rep % 2 == 0) window[0] = 0;
      if (rep % 3 == 0) window[width - 1] = 0xFFFFFFFFu;
      std::sort(window.begin(), window.end());
      window.erase(std::unique(window.begin(), window.end()), window.end());
      std::vector<uint32_t> probes{0u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu};
      for (uint32_t x : window) {
        probes.push_back(x);
        probes.push_back(x - 1);
        probes.push_back(x + 1);
      }
      for (uint32_t v : probes) {
        const auto want = static_cast<size_t>(
            std::upper_bound(window.begin(), window.end(), v) - window.begin());
        for (rqrmi::SimdLevel level : {rqrmi::SimdLevel::kSerial, rqrmi::SimdLevel::kSse,
                                       rqrmi::SimdLevel::kAvx}) {
          ASSERT_EQ(count_leq(window.data(), window.size(), v, level), want)
              << "width " << window.size() << " probe " << v << " level "
              << rqrmi::to_string(level);
        }
      }
    }
  }
}

}  // namespace
}  // namespace nuevomatch
