// IsetIndex: RQ-RMI-backed single-field index with secondary search and
// multi-field validation (paper Figure 1 left path).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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

// search() returns the last window position whose range starts at or below
// the value, without reading where that range ends, so a value in the gap
// after a range yields a candidate whose range ends below it; validate()
// must reject it from the slot. The staged calls (per key and batched, at
// every SIMD level) and lookup() agree with a brute-force scan of the iSet
// on each rule's lo-1, lo, hi and hi+1 and on 0 and 2^32-1, for tombstoned
// rules, rules wildcard outside the indexed field (validate's shortcut) and
// rules whose other fields reject the packet, with and without a floor.
TEST(IsetIndex, SearchMayReturnAGapThatValidateRejects) {
  Rng rng{41};
  std::vector<Rule> rules;
  uint32_t lo = 5;  // 0 lies in the gap before the first range
  for (uint32_t i = 0; i < 300; ++i) {
    Rule r;
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
    const uint32_t width = 1 + static_cast<uint32_t>(rng.below(1u << 20));
    r.field[kDstIp] = Range{lo, lo + width - 1};
    lo += width + (i % 3 == 0 ? 0 : 1 + static_cast<uint32_t>(rng.below(1u << 22)));
    if (i % 4 != 0) r.field[kProto] = Range{6, 6};  // not wildcard elsewhere
    r.priority = static_cast<int32_t>(rng.below(50));
    r.id = i;
    rules.push_back(r);
  }
  ASSERT_LT(rules.back().field[kDstIp].hi, 0xFFFFFFFFu);  // and 2^32-1 after the last
  IsetIndex idx;
  idx.build(kDstIp, rules, rqrmi::default_config(rules.size()));
  for (uint32_t i = 7; i < rules.size(); i += 25) ASSERT_TRUE(idx.erase(i));

  const auto brute = [&](const Packet& p, int32_t floor) {
    for (const Rule& r : rules)
      if (r.matches(p) && idx.alive(r.id) && r.priority < floor)
        return MatchResult{static_cast<int32_t>(r.id), r.priority};
    return MatchResult{};
  };
  std::vector<Packet> probes;
  const auto probe = [&](uint32_t v) {
    for (const uint32_t proto : {6u, 17u}) {
      Packet p;
      p.field[kDstIp] = v;
      p.field[kProto] = proto;
      probes.push_back(p);
    }
  };
  probe(0);
  probe(0xFFFFFFFFu);
  for (const Rule& r : rules) {
    const Range& f = r.field[kDstIp];
    for (const uint32_t v : {f.lo - 1, f.lo, f.hi, f.hi + 1}) probe(v);
  }

  size_t gaps = 0, shortcuts = 0, body_rejects = 0, dead = 0;
  for (const Packet& p : probes) {
    const uint32_t v = p[kDstIp];
    const int32_t pos = idx.search(v, idx.predict(v, rqrmi::SimdLevel::kSerial));
    const MatchResult want = brute(p, std::numeric_limits<int32_t>::max());
    if (pos >= 0) {
      const Rule& c = idx.rule(static_cast<size_t>(pos));
      ASSERT_LE(c.field[kDstIp].lo, v);
      if (c.field[kDstIp].hi < v) {
        ++gaps;
        ASSERT_FALSE(idx.validate(pos, p).hit()) << "gap candidate at " << v;
      } else if (!idx.alive(static_cast<size_t>(pos))) {
        ++dead;
      } else if (c.is_wildcard(kProto)) {
        shortcuts += p[kProto] == 17 ? 1 : 0;
      } else {
        body_rejects += c.matches(p) ? 0 : 1;
      }
    }
    ASSERT_EQ(idx.lookup(p).rule_id, want.rule_id) << "lookup at " << v;
    if (!want.hit()) continue;
    ASSERT_EQ(idx.lookup(p, want.priority + 1).rule_id, want.rule_id) << v;
    ASSERT_FALSE(idx.lookup(p, want.priority).hit()) << "floor at own priority, " << v;
    ASSERT_EQ(idx.validate(pos, p, want.priority + 1).rule_id, want.rule_id) << v;
    ASSERT_FALSE(idx.validate(pos, p, want.priority).hit()) << v;
  }
  EXPECT_GT(gaps, 0u);
  EXPECT_GT(shortcuts, 0u);
  EXPECT_GT(body_rejects, 0u);
  EXPECT_GT(dead, 0u);

  std::vector<uint32_t> vals(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) vals[i] = probes[i][kDstIp];
  for (const rqrmi::SimdLevel level :
       {rqrmi::SimdLevel::kSerial, rqrmi::SimdLevel::kSse, rqrmi::SimdLevel::kAvx}) {
    std::vector<rqrmi::Prediction> preds(vals.size());
    std::vector<int32_t> pos(vals.size());
    idx.predict_batch(vals, preds, level);
    idx.search_batch(vals, preds, pos);
    for (size_t i = 0; i < probes.size(); ++i) {
      const int32_t want = brute(probes[i], std::numeric_limits<int32_t>::max()).rule_id;
      ASSERT_EQ(idx.validate(pos[i], probes[i]).rule_id, want)
          << "batched, level " << rqrmi::to_string(level) << ", value " << vals[i];
      const int32_t one = idx.search(vals[i], idx.predict(vals[i], level));
      ASSERT_EQ(idx.validate(one, probes[i]).rule_id, want)
          << "per key, level " << rqrmi::to_string(level) << ", value " << vals[i];
    }
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
// biases away. Each window is its own heap block, so a kernel that read past
// the window's end would show under AddressSanitizer.
TEST(IsetIndex, CountLeqAgreesWithUpperBoundAtEveryLevel) {
  Rng rng{17};
  // Every window length 0..40: every length of the AVX2 kernel's masked
  // last chunk (0..7) after 0..5 full chunks.
  for (size_t width = 0; width <= 40; ++width) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<uint32_t> window(width);
      for (uint32_t& x : window) x = rng.next_u32();
      if (width > 0 && rep % 2 == 0) window[0] = 0;
      if (width > 0 && rep % 3 == 0) window[width - 1] = 0xFFFFFFFFu;
      std::sort(window.begin(), window.end());
      window.erase(std::unique(window.begin(), window.end()), window.end());
      window.shrink_to_fit();
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
