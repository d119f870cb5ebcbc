// Targeted FlowCache unit suite for the dependency-aware (priority-band)
// invalidation scheme and the shard-grouped burst probes (ISSUE 8):
//
//   * a commit in ANOTHER band keeps a cached entry serving (and counts it
//     as `retained`); a commit in the SAME band retires it;
//   * a cached MISS lives in the catch-all band: erases never kill it,
//     inserts always do;
//   * a fresher-than-probe entry is a provable HIT (counted `future`) —
//     the pre-band cache miscounted these as cold misses;
//   * insert() dropping an older-stamped re-insert is counted, and a
//     stale-retired way (stamp cleared, key left behind) is reused by the
//     next fill instead of evicting a live neighbor;
//   * lookup_burst/insert_burst group lanes by shard, probe with the band
//     marks re-checked per shard hold, and stay coherent while commits and
//     retrain swaps race mid-burst (run under TSAN in CI).
//
// The rule-set is handcrafted so every band is addressable: rule i matches
// exactly one src-ip and has priority i*10, so with 160 rules the installed
// band map splits [0, 1590] into 16 bands of width 100 — decisions land in
// a band the test can pick by choosing which rule a packet hits.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "classbench/parser.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/flow_cache.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using pipeline::Decision;
using pipeline::FlowCache;

constexpr uint32_t kSrcBase = 1000;
constexpr int kNRules = 160;  // priorities 0..1590 → 16 bands of width 100

RuleSet band_rules() {
  RuleSet rules;
  rules.reserve(kNRules);
  for (int i = 0; i < kNRules; ++i) {
    Rule r;
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
    const uint32_t src = kSrcBase + static_cast<uint32_t>(i);
    r.field[kSrcIp] = Range{src, src};
    r.priority = i * 10;
    r.id = static_cast<uint32_t>(i);
    r.action = 0;
    rules.push_back(r);
  }
  return rules;
}

/// A packet matching exactly rule i (and nothing else).
Packet pkt(int i) {
  Packet p;
  p.field = {kSrcBase + static_cast<uint32_t>(i), 1, 2, 3, 4};
  return p;
}

std::shared_ptr<OnlineNuevoMatch> make_online(const RuleSet& rules) {
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.auto_retrain = false;
  cfg.retrain_threshold = 1.0;
  auto online = std::make_shared<OnlineNuevoMatch>(std::move(cfg));
  online->build(rules);
  return online;
}

Rule worse_rule(uint32_t src, int32_t priority, uint32_t id) {
  Rule r;
  for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  r.field[kSrcIp] = Range{src, src};
  r.priority = priority;
  r.id = id;
  return r;
}

// --- band map ---------------------------------------------------------------

TEST(FlowCacheBands, BandMapSplitsThePriorityRange) {
  auto online = make_online(band_rules());
  EXPECT_EQ(online->coherence_band(0), 0);
  EXPECT_EQ(online->coherence_band(1590), OnlineNuevoMatch::kCoherenceBands - 1);
  // Monotone in priority, clamped at both ends.
  int prev = 0;
  for (int prio = 0; prio <= 1590; prio += 10) {
    const int b = online->coherence_band(prio);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, OnlineNuevoMatch::kCoherenceBands);
    prev = b;
  }
  EXPECT_EQ(online->coherence_band(-100), 0);
  EXPECT_EQ(online->coherence_band(10'000'000),
            OnlineNuevoMatch::kCoherenceBands - 1);
}

// --- dependency-aware invalidation ------------------------------------------

TEST(FlowCacheBands, CommitInAnotherBandKeepsTheEntry) {
  auto online = make_online(band_rules());
  FlowCache cache{256};
  cache.set_stamp_source(online.get());

  // Cache the decision for a packet whose best match is priority 30 (band 0).
  const Packet p = pkt(3);
  const uint64_t stamp = cache.current_stamp();
  const MatchResult r = online->match(p);
  ASSERT_EQ(r.rule_id, 3);
  cache.insert(p, Decision{r.rule_id, r.priority, 0}, stamp);

  // A WORSE-priority insert (top band) cannot beat the cached match: the
  // entry must keep serving — this is the whole point of the bands.
  ASSERT_TRUE(online->insert(worse_rule(50'000, 100'000, 777)));
  Decision d;
  ASSERT_TRUE(cache.lookup(p, d));
  EXPECT_EQ(d.rule_id, 3);
  EXPECT_EQ(online->match(p).rule_id, 3);  // the served answer is current

  // An erase in a DIFFERENT band (priority 1500 → band 15) cannot change a
  // band-0 decision either.
  ASSERT_TRUE(online->erase(150));
  ASSERT_TRUE(cache.lookup(p, d));
  EXPECT_EQ(d.rule_id, 3);

  const FlowCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.stale, 0u);
  EXPECT_EQ(s.retained, 2u);  // both hits survived commits
}

TEST(FlowCacheBands, SameBandCommitRetiresTheEntry) {
  auto online = make_online(band_rules());
  FlowCache cache{256};
  cache.set_stamp_source(online.get());

  const Packet p = pkt(3);
  const uint64_t stamp = cache.current_stamp();
  const MatchResult r = online->match(p);
  ASSERT_EQ(r.rule_id, 3);
  cache.insert(p, Decision{r.rule_id, r.priority, 0}, stamp);

  // Erasing the matched rule IS a same-band commit: the entry is dead.
  ASSERT_TRUE(online->erase(3));
  Decision d;
  EXPECT_FALSE(cache.lookup(p, d));
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_FALSE(online->match(p).hit());

  // A BETTER-priority insert invalidates every worse band, including the
  // band a cached decision lives in.
  const Packet q = pkt(150);  // priority 1500 → band 15
  const uint64_t stamp2 = cache.current_stamp();
  const MatchResult r2 = online->match(q);
  ASSERT_EQ(r2.rule_id, 150);
  cache.insert(q, Decision{r2.rule_id, r2.priority, 0}, stamp2);
  // Priority 800 → band 8 <= 15: the suffix bump must kill the entry (the
  // new rule doesn't even need to match the packet — invalidation is
  // per-band, not per-flow).
  ASSERT_TRUE(online->insert(worse_rule(60'000, 800, 778)));
  EXPECT_FALSE(cache.lookup(q, d));
  EXPECT_EQ(cache.stats().stale, 2u);
}

TEST(FlowCacheBands, CachedMissSurvivesErasesAndDiesOnInsert) {
  auto online = make_online(band_rules());
  FlowCache cache{256};
  cache.set_stamp_source(online.get());

  Packet p;
  p.field = {999'999, 1, 2, 3, 4};  // matches nothing
  const uint64_t stamp = cache.current_stamp();
  const MatchResult r = online->match(p);
  ASSERT_FALSE(r.hit());
  cache.insert(p, Decision{r.rule_id, r.priority, -1}, stamp);

  // Erases can never turn a miss into a hit — the catch-all band is not
  // marked, so the cached miss keeps serving.
  ASSERT_TRUE(online->erase(7));
  ASSERT_TRUE(online->erase(120));
  Decision d;
  ASSERT_TRUE(cache.lookup(p, d));
  EXPECT_EQ(d.rule_id, MatchResult::kNoMatch);

  // ANY insert can turn a miss into a hit (the inserted rule could cover
  // this flow), so every insert marks the catch-all.
  ASSERT_TRUE(online->insert(worse_rule(70'000, 100'000, 779)));
  EXPECT_FALSE(cache.lookup(p, d));
  EXPECT_EQ(cache.stats().stale, 1u);
}

// --- construction ------------------------------------------------------------

// The shard count is bounded: burst probes index shards through one 64-bit
// touched-set word, so 0 or more than kMaxShards is refused up front rather
// than clamped or allocated.
TEST(FlowCacheShape, ShardCountOutsideOneToMaxIsRejected) {
  EXPECT_THROW(FlowCache(64, 0), std::invalid_argument);
  EXPECT_THROW(FlowCache(64, FlowCache::kMaxShards + 1), std::invalid_argument);
  FlowCache widest{4096, FlowCache::kMaxShards};
  EXPECT_EQ(widest.shards(), FlowCache::kMaxShards);
  // A full burst spread over every shard still round-trips.
  std::array<Packet, FlowCache::kBurstLanes> pkts{};
  std::array<Decision, FlowCache::kBurstLanes> ds{};
  for (uint32_t i = 0; i < FlowCache::kBurstLanes; ++i) {
    pkts[i].field = {i, i + 1, i + 2, i + 3, i + 4};
    ds[i] = Decision{static_cast<int32_t>(i), static_cast<int32_t>(i), 0};
  }
  widest.insert_burst(pkts.data(), FlowCache::kBurstLanes, ~0u, ds.data(), 1);
  std::array<Decision, FlowCache::kBurstLanes> got{};
  EXPECT_EQ(widest.lookup_burst(pkts.data(), FlowCache::kBurstLanes, ~0u,
                                got.data()),
            ~0u);
  for (uint32_t i = 0; i < FlowCache::kBurstLanes; ++i)
    EXPECT_EQ(got[i].rule_id, static_cast<int32_t>(i));
}

// --- accounting fixes (satellites) ------------------------------------------

TEST(FlowCacheStats, FutureStampedEntryIsAHitCountedAsFuture) {
  // No stamp source: current_stamp() is pinned to 0, so an entry stamped 5
  // is FRESHER than any probe's view. The band marks (pinned to 0) prove it
  // current — it must be served, and counted in the `future` sub-bucket
  // (the pre-band cache returned a plain miss here).
  FlowCache cache{64, 2};
  Packet p;
  p.field = {1, 2, 3, 4, 5};
  cache.insert(p, Decision{7, 7, 1}, 5);
  Decision d;
  ASSERT_TRUE(cache.lookup(p, d));
  EXPECT_EQ(d.rule_id, 7);
  const FlowCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.future, 1u);
  EXPECT_EQ(s.retained, 0u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(FlowCacheStats, OlderStampedReinsertIsDroppedAndCounted) {
  FlowCache cache{64, 2};
  Packet p;
  p.field = {1, 2, 3, 4, 5};
  cache.insert(p, Decision{7, 7, 1}, 5);
  // A re-insert carrying an OLDER stamp must not downgrade the entry — and
  // must no longer vanish without a trace.
  cache.insert(p, Decision{8, 8, 2}, 3);
  const FlowCache::Stats s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.insert_drops, 1u);
  Decision d;
  ASSERT_TRUE(cache.lookup(p, d));
  EXPECT_EQ(d.rule_id, 7);  // the fresher decision won
}

TEST(FlowCacheStats, RetiredWayIsReusedByTheNextFill) {
  // One set (capacity == kWays, 1 shard): four flows in four DIFFERENT
  // bands fill it exactly. Retiring one must free ITS way for the refill —
  // not shadow accounting or evict a live neighbor.
  auto online = make_online(band_rules());
  FlowCache cache{FlowCache::kWays, 1};
  cache.set_stamp_source(online.get());
  const int flows[4] = {3, 50, 100, 150};  // bands 0, 5, 10, 15
  const uint64_t stamp = cache.current_stamp();
  for (const int i : flows) {
    const MatchResult r = online->match(pkt(i));
    ASSERT_EQ(r.rule_id, i);
    cache.insert(pkt(i), Decision{r.rule_id, r.priority, 0}, stamp);
  }
  ASSERT_EQ(cache.stats().evictions, 0u);

  // Same-band commit for flow 3 only: its lookup retires the way (stamp
  // cleared, key left behind).
  ASSERT_TRUE(online->erase(3));
  Decision d;
  EXPECT_FALSE(cache.lookup(pkt(3), d));
  EXPECT_EQ(cache.stats().stale, 1u);

  // The refill must land in the retired way: zero evictions, and the other
  // three flows still serve.
  const uint64_t stamp2 = cache.current_stamp();
  const MatchResult r = online->match(pkt(3));
  cache.insert(pkt(3), Decision{r.rule_id, r.priority, -1}, stamp2);
  EXPECT_EQ(cache.stats().evictions, 0u);
  ASSERT_TRUE(cache.lookup(pkt(3), d));
  EXPECT_EQ(d.rule_id, MatchResult::kNoMatch);
  for (const int i : {50, 100, 150}) {
    ASSERT_TRUE(cache.lookup(pkt(i), d));
    EXPECT_EQ(d.rule_id, i);
  }
}

TEST(FlowCacheStats, LookupsDenominatorAndIntervalDelta) {
  FlowCache cache{64, 2};
  Packet p;
  p.field = {1, 2, 3, 4, 5};
  Decision d;
  EXPECT_FALSE(cache.lookup(p, d));  // miss
  cache.insert(p, Decision{7, 7, 1}, 0);
  EXPECT_TRUE(cache.lookup(p, d));  // hit
  const FlowCache::Stats a = cache.stats();
  EXPECT_EQ(a.lookups(), a.hits + a.misses + a.stale);
  EXPECT_EQ(a.lookups(), 2u);
  EXPECT_TRUE(cache.lookup(p, d));
  const FlowCache::Stats delta = cache.stats() - a;
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(delta.lookups(), 1u);
  EXPECT_DOUBLE_EQ(delta.hit_rate(), 1.0);
}

// size() is point-in-time occupancy — what a quarantine drain actually
// drops — NOT the cumulative insert count (re-stamping a cached flow grows
// inserts but not occupancy; clear() zeroes occupancy but not inserts).
TEST(FlowCacheStats, SizeIsOccupancyNotCumulativeInserts) {
  FlowCache cache{64, 2};
  EXPECT_EQ(cache.size(), 0u);
  for (uint32_t i = 0; i < 8; ++i) {
    Packet p;
    p.field = {i, i + 1, i + 2, i + 3, i + 4};
    cache.insert(p, Decision{static_cast<int32_t>(i), 0, 0}, 0);
  }
  EXPECT_EQ(cache.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    Packet p;
    p.field = {i, i + 1, i + 2, i + 3, i + 4};
    cache.insert(p, Decision{static_cast<int32_t>(i), 0, 0}, 1);
  }
  EXPECT_EQ(cache.size(), 8u) << "a re-stamp must not grow occupancy";
  EXPECT_EQ(cache.stats().inserts, 16u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().inserts, 16u) << "clear drops entries, not stats";
}

// --- shard-grouped burst probes ---------------------------------------------

TEST(FlowCacheBurst, BurstProbeGroupsByShardAndHonorsBands) {
  auto online = make_online(band_rules());
  FlowCache cache{1024, 4};
  cache.set_stamp_source(online.get());

  // 32 flows spanning the shards: lanes 0..15 hit low-band rules (bands
  // 0..1), lanes 16..31 hit top-band rules 144..159 (bands 14..15).
  std::array<Packet, 32> ps;
  std::array<Decision, 32> ds;
  for (int i = 0; i < 32; ++i) {
    const int rule = i < 16 ? i : 144 + (i - 16);
    ps[static_cast<size_t>(i)] = pkt(rule);
    const MatchResult r = online->match(ps[static_cast<size_t>(i)]);
    ASSERT_EQ(r.rule_id, rule);
    ds[static_cast<size_t>(i)] = Decision{r.rule_id, r.priority, 0};
  }
  const uint64_t stamp = cache.current_stamp();
  cache.insert_burst(ps.data(), 32, ~uint32_t{0}, ds.data(), stamp);
  EXPECT_EQ(cache.stats().inserts, 32u);

  // A partial probe only touches the lanes under n.
  std::array<Decision, 32> out;
  EXPECT_EQ(cache.lookup_burst(ps.data(), 8, ~uint32_t{0}, out.data()), 0xFFu);

  // Erase the top-band rules: bands 14..15 are marked, bands 0..1 are not.
  std::vector<uint32_t> dead;
  for (uint32_t id = 144; id < 160; ++id) dead.push_back(id);
  ASSERT_EQ(online->erase_batch(dead), dead.size());

  const uint32_t hits = cache.lookup_burst(ps.data(), 32, ~uint32_t{0}, out.data());
  EXPECT_EQ(hits, 0x0000'FFFFu);  // low bands retained, top bands retired
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<size_t>(i)].rule_id, i);
  EXPECT_EQ(cache.stats().stale, 16u);

  // Refill the retired lanes under a fresh stamp; the whole burst then hits.
  const uint64_t stamp2 = cache.current_stamp();
  for (int i = 16; i < 32; ++i) {
    const MatchResult r = online->match(ps[static_cast<size_t>(i)]);
    EXPECT_FALSE(r.hit());
    ds[static_cast<size_t>(i)] = Decision{r.rule_id, r.priority, -1};
  }
  cache.insert_burst(ps.data(), 32, 0xFFFF'0000u, ds.data(), stamp2);
  EXPECT_EQ(cache.lookup_burst(ps.data(), 32, ~uint32_t{0}, out.data()),
            ~uint32_t{0});
}

TEST(FlowCacheBurst, BurstProbesStayCoherentAcrossRacingCommitsAndSwaps) {
  // The mid-commit gate, as a race: a writer hammers worse-priority churn
  // (insert_batch + erase_batch, with periodic forced retrain swaps) while
  // the main thread runs burst probe/fill cycles over a stable core whose
  // answers are invariant under the churn. Every decision a burst probe
  // serves must equal the invariant answer — a band bump hoisted over the
  // burst (instead of re-checked per shard hold) would flunk this under
  // TSAN and often functionally too. CI runs this suite under TSAN.
  auto online = make_online(band_rules());
  FlowCache cache{4096, 8};
  cache.set_stamp_source(online.get());

  constexpr int kCore = 64;
  std::array<Packet, kCore> core;
  std::array<int32_t, kCore> expected;
  for (int i = 0; i < kCore; ++i) {
    const int rule = i % kNRules;
    core[static_cast<size_t>(i)] = pkt(rule);
    expected[static_cast<size_t>(i)] = rule;
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint32_t next_id = 1'000'000;
    for (int iter = 0; !stop.load(std::memory_order_relaxed); ++iter) {
      std::vector<Rule> burst;
      std::vector<uint32_t> ids;
      for (int j = 0; j < 8; ++j) {
        const Rule r = worse_rule(500'000 + static_cast<uint32_t>(j),
                                  5'000'000 + j, next_id++);
        burst.push_back(r);
        ids.push_back(r.id);
      }
      (void)online->insert_batch(burst);
      (void)online->erase_batch(ids);
      if (iter % 64 == 0) online->retrain_now();
    }
    online->quiesce();
  });

  // Loop until retained hits are observed (the writer provably committed
  // between a fill and a later probe) rather than a fixed count: on a
  // single-core host a fixed reader loop can finish before the writer
  // thread is ever scheduled. The cap keeps a broken build from hanging.
  uint64_t mismatches = 0;
  uint64_t rounds = 0;
  constexpr uint64_t kMaxRounds = 200'000;
  while (rounds < kMaxRounds) {
    const auto iter = static_cast<int>(rounds++);
    const size_t off = (static_cast<size_t>(iter) * 32) % kCore;
    const Packet* ps = core.data() + off;
    const int32_t* want = expected.data() + off;
    const uint64_t stamp = cache.current_stamp();
    std::array<Decision, 32> out;
    const uint32_t hits = cache.lookup_burst(ps, 32, ~uint32_t{0}, out.data());
    std::array<Decision, 32> fill;
    uint32_t fill_mask = 0;
    for (int i = 0; i < 32; ++i) {
      if ((hits >> i) & 1u) {
        if (out[static_cast<size_t>(i)].rule_id != want[i]) ++mismatches;
      } else {
        const MatchResult r = online->match(ps[i]);
        if (r.rule_id != want[i]) ++mismatches;
        fill[static_cast<size_t>(i)] = Decision{r.rule_id, r.priority, 0};
        fill_mask |= 1u << i;
      }
    }
    if (fill_mask != 0) cache.insert_burst(ps, 32, fill_mask, fill.data(), stamp);
    if ((rounds & 63) == 0) {
      if (rounds >= 256 && cache.stats().retained > 0) break;
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(mismatches, 0u);
  // The bands must have RETAINED entries across the churn — if every commit
  // still invalidated everything, this loop would never have broken out.
  EXPECT_LT(rounds, kMaxRounds);
  EXPECT_GT(cache.stats().retained, 0u);
}

}  // namespace
}  // namespace nuevomatch
