// Churn tests (the concurrency proof for the online serving path): the
// seeded churn harness (churn_harness.hpp) runs multi-writer insert/erase
// schedules against OnlineNuevoMatch while scalar match() readers and
// match_batch() readers race the updates and the background
// retrain/swap cycles — every lookup differentially checked, first against
// the churn-invariant stable core (concurrently), then against a
// step-synchronized LinearSearch oracle (exactly). Run under ThreadSanitizer
// in CI; the assertions here are the functional half of the claim, TSAN is
// the data-race half.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "churn_harness.hpp"

namespace nuevomatch {
namespace {

struct ChurnCase {
  uint64_t seed;
  double threshold;
  bool auto_retrain;
  friend std::ostream& operator<<(std::ostream& os, const ChurnCase& c) {
    return os << "seed" << c.seed << "_thr" << c.threshold
              << (c.auto_retrain ? "_auto" : "_manual");
  }
};

class ChurnDifferential : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(ChurnDifferential, MultiWriterMultiReaderThroughSwaps) {
  const ChurnCase& c = GetParam();
  ChurnConfig cfg;
  cfg.seed = c.seed;
  cfg.retrain_threshold = c.threshold;
  cfg.auto_retrain = c.auto_retrain;
  cfg.n_writers = 2;
  cfg.n_scalar_readers = 1;
  cfg.n_batch_readers = 1;
  ChurnHarness harness{cfg};
  ASSERT_GT(harness.core().packets.size(), 100u) << "stable core too small";

  const ChurnResult res = harness.run();

  // Disjoint per-writer id spaces: every scheduled op must be accepted.
  EXPECT_EQ(res.applied_ops, res.scheduled_ops);
  EXPECT_EQ(res.concurrent_mismatches, 0u)
      << "a reader racing writers/swaps saw a wrong answer ("
      << res.concurrent_lookups << " lookups)";
  EXPECT_GT(res.concurrent_lookups, 0u);
  EXPECT_EQ(res.probe_mismatches, 0u)
      << "classifier diverged from the step-synchronized oracle ("
      << res.probes << " probes)";
  EXPECT_GT(res.probes, 0u);
  EXPECT_GE(res.swaps, cfg.min_swaps)
      << "background retrain/swap cycles never ran";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChurnDifferential,
    ::testing::Values(
        ChurnCase{11, 0.02, true},
        ChurnCase{22, 0.01, true},
        // Threshold never fires: swaps come only from the harness's forced
        // background retrains (manual-retrain deployments).
        ChurnCase{33, 1.0, false}));

// Fuzzer mode: seeded draws over the whole knob space — rule-set shape,
// writer/reader mix, retrain policy. Every draw must satisfy the same
// invariants as the fixed sweep above. Defaults to a 2-iteration smoke slice (what the TSAN CI leg runs on
// every PR); an overnight run is
//   NM_CHURN_FUZZ_ITERS=500 [NM_CHURN_FUZZ_SEED=...] ./test_churn \
//       --gtest_filter='ChurnFuzzer.*'
TEST(ChurnFuzzer, EnvSeededRandomizedConfigs) {
  const char* iters_env = std::getenv("NM_CHURN_FUZZ_ITERS");
  const char* seed_env = std::getenv("NM_CHURN_FUZZ_SEED");
  const int iters = iters_env != nullptr ? std::atoi(iters_env) : 2;
  const uint64_t seed =
      seed_env != nullptr ? std::strtoull(seed_env, nullptr, 10) : 0xF022ED5EEDull;
  Rng rng{seed};
  for (int i = 0; i < iters; ++i) {
    const ChurnConfig cfg = randomized_churn_config(rng);
    SCOPED_TRACE(::testing::Message()
                 << "iter " << i << " seed " << seed << ": app "
                 << static_cast<int>(cfg.app) << "/" << cfg.app_variant << " n "
                 << cfg.n_rules << " w " << cfg.n_writers << " r "
                 << cfg.n_scalar_readers << "+" << cfg.n_batch_readers << " thr "
                 << cfg.retrain_threshold << (cfg.auto_retrain ? " auto" : " manual"));
    ChurnHarness harness{cfg};
    ASSERT_GT(harness.core().packets.size(), 0u);
    const ChurnResult res = harness.run();
    EXPECT_EQ(res.applied_ops, res.scheduled_ops);
    EXPECT_EQ(res.concurrent_mismatches, 0u)
        << res.concurrent_lookups << " concurrent lookups";
    EXPECT_EQ(res.probe_mismatches, 0u) << res.probes << " probes";
    EXPECT_EQ(res.cache_mismatches, 0u)
        << res.cache_probes << " cache-fronted probes";
    EXPECT_GE(res.swaps, cfg.min_swaps);
  }
}

// The ISSUE 5 acceptance gate: a FlowCache-fronted reader races insert/erase
// commits across ≥3 retrain swaps with ZERO stale-decision oracle
// mismatches. Two layers again: concurrent cache-fronted readers verify
// against the stable core while writers and per-step forced swaps race them
// (the TSAN half), and the persistent probe cache re-probes every packet
// earlier steps touched against the step-synchronized oracle — an entry
// that survived the commit that should have invalidated it diverges there
// (the functional half). cache_served > 0 proves the cache actually serves
// hits (a cache that never hits would pass vacuously).
TEST(ChurnFlowCache, CacheFrontedReadersCoherentAcrossSwaps) {
  ChurnConfig cfg;
  cfg.seed = 77;
  cfg.n_rules = 800;
  cfg.n_writers = 2;
  cfg.n_scalar_readers = 0;
  cfg.n_batch_readers = 1;
  cfg.n_cache_readers = 2;
  cfg.n_steps = 4;
  cfg.swap_each_step = true;   // 4 swaps land while cached entries persist
  cfg.cache_probes = true;
  cfg.auto_retrain = false;    // deterministic: swaps only where forced
  cfg.retrain_threshold = 1.0;
  cfg.min_swaps = 3;
  ChurnHarness harness{cfg};

  const ChurnResult res = harness.run();

  EXPECT_EQ(res.applied_ops, res.scheduled_ops);
  EXPECT_EQ(res.concurrent_mismatches, 0u)
      << "a cache-fronted or batch reader racing writers/swaps saw a wrong "
         "answer (" << res.concurrent_lookups << " lookups)";
  EXPECT_EQ(res.probe_mismatches, 0u);
  EXPECT_EQ(res.cache_mismatches, 0u)
      << "the flow cache served a STALE decision (" << res.cache_probes
      << " cache-fronted probes, " << res.cache_served << " hits)";
  EXPECT_GT(res.cache_served, 0u)
      << "the probe cache never served a hit - the staleness oracle is vacuous";
  EXPECT_GE(res.swaps, 3u) << "cached decisions must ride through >=3 swaps";
}

// Readers that are REAL pipeline replicas (the ISSUE 7 churn gate): each
// reader pass builds a 3-replica TraceSource → FlowCache → Classifier →
// Sink graph fanned into the churning engine and runs it on 2 threads (one
// of them steps two replicas). Every merged record — produced through the
// RSS split, per-replica caches, and concurrent replica threads — must
// carry the stable core's invariant answer at its global stream index
// while writers and one forced swap per step race the passes.
TEST(ChurnReplicatedPipeline, ReplicaGraphReadersMatchCoreAcrossSwaps) {
  ChurnConfig cfg;
  cfg.seed = 93;
  cfg.n_rules = 700;
  cfg.n_writers = 2;
  cfg.n_scalar_readers = 0;
  cfg.n_batch_readers = 0;
  cfg.n_replica_readers = 1;
  cfg.replica_count = 3;
  cfg.replica_threads = 2;
  cfg.n_steps = 3;
  cfg.swap_each_step = true;
  cfg.auto_retrain = false;
  cfg.retrain_threshold = 1.0;
  cfg.min_swaps = 3;
  ChurnHarness harness{cfg};

  const ChurnResult res = harness.run();

  EXPECT_EQ(res.applied_ops, res.scheduled_ops);
  EXPECT_GT(res.concurrent_lookups, 0u)
      << "no replicated-graph pass completed - the mode is vacuous";
  EXPECT_EQ(res.concurrent_mismatches, 0u)
      << "a replicated-pipeline reader racing writers/swaps saw a wrong "
         "answer (" << res.concurrent_lookups << " merged records checked)";
  EXPECT_EQ(res.probe_mismatches, 0u);
  EXPECT_GE(res.swaps, 3u);
}

// The ISSUE 9 acceptance gate: a failpoint kills a replica task mid-churn
// — between bursts, the lossless fault domain — in every replicated pass,
// while writers and one forced swap per step race the recovery ladder
// (quarantine → quiesce → re-steer → drain → respawn → rejoin). The merged
// differential must STILL carry every core packet's invariant answer with
// zero mismatches: no lost slice, no double-served position, no stale
// decision surviving the drained cache. The tallies prove the drill was
// not vacuous — crashes actually landed and the replicas actually rejoined.
// Runs under the TSAN CI leg.
TEST(ChurnReplicatedPipeline, ReplicaCrashMidChurnRecoversWithZeroMismatches) {
  ChurnConfig cfg;
  cfg.seed = 97;
  cfg.n_rules = 700;
  cfg.n_writers = 2;
  cfg.n_scalar_readers = 0;
  cfg.n_batch_readers = 0;
  cfg.n_replica_readers = 1;
  cfg.replica_count = 3;
  cfg.replica_threads = 2;
  cfg.replica_crash = true;
  cfg.n_steps = 3;
  cfg.swap_each_step = true;
  cfg.auto_retrain = false;
  cfg.retrain_threshold = 1.0;
  cfg.min_swaps = 3;
  ChurnHarness harness{cfg};

  const ChurnResult res = harness.run();

  EXPECT_EQ(res.applied_ops, res.scheduled_ops);
  EXPECT_GT(res.replica_passes, 0u)
      << "no replicated-graph pass completed - the drill is vacuous";
  EXPECT_GE(res.replica_quarantines, 1u)
      << "the injected crash never landed on a replica task";
  EXPECT_GE(res.replica_rejoins, 1u)
      << "no quarantined replica ever respawned and rejoined";
  EXPECT_EQ(res.replica_rejoins, res.replica_quarantines)
      << "a rejoin failed (nothing was armed to fail it)";
  EXPECT_EQ(res.concurrent_mismatches, 0u)
      << "the recovery ladder served a wrong or stale answer, or lost/"
         "duplicated part of the dead replica's slice ("
      << res.concurrent_lookups << " merged records checked, "
      << res.replica_quarantines << " quarantines across "
      << res.replica_passes << " passes)";
  EXPECT_EQ(res.probe_mismatches, 0u);
  EXPECT_GE(res.swaps, 3u);
}

// The ISSUE 6 acceptance gate: the retrain failpoint armed to fail 3
// consecutive attempts mid-churn. The engine must serve with ZERO oracle
// mismatches through three failed forced retrains into degraded mode (3 ==
// max_retrain_failures consecutive failures), health() must report the
// failures, the degraded flag and the preserved error message — and a later
// unarmed forced retrain must recover to a fresh, healthy generation. Runs
// under the TSAN CI leg with writers and readers racing the whole drill.
TEST(ChurnFaultInjection, ThreeFailuresDegradeThenRecover) {
  ChurnConfig cfg;
  cfg.seed = 101;
  cfg.n_rules = 800;
  cfg.n_writers = 2;
  cfg.n_scalar_readers = 1;
  cfg.n_batch_readers = 1;
  cfg.n_steps = 3;                 // drill fires after step 1's writers join
  cfg.fault_retrain_failures = 3;
  cfg.max_retrain_failures = 3;    // the third failure crosses into degraded
  cfg.auto_retrain = false;        // deterministic: only the drill's retrains
  cfg.retrain_threshold = 1.0;
  cfg.min_swaps = 1;
  ChurnHarness harness{cfg};

  const ChurnResult res = harness.run();

  // Serving stayed correct through every failed retrain.
  EXPECT_EQ(res.applied_ops, res.scheduled_ops);
  EXPECT_EQ(res.concurrent_mismatches, 0u)
      << "a reader racing the failing retrains saw a wrong answer ("
      << res.concurrent_lookups << " lookups)";
  EXPECT_EQ(res.probe_mismatches, 0u)
      << "the engine diverged from the oracle while degraded (" << res.probes
      << " probes)";

  // health() told the whole story while it happened...
  EXPECT_EQ(res.fault_failures_seen, 3u)
      << "health() never reported the 3 consecutive retrain failures";
  EXPECT_TRUE(res.degraded_seen)
      << "3 consecutive failures must cross into degraded mode";
  EXPECT_TRUE(res.fault_error_seen)
      << "the injected error message was swallowed";

  // ...and the disarmed forced retrain recovered to a fresh generation.
  EXPECT_GE(res.swaps, 1u) << "recovery never published a fresh generation";
  EXPECT_TRUE(res.final_health.ok())
      << "post-recovery health still unhealthy: degraded="
      << res.final_health.degraded
      << " failures=" << res.final_health.retrain_failures
      << " last_error=" << res.final_health.last_error;
  EXPECT_FALSE(res.final_health.degraded);
  EXPECT_EQ(res.final_health.retrain_failures, 0u);
  EXPECT_TRUE(res.final_health.last_error.empty());
  EXPECT_EQ(res.final_health.retrain_failures_total, 3u);
}

// Below the degraded threshold the drill's forced retries recover: two
// injected failures, then the third attempt trains for real and swaps — no
// degraded flag, failure state wiped.
TEST(ChurnFaultInjection, ForcedRetriesRecoverBelowDegradedThreshold) {
  ChurnConfig cfg;
  cfg.seed = 202;
  cfg.n_rules = 600;
  cfg.n_writers = 1;
  cfg.n_scalar_readers = 1;
  cfg.n_batch_readers = 0;
  cfg.n_steps = 3;
  cfg.fault_retrain_failures = 2;
  cfg.max_retrain_failures = 5;    // the drill succeeds before the threshold
  cfg.auto_retrain = false;
  cfg.retrain_threshold = 1.0;
  cfg.min_swaps = 1;
  ChurnHarness harness{cfg};

  const ChurnResult res = harness.run();

  EXPECT_EQ(res.concurrent_mismatches, 0u);
  EXPECT_EQ(res.probe_mismatches, 0u);
  EXPECT_EQ(res.fault_failures_seen, 2u);
  EXPECT_FALSE(res.degraded_seen)
      << "2 failures with max=5 must never report degraded";
  EXPECT_GE(res.swaps, 1u);
  EXPECT_TRUE(res.final_health.ok());
  EXPECT_EQ(res.final_health.retrain_failures_total, 2u);
}

// Two writers inserting the SAME rule-id serialize on the writer lock;
// exactly one insert() may win, and the journal must carry the winner once —
// never the loser, never a duplicate. Regression for the duplicate-insert
// race window called out in ISSUE 3: a double-journaled insert would
// survive the next swap's replay.
TEST(ChurnRaces, ConcurrentDuplicateInsertAcceptedExactlyOnce) {
  const RuleSet base = generate_classbench(AppClass::kAcl, 1, 800, 44);
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.retrain_threshold = 1.0;
  cfg.auto_retrain = false;
  OnlineNuevoMatch online{cfg};
  online.build(base);

  constexpr int kRounds = 32;
  constexpr uint32_t kIdBase = 900'000;
  Rng rng{45};
  for (int round = 0; round < kRounds; ++round) {
    Rule r = base[rng.below(base.size())];
    r.id = kIdBase + static_cast<uint32_t>(round);
    r.priority = 2'000'000 + round;
    // Keep a retrain snapshot window open for half the rounds so the race
    // also runs against an open journal.
    if (round % 8 == 0) online.retrain_now();
    std::atomic<int> wins{0};
    std::vector<std::thread> racers;
    for (int t = 0; t < 2; ++t) {
      racers.emplace_back([&] {
        if (online.insert(r)) wins.fetch_add(1);
      });
    }
    for (auto& th : racers) th.join();
    ASSERT_EQ(wins.load(), 1) << "round " << round;
  }
  online.retrain_now();
  online.quiesce();

  // After the swap(s), each id must exist exactly once — a double-journaled
  // insert or a replay duplicate would break one of these.
  EXPECT_EQ(online.size(), base.size() + kRounds);
  for (int round = 0; round < kRounds; ++round) {
    const uint32_t id = kIdBase + static_cast<uint32_t>(round);
    EXPECT_TRUE(online.erase(id)) << "id " << id << " lost";
    EXPECT_FALSE(online.erase(id)) << "id " << id << " existed twice";
  }
}

// The applied-op counter is the serialized churn telemetry; under racing
// writers it must agree with the number of accepted updates.
TEST(ChurnRaces, UpdateOpsCountsAppliedOps) {
  const RuleSet base = generate_classbench(AppClass::kFw, 1, 600, 46);
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.retrain_threshold = 1.0;
  OnlineNuevoMatch online{cfg};
  online.build(base);

  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      Rng rng{static_cast<uint64_t>(100 + w)};
      for (int i = 0; i < 50; ++i) {
        Rule r = base[rng.below(base.size())];
        r.id = 500'000 + static_cast<uint32_t>(w) * 1000 + static_cast<uint32_t>(i);
        r.priority = 2'000'000;
        if (online.insert(r)) accepted.fetch_add(1);
        if (i % 5 == 4 && online.erase(r.id)) accepted.fetch_add(1);
      }
    });
  }
  for (auto& th : writers) th.join();

  EXPECT_EQ(online.update_ops(), accepted.load());

  // The counters are "updates since build/load": a rebuild starts them over.
  online.build(base);
  EXPECT_EQ(online.update_ops(), 0u);
}

}  // namespace
}  // namespace nuevomatch
