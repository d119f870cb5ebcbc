// Fault-tolerant online serving (DESIGN.md "Failure model"): injected
// retrain/build/replay failures must never corrupt classification — the
// engine keeps serving the old generation + churn delta oracle-exactly,
// records the error it used to swallow, leaves the retry to the next commit
// over the threshold or to retrain_now(), degrades gracefully at the
// consecutive-failure limit, and recovers through retrain_now(). There is no
// separate overload cap: the retrain_threshold trigger bounds the churn delta
// by swapping it away.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "classbench/generator.hpp"
#include "classifiers/linear.hpp"
#include "common/failpoint.hpp"
#include "nuevomatch/online.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using failpoint::Trigger;

OnlineConfig make_cfg() {
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.auto_retrain = false;
  return cfg;
}

/// Fresh rules with ids disjoint from any classbench base set. Priorities
/// derive from the id so every extra across every batch in one test is
/// unique — equal priorities would make the engine/oracle winner ambiguous.
RuleSet make_extras(size_t n, uint32_t id0, uint64_t seed) {
  RuleSet extras = generate_classbench(AppClass::kFw, 2, n, seed);
  for (size_t i = 0; i < extras.size(); ++i) {
    extras[i].id = id0 + static_cast<uint32_t>(i);
    extras[i].priority = -static_cast<int32_t>(id0 % 100'000 + i) - 1;
  }
  return extras;
}

void expect_oracle_exact(const Classifier& engine, const RuleSet& logical,
                         uint64_t seed) {
  LinearSearch oracle;
  oracle.build(logical);
  TraceConfig tc;
  tc.n_packets = 2000;
  tc.seed = seed;
  for (const Packet& p : generate_trace(logical, tc))
    ASSERT_EQ(engine.match(p).rule_id, oracle.match(p).rule_id) << to_string(p);
}

// The exception a failed retrain_cycle() throws is recorded — and with
// max_retrain_failures=1 the first failure degrades immediately, so the
// post-quiesce state is fully deterministic.
TEST(FaultRetrain, FailureRecordsErrorAndDegradesAtLimit) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 800, 301);
  OnlineConfig cfg = make_cfg();
  cfg.max_retrain_failures = 1;
  OnlineNuevoMatch online{cfg};
  online.build(rules);
  ASSERT_EQ(online.generations(), 1u);

  failpoint::arm(failpoint::kOnlineRetrain, Trigger::always());
  online.retrain_now();
  online.quiesce();

  EngineHealth h = online.health();
  EXPECT_FALSE(h.ok());
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.retrain_failures, 1u);
  EXPECT_EQ(h.retrain_failures_total, 1u);
  EXPECT_NE(h.last_error.find("online.retrain"), std::string::npos)
      << "the injected exception's what() must surface: " << h.last_error;
  EXPECT_EQ(online.generations(), 1u) << "no broken generation may publish";
  expect_oracle_exact(online, rules, 302);  // degraded serving stays exact

  // Operator recovery: disarm the fault, force a retrain.
  failpoint::disarm(failpoint::kOnlineRetrain);
  online.retrain_now();
  online.quiesce();
  h = online.health();
  EXPECT_TRUE(h.ok());
  EXPECT_FALSE(h.degraded);
  EXPECT_EQ(h.retrain_failures, 0u);
  EXPECT_EQ(h.retrain_failures_total, 1u) << "lifetime counter never resets";
  EXPECT_TRUE(h.last_error.empty());
  EXPECT_EQ(online.generations(), 2u);
  expect_oracle_exact(online, rules, 303);
}

// Below the degraded limit each retrain_now() is one attempt: fail twice
// (each failure waits for the next request), succeed on the third.
TEST(FaultRetrain, ForcedRetriesRecoverBelowTheLimit) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 700, 311);
  OnlineConfig cfg = make_cfg();
  cfg.max_retrain_failures = 5;
  OnlineNuevoMatch online{cfg};
  online.build(rules);

  failpoint::Scoped arm{failpoint::kOnlineRetrain, Trigger::first(2)};
  EngineHealth h;
  for (uint64_t attempt = 1; attempt <= 2; ++attempt) {
    online.retrain_now();
    online.quiesce();
    h = online.health();
    EXPECT_FALSE(h.ok());
    EXPECT_FALSE(h.degraded);
    EXPECT_FALSE(h.retrain_pending) << "a failed cycle schedules no retry";
    EXPECT_EQ(h.retrain_failures, attempt);
    EXPECT_EQ(online.generations(), 1u);
  }
  online.retrain_now();
  online.quiesce();

  EXPECT_EQ(failpoint::fires(failpoint::kOnlineRetrain), 2u);
  h = online.health();
  EXPECT_TRUE(h.ok());
  EXPECT_FALSE(h.degraded);
  EXPECT_EQ(h.retrain_failures, 0u);
  EXPECT_EQ(h.retrain_failures_total, 2u);
  EXPECT_TRUE(h.last_error.empty());
  EXPECT_EQ(online.generations(), 2u);
  expect_oracle_exact(online, rules, 312);
}

// Below the degraded limit, the commit that finds the threshold still
// crossed is what retries a failed auto-retrain: nothing retries it on a
// timer in between, and the next over-threshold insert swaps.
TEST(FaultRetrain, FailedRetrainWaitsForTheNextCommitOverThreshold) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 800, 351);
  OnlineConfig cfg = make_cfg();
  cfg.auto_retrain = true;
  cfg.retrain_threshold = 0.001;  // any insert crosses it
  OnlineNuevoMatch online{cfg};
  online.build(rules);

  failpoint::Scoped arm{failpoint::kOnlineRetrain, Trigger::first(1)};
  const RuleSet extras = make_extras(1, 120'000, 352);
  ASSERT_EQ(online.insert_batch(extras), 1u);  // one commit, one failed cycle
  online.quiesce();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  EXPECT_EQ(failpoint::evaluations(failpoint::kOnlineRetrain), 1u);
  EXPECT_EQ(failpoint::fires(failpoint::kOnlineRetrain), 1u);
  EXPECT_EQ(online.generations(), 1u) << "nothing may retry without a commit";
  EngineHealth h = online.health();
  EXPECT_FALSE(h.ok());
  EXPECT_FALSE(h.degraded);
  EXPECT_FALSE(h.retrain_pending);
  EXPECT_EQ(h.retrain_failures, 1u);
  RuleSet logical = rules;
  logical.insert(logical.end(), extras.begin(), extras.end());
  expect_oracle_exact(online, logical, 353);

  const RuleSet extras2 = make_extras(1, 130'000, 354);
  ASSERT_EQ(online.insert_batch(extras2), 1u);  // still over: retries, swaps
  online.quiesce();

  EXPECT_EQ(failpoint::fires(failpoint::kOnlineRetrain), 1u);
  EXPECT_EQ(online.generations(), 2u);
  h = online.health();
  EXPECT_TRUE(h.ok());
  EXPECT_EQ(h.retrain_failures_total, 1u);
  EXPECT_DOUBLE_EQ(h.absorption, 0.0) << "swap absorbed the churn delta";
  logical.insert(logical.end(), extras2.begin(), extras2.end());
  expect_oracle_exact(online, logical, 355);
}

// Degraded mode suppresses auto-retrain (no failure loop under churn) but
// keeps absorbing updates exactly; retrain_now() is the way out.
TEST(FaultRetrain, DegradedSuppressesAutoRetrainUntilForced) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 800, 321);
  OnlineConfig cfg = make_cfg();
  cfg.auto_retrain = true;
  cfg.retrain_threshold = 0.001;  // any insert crosses it
  cfg.max_retrain_failures = 1;
  OnlineNuevoMatch online{cfg};
  online.build(rules);

  failpoint::arm(failpoint::kOnlineRetrain, Trigger::always());
  const RuleSet extras = make_extras(40, 100'000, 322);
  ASSERT_EQ(online.insert_batch(extras), extras.size());  // triggers retrain
  online.quiesce();
  ASSERT_TRUE(online.health().degraded);
  const uint64_t fired_at_degrade = failpoint::fires(failpoint::kOnlineRetrain);

  // Further auto-triggering inserts are absorbed but spawn no new attempts.
  const RuleSet extras2 = make_extras(40, 110'000, 323);
  ASSERT_EQ(online.insert_batch(extras2), extras2.size());
  online.quiesce();
  EXPECT_EQ(failpoint::fires(failpoint::kOnlineRetrain), fired_at_degrade)
      << "degraded mode must not auto-retry into the same fault";
  EXPECT_EQ(online.generations(), 1u);
  EXPECT_EQ(online.size(), rules.size() + extras.size() + extras2.size());

  RuleSet logical = rules;
  logical.insert(logical.end(), extras.begin(), extras.end());
  logical.insert(logical.end(), extras2.begin(), extras2.end());
  expect_oracle_exact(online, logical, 324);  // exact while degraded

  failpoint::disarm(failpoint::kOnlineRetrain);
  online.retrain_now();
  online.quiesce();
  const EngineHealth h = online.health();
  EXPECT_TRUE(h.ok());
  EXPECT_EQ(online.generations(), 2u);
  EXPECT_DOUBLE_EQ(h.absorption, 0.0) << "swap absorbed the churn delta";
  expect_oracle_exact(online, logical, 325);
}

// An initial build() failure falls back to remainder-only classification:
// every rule lands in the remainder engine, answers stay oracle-exact, and
// health() reports the degradation instead of the constructor throwing away
// the serving path.
TEST(FaultBuild, InitialBuildFallsBackToRemainderOnly) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 900, 331);
  OnlineNuevoMatch online{make_cfg()};

  failpoint::arm(failpoint::kOnlineBuild, Trigger::always());
  online.build(rules);  // must not throw
  failpoint::disarm(failpoint::kOnlineBuild);

  EngineHealth h = online.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.retrain_failures, 1u);
  EXPECT_NE(h.last_error.find("initial build"), std::string::npos)
      << h.last_error;
  EXPECT_EQ(online.generations(), 1u);
  EXPECT_EQ(online.size(), rules.size());
  expect_oracle_exact(online, rules, 332);  // remainder-only, still exact

  // Recovery trains the real RQ-RMI index over the same logical rule-set.
  online.retrain_now();
  online.quiesce();
  h = online.health();
  EXPECT_TRUE(h.ok());
  EXPECT_FALSE(h.degraded);
  EXPECT_TRUE(h.last_error.empty());
  EXPECT_EQ(online.generations(), 2u);
  expect_oracle_exact(online, rules, 333);
}

// A replay failure mid-swap abandons the cycle without losing any journaled
// update: the retrain_now() that follows trains the same logical state, and
// the final rule count and answers account for every accepted insert.
TEST(FaultReplay, ReplayFailureLosesNoUpdates) {
  // A rule-set large enough that training holds the journal open for many
  // milliseconds — the window the drill below must land an insert in.
  const RuleSet rules = generate_classbench(AppClass::kAcl, 3, 4000, 341);
  OnlineNuevoMatch online{make_cfg()};
  online.build(rules);

  RuleSet inserted;
  uint32_t next_id = 200'000;
  uint64_t replay_fired = 0;
  // The journal only fills while a retrain is in flight, so inject ops into
  // that window: the instant retrain_now() is requested, feed inserts until
  // one lands in the journal (journal_depth > 0 guarantees the replay loop —
  // and its failpoint — runs) or the cycle ends. No wait-for-start spin:
  // retrain_now() marks the retrain pending synchronously, and if the
  // scheduler lets the whole cycle finish before an insert lands, the
  // attempt just retries. The deadline bounds a pathological scheduler.
  for (int attempt = 0; attempt < 20 && replay_fired == 0; ++attempt) {
    failpoint::arm(failpoint::kOnlineReplay, Trigger::first(1));
    online.retrain_now();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      const EngineHealth h = online.health();
      if (!h.retrain_pending || h.journal_depth > 0 ||
          std::chrono::steady_clock::now() >= deadline)
        break;
      RuleSet one = make_extras(1, next_id++, 342);
      if (online.insert_batch(one) == 1) inserted.push_back(one[0]);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    online.quiesce();
    replay_fired = failpoint::fires(failpoint::kOnlineReplay);
    failpoint::disarm(failpoint::kOnlineReplay);
  }
  ASSERT_GT(replay_fired, 0u) << "drill never caught the replay window";
  // The failed cycle schedules no retry of its own.
  online.retrain_now();
  online.quiesce();

  const EngineHealth h = online.health();
  EXPECT_GE(h.retrain_failures_total, 1u) << "the abandoned cycle must count";
  EXPECT_TRUE(h.ok()) << "the retrain after the failure must recover";
  EXPECT_EQ(online.size(), rules.size() + inserted.size())
      << "no journaled insert may be lost across abandon + retry";
  RuleSet logical = rules;
  logical.insert(logical.end(), inserted.begin(), inserted.end());
  expect_oracle_exact(online, logical, 343);
}

// health() on an untroubled engine: the all-clear snapshot.
TEST(FaultHealth, SnapshotReflectsSteadyState) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 500, 371);
  OnlineNuevoMatch online{make_cfg()};
  online.build(rules);

  EngineHealth h = online.health();
  EXPECT_TRUE(h.ok());
  EXPECT_FALSE(h.degraded);
  EXPECT_EQ(h.generation, 1u);
  EXPECT_EQ(h.retrain_failures, 0u);
  EXPECT_EQ(h.retrain_failures_total, 0u);
  EXPECT_TRUE(h.last_error.empty());
  EXPECT_FALSE(h.retrain_pending);
  EXPECT_EQ(h.journal_depth, 0u);
  EXPECT_EQ(h.churn_rules, 0u);
  EXPECT_DOUBLE_EQ(h.absorption, 0.0);

  const RuleSet extras = make_extras(12, 500'000, 372);
  ASSERT_EQ(online.insert_batch(extras), extras.size());
  h = online.health();
  EXPECT_EQ(h.churn_rules, extras.size());
  EXPECT_GT(h.absorption, 0.0);
  EXPECT_TRUE(h.ok()) << "churn alone is not a fault";
}

}  // namespace
}  // namespace nuevomatch
