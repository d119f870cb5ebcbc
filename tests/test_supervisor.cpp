// Replica fault domains and the recovery ladder: the run's
// SupervisorPolicy (escalate / quarantine), the suppressed-error counter,
// and the ReplicatedGraph quarantine → re-steer → drain → rejoin path —
// all driven deterministically through the pipeline failpoints. The ladder
// runs inline on the crashed replica's own thread, and a rejoined replica
// is simply stepped again by that thread; there is no in-place retry
// policy, and background retraining belongs to the shared engine's own
// auto-retrain worker, so a replica crash never moves training duties
// anywhere. Runs under the TSAN and ASan/UBSan CI legs: a crash-during-
// burst must be leak-clean (the in-flight burst is dropped, not leaked).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <vector>

#include "classbench/generator.hpp"
#include "classifiers/linear.hpp"
#include "common/failpoint.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/replicate.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using pipeline::Graph;
using pipeline::PipelineHealth;
using pipeline::ReplicaHealth;
using pipeline::ReplicatedGraph;
using pipeline::ReplicatedRunOptions;
using pipeline::RuntimeHealth;
using pipeline::SupervisorPolicy;
using pipeline::TaskHealth;
using pipeline::TaskPhase;

std::shared_ptr<OnlineNuevoMatch> make_online(const RuleSet& rules,
                                              double retrain_threshold = 1.0,
                                              bool auto_retrain = false) {
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.auto_retrain = auto_retrain;
  cfg.retrain_threshold = retrain_threshold;
  auto online = std::make_shared<OnlineNuevoMatch>(std::move(cfg));
  online->build(rules);
  return online;
}

TaskHealth task_health(const RuntimeHealth& h, const std::string& label) {
  for (const TaskHealth& t : h.tasks) {
    if (t.label == label) return t;
  }
  ADD_FAILURE() << "no task labeled " << label;
  return TaskHealth{};
}

// A source that never runs dry: a replica built on it ends only when the
// run stops it. Honors the replica filter like every source.
class EndlessSource final : public pipeline::SourceElement {
 public:
  [[nodiscard]] std::string_view kind() const override { return "EndlessSource"; }
  [[nodiscard]] bool pump(pipeline::Burst& b) override {
    for (size_t k = 0; k < pipeline::kBurstSize; ++k, ++pos_) {
      Packet p{};
      p.field[0] = static_cast<uint32_t>(pos_);
      emit(b, p, 0, pos_);
    }
    publish_pos(pos_);
    return true;
  }

 private:
  uint64_t pos_ = 0;
};

// Pass-through that holds each replica's FIRST burst until both replicas
// hold theirs, then lets the first replica arm `pipeline.push` first:2 and
// waits until it is armed — so both replicas are inside a step, past every
// stop check, when their next push evaluates the armed point.
class MeetThenArm final : public pipeline::Element {
 public:
  MeetThenArm(std::latch& meet, std::latch& armed, bool arms)
      : meet_(meet), armed_(armed), arms_(arms) {}
  [[nodiscard]] std::string_view kind() const override { return "MeetThenArm"; }
  void process(pipeline::Burst& b) override {
    if (first_) {
      first_ = false;
      meet_.arrive_and_wait();
      if (arms_)
        failpoint::arm(failpoint::kPipelinePush, failpoint::Trigger::first(2));
      armed_.arrive_and_wait();
    }
    forward(b);
  }

 private:
  std::latch& meet_;
  std::latch& armed_;
  bool arms_;
  bool first_ = true;
};

ReplicatedGraph endless_graph(uint32_t replicas) {
  return ReplicatedGraph(replicas, [](uint32_t, uint32_t) {
    Graph g;
    auto& src = g.add(std::make_unique<EndlessSource>(), "src");
    auto& cnt = g.add(std::make_unique<pipeline::Counter>(), "cnt");
    g.connect(src, 0, cnt);
    return g;
  });
}

// --- quarantine -------------------------------------------------------------

// A quarantined replica is detached, not fatal: its siblings keep stepping
// to completion and run() returns normally — the stop-the-world behavior
// is gone under kQuarantine (and ONLY under kQuarantine).
TEST(SupervisorQuarantine, IsolatesFailureFromSiblings) {
  std::vector<Packet> trace(40 * pipeline::kBurstSize);
  for (size_t i = 0; i < trace.size(); ++i)
    trace[i].field[0] = static_cast<uint32_t>(i);
  ReplicatedGraph rg(3, [&](uint32_t, uint32_t) {
    Graph g;
    auto& src = g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
    auto& cnt = g.add(std::make_unique<pipeline::Counter>(), "cnt");
    g.connect(src, 0, cnt);
    return g;
  });
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(1));
  ReplicatedRunOptions opts;
  opts.threads = 1;  // deterministic: step 1 is replica 0's first step
  opts.policy = SupervisorPolicy::kQuarantine;
  opts.rejoin = false;
  rg.run(opts);

  const RuntimeHealth h = rg.health().runtime;
  const TaskHealth bad = task_health(h, "replica@0");
  EXPECT_EQ(bad.phase, TaskPhase::kQuarantined);
  EXPECT_EQ(bad.quarantines, 1u);
  EXPECT_EQ(bad.last_error, "injected: pipeline.task.fire");
  for (const char* sibling : {"replica@1", "replica@2"}) {
    const TaskHealth t = task_health(h, sibling);
    EXPECT_EQ(t.phase, TaskPhase::kDone) << sibling;
    EXPECT_GT(t.worked, 0u) << sibling;
    EXPECT_TRUE(t.last_error.empty()) << sibling;
  }
  EXPECT_EQ(h.quarantines, 1u);
  EXPECT_EQ(h.suppressed_errors, 0u);  // quarantine suppresses NOTHING
}

// --- escalation -------------------------------------------------------------

// The default policy is stop-and-rethrow: the first error comes out of
// run(), and the healthy sibling — on its own thread, over a source that
// never ends, so only the stop can end it — is stopped undone. Nothing is
// suppressed, and the ASan leg checks nothing leaks on the way out.
TEST(SupervisorEscalate, DefaultPolicyPreservesStopAndRethrow) {
  ReplicatedGraph rg = endless_graph(2);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(5));
  ReplicatedRunOptions opts;
  opts.threads = 2;
  try {
    rg.run(opts);
    FAIL() << "escalation must rethrow out of run()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected: pipeline.task.fire");
  }
  const RuntimeHealth h = rg.health().runtime;
  ASSERT_EQ(h.tasks.size(), 2u);
  const bool first_crashed = !h.tasks[0].last_error.empty();
  const TaskHealth& bomb = h.tasks[first_crashed ? 0 : 1];
  const TaskHealth& sibling = h.tasks[first_crashed ? 1 : 0];
  EXPECT_EQ(bomb.last_error, "injected: pipeline.task.fire");
  EXPECT_EQ(bomb.phase, TaskPhase::kDone);  // escalation finishes the replica
  EXPECT_TRUE(sibling.last_error.empty());
  EXPECT_EQ(sibling.phase, TaskPhase::kRunnable);  // stopped, not done
  EXPECT_EQ(h.quarantines, 0u);
  EXPECT_EQ(h.suppressed_errors, 0u);
}

// Errors beyond the first must not vanish. Two replicas on two threads
// meet inside their first step and only then arm pipeline.push first:2, so
// both throw while neither can see the other's stop: the first error is
// rethrown and the second is counted, each keeping its own last_error.
TEST(SupervisorEscalate, LaterErrorsAreCountedNotSwallowed) {
  std::latch meet(2);
  std::latch armed(2);
  ReplicatedGraph rg(2, [&](uint32_t i, uint32_t) {
    Graph g;
    auto& src = g.add(std::make_unique<EndlessSource>(), "src");
    auto& m =
        g.add(std::make_unique<MeetThenArm>(meet, armed, i == 0), "meet");
    auto& cnt = g.add(std::make_unique<pipeline::Counter>(), "cnt");
    g.connect(src, 0, m);
    g.connect(m, 0, cnt);
    return g;
  });
  ReplicatedRunOptions opts;
  opts.threads = 2;
  EXPECT_THROW(rg.run(opts), std::runtime_error);
  failpoint::disarm(failpoint::kPipelinePush);

  const RuntimeHealth h = rg.health().runtime;
  EXPECT_EQ(h.suppressed_errors, 1u)
      << "the second failure was dropped without being counted";
  EXPECT_EQ(task_health(h, "replica@0").last_error, "injected: pipeline.push");
  EXPECT_EQ(task_health(h, "replica@1").last_error, "injected: pipeline.push");
}

// --- the replicated recovery ladder -----------------------------------------

namespace {
struct ReplicatedFixture {
  RuleSet rules;
  std::shared_ptr<OnlineNuevoMatch> online;
  std::vector<Packet> trace;
  LinearSearch oracle;

  explicit ReplicatedFixture(uint64_t seed, size_t n_packets,
                             double retrain_threshold = 1.0,
                             bool auto_retrain = false) {
    rules = generate_classbench(AppClass::kAcl, 1, 300, seed);
    online = make_online(rules, retrain_threshold, auto_retrain);
    TraceConfig tc;
    tc.kind = TraceConfig::Kind::kZipf;
    tc.n_packets = n_packets;
    trace = generate_trace(rules, tc);
    oracle.build(rules);
  }

  [[nodiscard]] ReplicatedGraph make_graph(uint32_t replicas,
                                           size_t cache = 1024) const {
    return ReplicatedGraph(replicas, [&](uint32_t, uint32_t) {
      Graph g;
      auto& src = g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
      auto& fc =
          g.add(std::make_unique<pipeline::FlowCacheElement>(cache), "cache");
      auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
      cls_owned->attach(online);
      cls_owned->set_actions(rules);
      auto& cls = g.add(std::move(cls_owned), "cls");
      auto& sink = g.add(std::make_unique<pipeline::Sink>(true), "sink");
      g.connect(src, 0, fc);
      g.connect(fc, 0, cls);
      g.connect(cls, 0, sink);
      return g;
    });
  }

  // Every record must carry the oracle's answer; indices must cover each
  // position at most once (exactly-once when `complete`).
  void check_records(const std::vector<pipeline::Sink::Record>& got,
                     bool complete) const {
    std::vector<uint8_t> seen(trace.size(), 0);
    for (const auto& r : got) {
      ASSERT_LT(r.index, trace.size());
      EXPECT_EQ(++seen[r.index], 1) << "position served twice";
      EXPECT_EQ(r.rule_id, oracle.match(trace[r.index]).rule_id)
          << "stale/wrong decision at position " << r.index;
    }
    if (complete) EXPECT_EQ(got.size(), trace.size());
  }
};
}  // namespace

// THE acceptance drill: a failpoint kills replica 0 on its very first
// step (the between-bursts seam — the lossless fault domain). The
// quarantine ladder re-steers its slice, drains its cache and rejoins it;
// its thread steps it again to the end of stream — and the merged
// differential still matches the oracle EXACTLY: every position served
// exactly once, zero stale decisions.
TEST(ReplicatedRecovery, ReplicaCrashAtFireSeamLosesNothing) {
  const ReplicatedFixture fx(51, 4'000);
  ReplicatedGraph rg = fx.make_graph(2);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(1));
  ReplicatedRunOptions opts;
  opts.threads = 1;  // deterministic: step 1 is replica 0's first step
  opts.policy = SupervisorPolicy::kQuarantine;
  const uint64_t total = rg.run(opts);

  EXPECT_EQ(total, fx.trace.size());
  fx.check_records(rg.merged_records(), /*complete=*/true);

  const PipelineHealth h = rg.health();
  ASSERT_EQ(h.replicas.size(), 2u);
  EXPECT_EQ(h.replicas[0].state, ReplicaHealth::State::kRejoined);
  EXPECT_EQ(h.replicas[0].quarantines, 1u);
  EXPECT_EQ(h.replicas[0].rejoins, 1u);
  EXPECT_EQ(h.replicas[1].state, ReplicaHealth::State::kLive);
  EXPECT_EQ(h.runtime.quarantines, 1u);
  // The rejoined replica ran on to the end of stream.
  const TaskHealth t0 = task_health(h.runtime, "replica@0");
  EXPECT_EQ(t0.phase, TaskPhase::kDone);
  EXPECT_EQ(t0.quarantines, 1u);
  EXPECT_GT(t0.worked, 0u);
  EXPECT_EQ(h.rejoin_failures, 0u);
  EXPECT_EQ(h.steer_epochs, 3u);  // [0,C) full | [C,C+W) survivor | [C+W,∞) full
  EXPECT_GT(h.recovery_ns, 0u);
  EXPECT_FALSE(h.to_string().empty());
}

// Two crashes landing near-simultaneously on DIFFERENT replica threads:
// each crashed replica's thread runs the full recovery ladder, and the
// ladders must serialize (recovery_mu_) — concurrent steering appends or a
// premature un-pause would corrupt the re-steer. Under the TSAN leg this
// is the regression test for that race. first:2 fires on the first two
// steps, whichever threads get there first.
TEST(ReplicatedRecovery, ConcurrentReplicaCrashesSerializeAndLoseNothing) {
  const ReplicatedFixture fx(54, 4'000);
  ReplicatedGraph rg = fx.make_graph(3);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::first(2));
  ReplicatedRunOptions opts;
  opts.threads = 3;  // the two crashes race on separate replica threads
  opts.policy = SupervisorPolicy::kQuarantine;
  const uint64_t total = rg.run(opts);

  EXPECT_EQ(total, fx.trace.size());
  fx.check_records(rg.merged_records(), /*complete=*/true);

  const PipelineHealth h = rg.health();
  EXPECT_EQ(h.runtime.quarantines, 2u);
  uint32_t quarantines = 0, rejoins = 0;
  for (const ReplicaHealth& r : h.replicas) {
    quarantines += r.quarantines;
    rejoins += r.rejoins;
    EXPECT_NE(r.state, ReplicaHealth::State::kQuarantined)
        << "a crashed replica never rejoined";
  }
  EXPECT_EQ(quarantines, 2u);
  EXPECT_EQ(rejoins, 2u);
  EXPECT_EQ(h.rejoin_failures, 0u);
}

// Two nth:N crashes in one supervised run, on two replica threads. The
// pipeline.task.fire point is evaluated only by steps that pass the pause
// gate, and a thread whose replicas were all turned back parks until the
// ladder clears the gate. So however long a ladder runs, it turns back at
// most one step of the replica on the other thread, and the second
// trigger, armed once the first has fired, lands on its 5th real step.
TEST(ReplicatedRecovery, NthCrashesLandOnStepsPastThePauseGate) {
  const ReplicatedFixture fx(57, 8'000);
  ReplicatedGraph rg = fx.make_graph(2);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(3));
  std::atomic<bool> rearmed{false};
  ReplicatedRunOptions opts;
  opts.threads = 2;
  opts.policy = SupervisorPolicy::kQuarantine;
  opts.tick = [&](uint64_t) {
    if (!rearmed.load() && failpoint::fires(failpoint::kPipelineTaskFire) == 1 &&
        !rearmed.exchange(true))
      failpoint::arm(failpoint::kPipelineTaskFire, failpoint::Trigger::nth(5));
  };
  const uint64_t total = rg.run(opts);

  EXPECT_EQ(total, fx.trace.size());
  fx.check_records(rg.merged_records(), /*complete=*/true);
  ASSERT_TRUE(rearmed.load());
  EXPECT_EQ(failpoint::fires(failpoint::kPipelineTaskFire), 1u)
      << "the second trigger never fired";
  const PipelineHealth h = rg.health();
  EXPECT_EQ(h.runtime.quarantines, 2u);
  for (const ReplicaHealth& r : h.replicas)
    EXPECT_NE(r.state, ReplicaHealth::State::kQuarantined);
  // One turned-back step per ladder at most: the other thread parks.
  EXPECT_LE(rg.last_stats().idle_fires, 2u);
  EXPECT_EQ(rg.last_stats().fires,
            rg.last_stats().worked + rg.last_stats().idle_fires + 2 /*crashes*/ +
                2 /*end-of-stream steps*/);
}

// Crash mid-burst instead (pipeline.push, inside element forwarding): the
// in-flight burst is lost — and ONLY that burst. The run still completes,
// the survivors' records all match the oracle, and nothing is served twice.
// Under the ASan leg this doubles as the crash-during-burst leak check.
TEST(ReplicatedRecovery, MidBurstCrashLosesAtMostOneBurst) {
  const ReplicatedFixture fx(52, 4'000);
  ReplicatedGraph rg = fx.make_graph(2);
  const failpoint::Scoped crash(failpoint::kPipelinePush,
                                failpoint::Trigger::first(1));
  ReplicatedRunOptions opts;
  opts.threads = 1;
  opts.policy = SupervisorPolicy::kQuarantine;
  const uint64_t total = rg.run(opts);

  const std::vector<pipeline::Sink::Record> got = rg.merged_records();
  EXPECT_LT(got.size(), fx.trace.size()) << "the crash never fired";
  EXPECT_GE(got.size(), fx.trace.size() - pipeline::kBurstSize)
      << "a mid-burst crash may lose at most ONE burst";
  EXPECT_EQ(total, got.size());
  fx.check_records(got, /*complete=*/false);

  const PipelineHealth h = rg.health();
  EXPECT_EQ(h.runtime.quarantines, 1u);
  EXPECT_EQ(h.replicas[0].quarantines + h.replicas[1].quarantines, 1u);
}

// rejoin=false is the deliberate lossy degraded mode: the dead replica
// stays down, survivors serve its slice from the cutover on, and only the
// not-yet-resteered remainder of the dead slice is missing. The records
// that ARE served still all match the oracle.
TEST(ReplicatedRecovery, NoRejoinDegradesButServesCorrectly) {
  const ReplicatedFixture fx(53, 4'000);
  ReplicatedGraph rg = fx.make_graph(3);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(1));
  ReplicatedRunOptions opts;
  opts.threads = 1;
  opts.policy = SupervisorPolicy::kQuarantine;
  opts.rejoin = false;
  const uint64_t total = rg.run(opts);
  (void)total;

  const std::vector<pipeline::Sink::Record> got = rg.merged_records();
  fx.check_records(got, /*complete=*/false);
  // Crash on step 1: the cutover is position 0, so the WHOLE dead slice is
  // re-steered to the survivors and nothing at all is missing — degraded
  // mode loses only what sat between the dead replica's position and the
  // cutover (here: nothing).
  EXPECT_EQ(got.size(), fx.trace.size());

  const PipelineHealth h = rg.health();
  EXPECT_EQ(h.replicas[0].state, ReplicaHealth::State::kQuarantined);
  EXPECT_EQ(h.replicas[0].rejoins, 0u);
  EXPECT_EQ(h.steer_epochs, 2u);  // no rejoin → no restore epoch
}

// An injected rejoin failure (pipeline.replica.rejoin) turns a would-be
// rejoin into a lossy quarantine and is counted as such.
TEST(ReplicatedRecovery, InjectedRejoinFailureIsCountedAndSurvivable) {
  const ReplicatedFixture fx(54, 3'000);
  ReplicatedGraph rg = fx.make_graph(2);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(1));
  const failpoint::Scoped no_rejoin(failpoint::kPipelineRejoin,
                                    failpoint::Trigger::always());
  ReplicatedRunOptions opts;
  opts.threads = 1;
  opts.policy = SupervisorPolicy::kQuarantine;
  rg.run(opts);

  fx.check_records(rg.merged_records(), /*complete=*/true);  // cutover was 0
  const PipelineHealth h = rg.health();
  EXPECT_EQ(h.rejoin_failures, 1u);
  EXPECT_EQ(h.replicas[0].state, ReplicaHealth::State::kQuarantined);
  EXPECT_EQ(h.replicas[0].rejoins, 0u);
}

// Background retraining survives a replica crash: the shared engine's own
// auto-retrain worker (no replica hosts it) publishes a generation mid-run
// after replica 0 was quarantined and rejoined. Churn committed from the
// tick pushes absorption past the threshold; the insert itself requests
// the retrain, and the tick waits for the swap so it lands mid-stream.
TEST(ReplicatedRecovery, AutoRetrainPublishesGenerationAcrossReplicaCrash) {
  ReplicatedFixture fx(55, 3'000, /*retrain_threshold=*/0.01,
                       /*auto_retrain=*/true);
  const uint64_t gen0 = fx.online->generations();

  ReplicatedGraph rg = fx.make_graph(2);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(1));
  ReplicatedRunOptions opts;
  opts.threads = 1;
  opts.policy = SupervisorPolicy::kQuarantine;
  uint64_t gen_mid = 0;
  opts.tick = [&](uint64_t done) {  // threads=1: never concurrent
    if (gen_mid != 0 || done < fx.trace.size() / 2) return;
    for (uint32_t i = 0; i < 20; ++i) {
      Rule r = fx.rules[i % fx.rules.size()];
      r.id = 900'000 + i;
      r.priority = 1'000 + static_cast<int32_t>(i);
      ASSERT_TRUE(fx.online->insert(r));
    }
    fx.online->quiesce();
    gen_mid = fx.online->generations();
  };
  EXPECT_EQ(rg.run(opts), fx.trace.size());

  EXPECT_GT(gen_mid, gen0)
      << "the auto-retrain worker never published a generation mid-run";
  const PipelineHealth h = rg.health();
  EXPECT_EQ(h.replicas[0].state, ReplicaHealth::State::kRejoined);
  EXPECT_EQ(h.runtime.quarantines, 1u);
  // Churn rules are WORSE-priority than every base rule, so the oracle
  // differential is unchanged by the mid-run inserts.
  fx.check_records(rg.merged_records(), /*complete=*/true);
}

// Default-policy guard: a supervised option set that never crashes must be
// byte-identical to the unsupervised run — same records, same totals — and
// an ESCALATE run with a crash must still rethrow.
TEST(ReplicatedRecovery, QuietSupervisedRunMatchesUnsupervised) {
  const ReplicatedFixture fx(56, 3'000);
  ReplicatedGraph plain = fx.make_graph(2);
  EXPECT_EQ(plain.run(), fx.trace.size());
  const std::vector<pipeline::Sink::Record> want = plain.merged_records();

  ReplicatedGraph supervised = fx.make_graph(2);
  ReplicatedRunOptions opts;
  opts.policy = SupervisorPolicy::kQuarantine;  // armed but never triggered
  EXPECT_EQ(supervised.run(opts), fx.trace.size());
  const std::vector<pipeline::Sink::Record> got = supervised.merged_records();

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_EQ(got[i].rule_id, want[i].rule_id);
    EXPECT_EQ(got[i].priority, want[i].priority);
  }
  const PipelineHealth h = supervised.health();
  EXPECT_EQ(h.runtime.quarantines, 0u);
  EXPECT_EQ(h.steer_epochs, 1u);

  ReplicatedGraph escalating = fx.make_graph(2);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(1));
  EXPECT_THROW(escalating.run(), std::runtime_error);
}

}  // namespace
}  // namespace nuevomatch
