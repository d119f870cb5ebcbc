// Task fault domains and the pipeline recovery ladder: the scheduler's
// SupervisorPolicy (escalate / quarantine), the cooperative watchdog, the
// suppressed-error counter, and the ReplicatedGraph quarantine → re-steer
// → drain → rejoin path — all driven deterministically through the
// pipeline failpoints. A quarantined task restarts only through the
// on_quarantine hook (reinstate()); there is no in-place retry policy, and
// background retraining belongs to the shared engine's own auto-retrain
// worker, so a replica crash never moves training duties anywhere. Runs
// under the TSAN and ASan/UBSan CI legs: a crash-during-burst must be
// leak-clean (the in-flight burst is dropped, not leaked).
#include <gtest/gtest.h>

#include <algorithm>
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
#include "pipeline/scheduler.hpp"
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
using pipeline::Scheduler;
using pipeline::SupervisorPolicy;
using pipeline::Task;
using pipeline::TaskHealth;
using pipeline::TaskPhase;
using pipeline::TaskState;

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

// --- quarantine -------------------------------------------------------------

// A quarantined task is detached, not fatal: its sibling keeps firing to
// completion and run() returns normally — the stop-the-world behavior is
// gone under kQuarantine (and ONLY under kQuarantine).
TEST(SupervisorQuarantine, IsolatesFailureFromSiblings) {
  Scheduler sched(1);
  Task::Options bad_opt;
  bad_opt.label = "bad";
  bad_opt.policy = SupervisorPolicy::kQuarantine;
  Task& bad = sched.add(
      []() -> TaskState { throw std::runtime_error("isolated crash"); },
      std::move(bad_opt));
  uint64_t good_fires = 0;
  Task& good = sched.add([&]() -> TaskState {
    return ++good_fires >= 50 ? TaskState::kDone : TaskState::kWorked;
  });
  sched.run();

  EXPECT_EQ(bad.phase(), TaskPhase::kQuarantined);
  EXPECT_EQ(bad.quarantines(), 1u);
  EXPECT_TRUE(good.done());
  EXPECT_EQ(good_fires, 50u);
  const RuntimeHealth h = sched.health();
  EXPECT_EQ(h.quarantines, 1u);
  EXPECT_EQ(h.suppressed_errors, 0u);  // quarantine suppresses NOTHING
  EXPECT_EQ(task_health(h, "bad").last_error, "isolated crash");
}

// The on_quarantine hook runs synchronously on the catching thread BEFORE
// liveness is released: a hook that reinstate()s keeps the scheduler alive
// through the failure even when the quarantined task was the only live one,
// and the task then completes its remaining work.
TEST(SupervisorQuarantine, HookReinstatesAndTaskCompletes) {
  Scheduler sched(1);
  uint64_t attempts = 0;
  Task::Options topt;
  topt.label = "phoenix";
  topt.policy = SupervisorPolicy::kQuarantine;
  Task& t = sched.add(
      [&]() -> TaskState {
        if (++attempts == 1) throw std::runtime_error("die once");
        return attempts >= 6 ? TaskState::kDone : TaskState::kWorked;
      },
      std::move(topt));
  int hook_calls = 0;
  sched.set_on_quarantine([&](Task& tk) {
    ++hook_calls;
    EXPECT_TRUE(sched.reinstate(tk));
  });
  sched.run();

  EXPECT_EQ(hook_calls, 1);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.quarantines(), 1u);
  EXPECT_EQ(attempts, 6u);
  EXPECT_FALSE(sched.reinstate(t));  // done, not quarantined
}

// --- escalation (the PR 7 semantics, unchanged) -----------------------------

// The default policy preserves stop-and-rethrow exactly: same exception out
// of run(), the healthy sibling is stopped undone, nothing is suppressed.
TEST(SupervisorEscalate, DefaultPolicyPreservesStopAndRethrow) {
  Scheduler sched(2);
  uint64_t fires = 0;
  Task& bomb = sched.add([&]() -> TaskState {
    if (++fires >= 5) throw std::runtime_error("boom");
    return TaskState::kWorked;
  });
  Task& forever = sched.add([]() -> TaskState { return TaskState::kWorked; });

  try {
    sched.run();
    FAIL() << "escalation must rethrow out of run()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_TRUE(bomb.done());  // escalation finishes the task (original path)
  EXPECT_EQ(bomb.phase(), TaskPhase::kDone);
  EXPECT_FALSE(forever.done());
  const RuntimeHealth h = sched.health();
  EXPECT_EQ(h.quarantines, 0u);
  EXPECT_EQ(h.suppressed_errors, 0u);
}

// Errors beyond the first used to vanish without a trace. Two tasks that
// meet inside their fires (so both are mid-fire at once) and then both
// throw surface as first_error_ plus a counted suppression — a multi-task
// failure is distinguishable again.
TEST(SupervisorEscalate, LaterErrorsAreCountedNotSwallowed) {
  Scheduler sched(2);
  std::latch meet(2);
  const char* const labels[] = {"failure A", "failure B"};
  for (uint32_t i = 0; i < 2; ++i) {
    const char* what = labels[i];
    Task::Options opt;
    opt.home = i;  // one task per thread
    opt.label = what;
    sched.add(
        [what, &meet]() -> TaskState {
          meet.arrive_and_wait();
          throw std::runtime_error(what);
        },
        std::move(opt));
  }

  EXPECT_THROW(sched.run(), std::runtime_error);
  const RuntimeHealth h = sched.health();
  EXPECT_EQ(h.suppressed_errors, 1u)
      << "the second failure was dropped without being counted";
  EXPECT_EQ(task_health(h, "failure A").last_error, "failure A");
  EXPECT_EQ(task_health(h, "failure B").last_error, "failure B");
}

// --- cooperative watchdog ---------------------------------------------------

// A task that keeps claiming kWorked without advancing its heartbeat is
// flagged stalled after stall_fires consecutive fires; a beating sibling
// with the same configuration never is. Budget overruns are counted for
// fires that exceed fire_budget_ns (sampled between fires — cooperative).
TEST(SupervisorWatchdog, FlagsStalledTaskAndCountsBudgetOverruns) {
  Scheduler sched(1);
  Task::Options liar_opt;
  liar_opt.label = "liar";
  liar_opt.stall_fires = 8;
  liar_opt.fire_budget_ns = 1;  // every real fire overruns 1ns
  uint64_t liar_fires = 0;
  Task& liar = sched.add(
      [&]() -> TaskState {
        volatile uint64_t sink = 0;
        for (int i = 0; i < 1000; ++i) sink = sink + static_cast<uint64_t>(i);
        return ++liar_fires >= 40 ? TaskState::kDone : TaskState::kWorked;
      },
      std::move(liar_opt));
  Task::Options honest_opt;
  honest_opt.label = "honest";
  honest_opt.stall_fires = 8;
  uint64_t honest_fires = 0;
  Task& honest = sched.add(
      [&]() -> TaskState {
        Scheduler::current_task()->beat();  // real progress, every fire
        return ++honest_fires >= 40 ? TaskState::kDone : TaskState::kWorked;
      },
      std::move(honest_opt));
  sched.run();

  EXPECT_TRUE(liar.stalled()) << "40 no-progress kWorked fires, never flagged";
  EXPECT_GE(liar.budget_overruns(), 1u);
  EXPECT_FALSE(honest.stalled());
  const RuntimeHealth h = sched.health();
  EXPECT_TRUE(task_health(h, "liar").stalled);
  EXPECT_FALSE(task_health(h, "honest").stalled);
}

// reinstate() resets the watchdog: a task flagged
// stalled BEFORE its quarantine must come back clean — its state was
// rebuilt, so a sticky STALLED flag in RuntimeHealth would be a lie.
TEST(SupervisorWatchdog, ReinstateClearsWatchdogState) {
  Scheduler sched(1);
  Task::Options topt;
  topt.label = "recoverer";
  topt.policy = SupervisorPolicy::kQuarantine;
  topt.stall_fires = 4;
  uint64_t fires = 0;
  Task& t = sched.add(
      [&]() -> TaskState {
        ++fires;
        if (fires <= 6) return TaskState::kWorked;  // no beat(): stalls at 4
        if (fires == 7) throw std::runtime_error("die stalled");
        Scheduler::current_task()->beat();  // healthy after the rejoin
        return fires >= 12 ? TaskState::kDone : TaskState::kWorked;
      },
      std::move(topt));
  bool stalled_at_quarantine = false;
  sched.set_on_quarantine([&](Task& tk) {
    stalled_at_quarantine = tk.stalled();
    EXPECT_TRUE(sched.reinstate(tk));
  });
  sched.run();

  EXPECT_TRUE(stalled_at_quarantine) << "the stall never registered";
  EXPECT_TRUE(t.done());
  EXPECT_FALSE(t.stalled()) << "reinstate left the pre-quarantine flag set";
  EXPECT_FALSE(task_health(sched.health(), "recoverer").stalled);
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
// scheduled fire (the between-bursts seam — the lossless fault domain).
// The quarantine ladder re-steers its slice, drains its cache and rejoins
// it — and the merged differential still matches the oracle EXACTLY: every
// position served exactly once, zero stale decisions.
TEST(ReplicatedRecovery, ReplicaCrashAtFireSeamLosesNothing) {
  const ReplicatedFixture fx(51, 4'000);
  ReplicatedGraph rg = fx.make_graph(2);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::nth(1));
  ReplicatedRunOptions opts;
  opts.threads = 1;  // deterministic: fire 1 is replica 0's first fire
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
  EXPECT_EQ(h.rejoin_failures, 0u);
  EXPECT_EQ(h.steer_epochs, 3u);  // [0,C) full | [C,C+W) survivor | [C+W,∞) full
  EXPECT_GT(h.recovery_ns, 0u);
  EXPECT_FALSE(h.to_string().empty());
}

// Two crashes landing near-simultaneously on DIFFERENT scheduler threads:
// each catching thread runs the full recovery ladder, and the ladders must
// serialize (recovery_mu_) — concurrent steering appends or a premature
// un-pause would corrupt the re-steer. Under the
// TSAN leg this is the regression test for that race. first:2 fires on the
// first two scheduled fires, whichever threads get there first.
TEST(ReplicatedRecovery, ConcurrentReplicaCrashesSerializeAndLoseNothing) {
  const ReplicatedFixture fx(54, 4'000);
  ReplicatedGraph rg = fx.make_graph(3);
  const failpoint::Scoped crash(failpoint::kPipelineTaskFire,
                                failpoint::Trigger::first(2));
  ReplicatedRunOptions opts;
  opts.threads = 3;  // the two crashes race on separate catching threads
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
  // Crash on fire 1: the cutover is position 0, so the WHOLE dead slice is
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
// an ESCALATE run with a crash must still rethrow (the PR 7 surface through
// the ReplicatedGraph layer, not just the bare scheduler).
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
