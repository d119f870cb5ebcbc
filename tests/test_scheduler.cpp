// The Click-style task scheduler (src/pipeline/scheduler.hpp) and the
// per-core replicated dataplane built on it (src/pipeline/replicate.hpp).
// The archetype here is differential: a replicated, scheduled, work-stolen
// run must be PROVABLY equivalent to the scalar single-thread oracle —
// identical per-packet decisions joined on the global stream index,
// identical aggregate counter totals — including across forced mid-stream
// generation swaps of the one shared online engine. The scheduler unit
// tests pin the mechanics that equivalence rests on: quantum fairness,
// migration between fires only, clean shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "classbench/generator.hpp"
#include "classbench/parser.hpp"
#include "classifiers/linear.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/replicate.hpp"
#include "pipeline/scheduler.hpp"
#include "trace/pcap.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using pipeline::Graph;
using pipeline::ReplicatedGraph;
using pipeline::ReplicatedRunOptions;
using pipeline::Scheduler;
using pipeline::Task;
using pipeline::TaskState;

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

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

// --- scheduler unit tests ---------------------------------------------------

// The quantum bounds how long one task can monopolize a thread: with two
// always-ready tasks on ONE thread, task A can fire at most `quantum`
// consecutive times between two fires of task B. This is the no-starvation
// property — a saturated source cannot lock a classifier task out.
TEST(SchedulerCore, QuantumBoundsConsecutiveFiresOfOneTask) {
  constexpr uint32_t kQuantum = 4;
  Scheduler::Options opt;
  opt.quantum = kQuantum;
  Scheduler sched(1, opt);

  uint64_t a_fires = 0;
  uint64_t b_fires = 0;
  uint64_t last_a_at_b = 0;
  uint64_t max_gap = 0;
  sched.add([&]() -> TaskState {
    return ++a_fires >= 400 ? TaskState::kDone : TaskState::kWorked;
  });
  sched.add([&]() -> TaskState {
    max_gap = std::max(max_gap, a_fires - last_a_at_b);
    last_a_at_b = a_fires;
    return ++b_fires >= 100 ? TaskState::kDone : TaskState::kWorked;
  });
  sched.run();

  EXPECT_EQ(a_fires, 400u);
  EXPECT_EQ(b_fires, 100u);
  // While both tasks were live, B observed at most one full A-quantum
  // between its own fires.
  EXPECT_LE(max_gap, kQuantum);
  EXPECT_EQ(sched.stats().fires, 500u);
}

// An idle thread steals a queued task; migration happens only between
// fires, so the task's own fire sequence stays totally ordered. The
// migrant refuses to make progress on its home thread — it can ONLY finish
// if work stealing moves it.
TEST(SchedulerCore, IdleThreadStealsTask) {
  Scheduler sched(2);
  std::set<int> migrant_threads;
  std::mutex mu;
  uint64_t migrant_work = 0;

  Task& migrant = sched.add(
      [&]() -> TaskState {
        if (Scheduler::current_thread() == 0) return TaskState::kIdle;
        {
          const std::lock_guard<std::mutex> lk(mu);
          migrant_threads.insert(Scheduler::current_thread());
        }
        return ++migrant_work < 10 ? TaskState::kWorked : TaskState::kDone;
      },
      {.home = 0, .label = "migrant"});
  sched.run();

  EXPECT_TRUE(migrant.done());
  EXPECT_GE(migrant.migrations(), 1u);
  EXPECT_EQ(migrant_work, 10u);
  EXPECT_EQ(migrant.worked(), 9u);  // the final kDone fire is not "worked"
  EXPECT_EQ(migrant_threads, std::set<int>{1});  // never worked on home
  EXPECT_GE(sched.stats().steals, 1u);
}

// request_stop() from inside a fire: every thread finishes its current
// fire and drains out; nothing is leaked (the ASan leg verifies), and the
// not-yet-done tasks are simply left undone.
TEST(SchedulerCore, RequestStopDrainsCleanly) {
  Scheduler sched(2);
  uint64_t fires = 0;
  // Closure state that would leak if shutdown abandoned queue entries.
  auto payload = std::make_shared<std::vector<int>>(1024, 7);
  Task& forever = sched.add([payload]() -> TaskState {
    return TaskState::kWorked;
  });
  sched.add([&]() -> TaskState {
    if (++fires >= 50) {
      sched.request_stop();
      return TaskState::kIdle;
    }
    return TaskState::kWorked;
  });
  sched.run();
  EXPECT_FALSE(forever.done());
  EXPECT_GE(fires, 50u);
  EXPECT_GT(sched.stats().fires, 0u);
}

// A throwing task stops the whole scheduler cleanly and run() rethrows the
// first exception after every worker joined.
TEST(SchedulerCore, TaskExceptionPropagatesOutOfRun) {
  Scheduler sched(2);
  uint64_t fires = 0;
  sched.add([&]() -> TaskState {
    if (++fires >= 5) throw std::runtime_error("boom");
    return TaskState::kWorked;
  });
  sched.add([]() -> TaskState { return TaskState::kWorked; });
  EXPECT_THROW(sched.run(), std::runtime_error);
}

// --- graph step() -----------------------------------------------------------

// step() and run() are one drive loop, so both reject the same shapes.
TEST(GraphStep, RequiresExactlyOneSource) {
  const auto no_source = [] {
    Graph g;
    g.add(std::make_unique<pipeline::Counter>(), "c");
    return g;
  };
  const auto two_sources = [] {
    Graph g;
    g.add(std::make_unique<pipeline::TraceSource>(std::vector<Packet>(8)), "a");
    g.add(std::make_unique<pipeline::TraceSource>(std::vector<Packet>(8)), "b");
    return g;
  };
  EXPECT_THROW((void)no_source().step(), std::runtime_error);
  EXPECT_THROW((void)two_sources().step(), std::runtime_error);  // ambiguous
  EXPECT_THROW((void)no_source().run(), std::runtime_error);
  EXPECT_THROW((void)two_sources().run(), std::runtime_error);
}

TEST(GraphStep, StepsMatchRunSemantics) {
  std::vector<Packet> pkts(pipeline::kBurstSize * 2 + 5);
  Graph g;
  auto& src = g.add(std::make_unique<pipeline::TraceSource>(pkts), "src");
  auto& cnt = g.add(std::make_unique<pipeline::Counter>(), "cnt");
  g.connect(src, 0, cnt);
  uint64_t pumped = 0;
  size_t steps = 0;
  while (g.step(&pumped)) ++steps;
  g.finish_run();
  EXPECT_EQ(pumped, pkts.size());
  EXPECT_EQ(steps, 3u);
  EXPECT_EQ(cnt.packets(), pkts.size());
  EXPECT_FALSE(g.step(&pumped));  // EOS latches
}

// --- RSS replica split ------------------------------------------------------

// The splitter partitions the trace: every packet lands on exactly one
// replica (union = whole trace, no duplicates), and always the replica its
// five-tuple hashes to — the flow-affinity invariant.
TEST(ReplicaSplit, SourcesPartitionTheTraceByFlowHash) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 200, 31);
  TraceConfig tc;
  tc.kind = TraceConfig::Kind::kZipf;
  tc.n_packets = 3'000;
  const std::vector<Packet> trace = generate_trace(rules, tc);

  constexpr uint32_t kReplicas = 4;
  ReplicatedGraph rg(kReplicas, [&](uint32_t, uint32_t) {
    Graph g;
    auto& src = g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
    auto& sink = g.add(std::make_unique<pipeline::Sink>(true), "sink");
    g.connect(src, 0, sink);
    return g;
  });
  const uint64_t total = rg.run();  // 1 thread: deterministic
  EXPECT_EQ(total, trace.size());

  std::vector<uint8_t> seen(trace.size(), 0);
  for (uint32_t r = 0; r < kReplicas; ++r) {
    const auto* sink =
        static_cast<const pipeline::Sink*>(rg.replica(r).find("sink"));
    for (const auto& rec : sink->records()) {
      ASSERT_LT(rec.index, trace.size());
      EXPECT_EQ(pipeline::rss_hash(trace[rec.index]) % kReplicas, r)
          << "packet on the wrong replica";
      ++seen[rec.index];
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](uint8_t c) { return c == 1; }))
      << "split is not a partition";
}

// --- the differential layer -------------------------------------------------

// Per-flow (here: per-replica, which is coarser) record order must survive
// scheduling, quanta, and work stealing: within one replica's sink the
// global indices arrive strictly increasing, because a replica is one task
// and a task's fires are totally ordered no matter where they run.
TEST(ReplicaDifferential, PerReplicaOrderSurvivesMigration) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 300, 37);
  auto online = make_online(rules);
  TraceConfig tc;
  tc.kind = TraceConfig::Kind::kZipf;
  tc.n_packets = 4'000;
  const std::vector<Packet> trace = generate_trace(rules, tc);

  constexpr uint32_t kReplicas = 4;
  ReplicatedGraph rg(kReplicas, [&](uint32_t, uint32_t) {
    Graph g;
    auto& src = g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
    auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
    cls_owned->attach(online);
    cls_owned->set_actions(rules);
    auto& cls = g.add(std::move(cls_owned), "cls");
    auto& sink = g.add(std::make_unique<pipeline::Sink>(true), "sink");
    g.connect(src, 0, cls);
    g.connect(cls, 0, sink);
    return g;
  });
  ReplicatedRunOptions opts;
  opts.threads = 2;
  opts.quantum = 2;  // short slices force interleaving and steals
  EXPECT_EQ(rg.run(opts), trace.size());

  for (uint32_t r = 0; r < kReplicas; ++r) {
    const auto& recs =
        static_cast<const pipeline::Sink*>(rg.replica(r).find("sink"))
            ->records();
    for (size_t i = 1; i < recs.size(); ++i) {
      ASSERT_LT(recs[i - 1].index, recs[i].index)
          << "replica " << r << " emitted out of order";
    }
  }
  EXPECT_EQ(rg.merged_records().size(), trace.size());
}

// THE acceptance differential: the golden pcap through a 1-thread scalar
// graph and through a 4-replica scheduled graph (4 threads, shared engine,
// ≥3 forced mid-stream generation swaps) must produce identical per-packet
// decisions and identical aggregate Counter totals. The rule-set never
// changes, so the swaps must be answer-invariant — any divergence is a
// scheduler/fan-in bug. Runs under TSAN in CI.
TEST(ReplicaDifferential, FourReplicasMatchScalarOracleOnGoldenPcap) {
  const std::string root = NM_SOURCE_ROOT;
  const std::string config =
      "src   :: PcapSource(" + root + "/examples/data/golden64.pcap);\n"
      "cache :: FlowCache(1024);\n"
      "cls   :: Classifier(" + root + "/examples/data/router_acl.rules, manual);\n"
      "cnt   :: Counter(all);\n"
      "disp  :: Dispatch(permit, deny);\n"
      "hit   :: Sink(record);\n"
      "miss  :: Sink(record);\n"
      "src -> cache -> cls -> cnt -> disp;\n"
      "disp[0] -> hit;\n"
      "disp[1] -> miss;\n";

  // Scalar oracle run.
  Graph scalar = Graph::parse(config);
  const uint64_t scalar_total = scalar.run();
  std::vector<pipeline::Sink::Record> want;
  for (const char* s : {"hit", "miss"}) {
    const auto& recs =
        static_cast<const pipeline::Sink*>(scalar.find(s))->records();
    want.insert(want.end(), recs.begin(), recs.end());
  }
  std::sort(want.begin(), want.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  const uint64_t scalar_counted =
      static_cast<const pipeline::Counter*>(scalar.find("cnt"))->packets();

  // Replicated run: 4 replicas on 4 scheduler threads, one shared engine,
  // three forced generation swaps landing mid-stream.
  ReplicatedGraph rg = ReplicatedGraph::parse(config, 4);
  OnlineNuevoMatch* online = rg.shared_online();
  ASSERT_NE(online, nullptr);
  const uint64_t gen0 = online->generations();

  std::mutex swap_mu;
  int swaps = 0;
  // Tick values arrive out of order across scheduler threads, so fire
  // every threshold the cumulative count has passed, not just the next.
  constexpr uint64_t kSwapAt[3] = {16, 32, 48};
  ReplicatedRunOptions opts;
  opts.threads = 4;
  opts.quantum = 1;  // every burst reschedules: maximal interleaving
  opts.tick = [&](uint64_t done) {
    const std::lock_guard<std::mutex> lk(swap_mu);
    while (swaps < 3 && done >= kSwapAt[swaps]) {
      online->retrain_now();
      online->quiesce();  // each forced swap must actually publish
      ++swaps;
    }
  };
  const uint64_t total = rg.run(opts);
  online->quiesce();

  EXPECT_EQ(total, scalar_total);
  EXPECT_EQ(swaps, 3);
  EXPECT_GE(online->generations() - gen0, 3u);

  const std::vector<pipeline::Sink::Record> got = rg.merged_records();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_EQ(got[i].rule_id, want[i].rule_id) << "packet " << want[i].index;
    EXPECT_EQ(got[i].priority, want[i].priority) << "packet " << want[i].index;
    EXPECT_EQ(got[i].action, want[i].action) << "packet " << want[i].index;
  }
  EXPECT_EQ(rg.total_counter_packets(), scalar_counted);
  EXPECT_EQ(rg.total_sink_packets(), scalar_total);
}

// The same differential at trace scale, against an independent LinearSearch
// oracle, with per-replica FlowCaches in the path (so the update-coherence
// machinery is exercised across the swaps) and enough packets that every
// replica sees real cache hits.
TEST(ReplicaDifferential, TraceScaleMatchesLinearOracleThroughSwaps) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 600, 41);
  auto online = make_online(rules);
  TraceConfig tc;
  tc.kind = TraceConfig::Kind::kZipf;
  tc.zipf_alpha = 1.15;
  tc.n_packets = 6'000;
  const std::vector<Packet> trace = generate_trace(rules, tc);
  LinearSearch oracle;
  oracle.build(rules);

  constexpr uint32_t kReplicas = 4;
  ReplicatedGraph rg(kReplicas, [&](uint32_t, uint32_t) {
    Graph g;
    auto& src = g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
    auto& cache =
        g.add(std::make_unique<pipeline::FlowCacheElement>(2048), "cache");
    auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
    cls_owned->attach(online);
    cls_owned->set_actions(rules);
    auto& cls = g.add(std::move(cls_owned), "cls");
    auto& cnt = g.add(std::make_unique<pipeline::Counter>(), "cnt");
    auto& sink = g.add(std::make_unique<pipeline::Sink>(true), "sink");
    g.connect(src, 0, cache);
    g.connect(cache, 0, cls);
    g.connect(cls, 0, cnt);
    g.connect(cnt, 0, sink);
    return g;
  });

  const uint64_t gen0 = online->generations();
  std::mutex swap_mu;
  int swaps = 0;
  const uint64_t n = trace.size();
  const uint64_t swap_at[3] = {n / 4, n / 2, 3 * n / 4};
  ReplicatedRunOptions opts;
  opts.threads = 2;
  opts.quantum = 2;
  opts.tick = [&](uint64_t done) {  // reorder-robust: see golden-pcap test
    const std::lock_guard<std::mutex> lk(swap_mu);
    while (swaps < 3 && done >= swap_at[swaps]) {
      online->retrain_now();
      online->quiesce();
      ++swaps;
    }
  };
  EXPECT_EQ(rg.run(opts), n);
  online->quiesce();
  EXPECT_EQ(swaps, 3);
  EXPECT_GE(online->generations() - gen0, 3u);

  const std::vector<pipeline::Sink::Record> got = rg.merged_records();
  ASSERT_EQ(got.size(), n);
  uint64_t mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i].index, i);  // exactly-once, every position covered
    if (oracle.match(trace[i]).rule_id != got[i].rule_id) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u)
      << "replicated decisions diverged from the scalar oracle";
  EXPECT_EQ(rg.total_counter_packets(), n);

  // Non-vacuous: the skewed trace must have produced real cache hits.
  uint64_t hits = 0;
  for (uint32_t r = 0; r < kReplicas; ++r) {
    hits += static_cast<pipeline::FlowCacheElement*>(rg.replica(r).find("cache"))
                ->cache()
                .stats()
                .hits;
  }
  EXPECT_GT(hits, 0u) << "flow caches never hit — differential vacuous";
}

// Background retraining needs no scheduler task: the shared engine's own
// auto-retrain worker fires on the retrain_threshold it was built with.
// Churn committed mid-run (from the tick) pushes absorption past the
// threshold, the insert requests the retrain, and the tick waits for the
// swap — so a generation is published while both replicas are still
// pumping, and the merged records must still match the oracle.
TEST(ReplicaDifferential, AutoRetrainPublishesGenerationMidRun) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 400, 43);
  auto online = make_online(rules, /*retrain_threshold=*/0.01,
                            /*auto_retrain=*/true);
  TraceConfig tc;
  tc.n_packets = 2'000;
  const std::vector<Packet> trace = generate_trace(rules, tc);
  LinearSearch oracle;
  oracle.build(rules);
  const uint64_t gen0 = online->generations();

  ReplicatedGraph rg(2, [&](uint32_t, uint32_t) {
    Graph g;
    auto& src = g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
    auto& cache =
        g.add(std::make_unique<pipeline::FlowCacheElement>(1024), "cache");
    auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
    cls_owned->attach(online);
    auto& cls = g.add(std::move(cls_owned), "cls");
    auto& sink = g.add(std::make_unique<pipeline::Sink>(true), "sink");
    g.connect(src, 0, cache);
    g.connect(cache, 0, cls);
    g.connect(cls, 0, sink);
    return g;
  });
  std::mutex tick_mu;
  uint64_t gen_mid = 0;
  ReplicatedRunOptions opts;
  opts.threads = 2;
  opts.tick = [&](uint64_t done) {
    const std::lock_guard<std::mutex> lk(tick_mu);
    if (gen_mid != 0 || done < trace.size() / 2) return;
    // Copies of base rules at WORSE priority than every base rule: the
    // oracle's answers are unchanged, but absorption crosses 0.01.
    for (uint32_t i = 0; i < 20; ++i) {
      Rule r = rules[i % rules.size()];
      r.id = 800'000 + i;
      r.priority = 1'000 + static_cast<int32_t>(i);
      ASSERT_TRUE(online->insert(r));
    }
    online->quiesce();
    gen_mid = online->generations();
  };
  EXPECT_EQ(rg.run(opts), trace.size());
  EXPECT_GT(gen_mid, gen0)
      << "the auto-retrain worker never published a generation mid-run "
         "(absorption="
      << online->absorption()
      << ", failures=" << online->health().retrain_failures_total << ")";

  const std::vector<pipeline::Sink::Record> got = rg.merged_records();
  ASSERT_EQ(got.size(), trace.size());
  uint64_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].index, i);
    if (oracle.match(trace[i]).rule_id != got[i].rule_id) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u)
      << "replicated decisions diverged from the oracle across the swap";
}

}  // namespace
}  // namespace nuevomatch
