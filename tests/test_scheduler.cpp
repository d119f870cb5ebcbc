// The per-core replicated dataplane (src/pipeline/replicate.hpp): N replica
// graphs, replica i stepped only by thread i % threads. The archetype here
// is differential: a replicated run on several threads must be PROVABLY
// equivalent to the scalar single-thread oracle — identical per-packet
// decisions joined on the global stream index, identical aggregate counter
// totals — including across forced mid-stream generation swaps of the one
// shared online engine. The ReplicaThreads tests pin the placement that
// equivalence rests on: a replica never changes threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "classbench/generator.hpp"
#include "classbench/parser.hpp"
#include "classifiers/linear.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/replicate.hpp"
#include "trace/pcap.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using pipeline::Graph;
using pipeline::ReplicatedGraph;
using pipeline::ReplicatedRunOptions;

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

// --- replica placement ------------------------------------------------------

// Pass-through element that records which OS thread carried each burst.
// Single writer: only the thread stepping its replica touches `seen`.
class ThreadProbe final : public pipeline::Element {
 public:
  [[nodiscard]] std::string_view kind() const override { return "ThreadProbe"; }
  void process(pipeline::Burst& b) override {
    seen.push_back(std::this_thread::get_id());
    forward(b);
  }
  std::vector<std::thread::id> seen;
};

// `replicas` copies of TraceSource -> ThreadProbe -> Counter over `trace`.
ReplicatedGraph probed_graph(uint32_t replicas,
                             const std::vector<Packet>& trace) {
  return ReplicatedGraph(replicas, [&](uint32_t, uint32_t) {
    Graph g;
    auto& src = g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
    auto& probe = g.add(std::make_unique<ThreadProbe>(), "probe");
    auto& cnt = g.add(std::make_unique<pipeline::Counter>(), "cnt");
    g.connect(src, 0, probe);
    g.connect(probe, 0, cnt);
    return g;
  });
}

std::set<std::thread::id> threads_of(const ReplicatedGraph& rg, uint32_t r) {
  const auto& seen =
      static_cast<const ThreadProbe*>(rg.replica(r).find("probe"))->seen;
  return {seen.begin(), seen.end()};
}

std::vector<Packet> numbered_trace(size_t n) {
  std::vector<Packet> pkts(n);
  for (size_t i = 0; i < n; ++i) pkts[i].field[0] = static_cast<uint32_t>(i);
  return pkts;
}

// With one thread per replica, every burst of a replica rides the same OS
// thread, and no two replicas share one: a replica never changes threads,
// so its elements' plain state needs no handoff.
TEST(ReplicaThreads, EachReplicaStaysOnItsOwnThread) {
  const std::vector<Packet> trace = numbered_trace(64 * pipeline::kBurstSize);
  for (const uint32_t n : {2u, 4u}) {
    ReplicatedGraph rg = probed_graph(n, trace);
    ReplicatedRunOptions opts;
    opts.threads = n;
    EXPECT_EQ(rg.run(opts), trace.size());

    std::set<std::thread::id> all;
    for (uint32_t r = 0; r < n; ++r) {
      const std::set<std::thread::id> ids = threads_of(rg, r);
      ASSERT_EQ(ids.size(), 1u) << "replica " << r << " changed threads";
      EXPECT_TRUE(all.insert(*ids.begin()).second)
          << "replica " << r << " shares a thread with another replica";
    }
    // Thread i steps exactly replica i: its step count is the replica's.
    const pipeline::SchedulerStats& st = rg.last_stats();
    const pipeline::PipelineHealth h = rg.health();
    ASSERT_EQ(st.fires_per_thread.size(), n);
    for (uint32_t r = 0; r < n; ++r)
      EXPECT_EQ(st.fires_per_thread[r], h.replicas[r].fires) << "replica " << r;
    EXPECT_EQ(st.steals, 0u);
  }
}

// threads = 1 is the inline run: every replica is stepped by the caller.
TEST(ReplicaThreads, OneThreadRunsEveryReplicaOnTheCaller) {
  const std::vector<Packet> trace = numbered_trace(16 * pipeline::kBurstSize);
  ReplicatedGraph rg = probed_graph(3, trace);
  EXPECT_EQ(rg.run(), trace.size());
  for (uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(threads_of(rg, r),
              std::set<std::thread::id>{std::this_thread::get_id()})
        << "replica " << r;
  }
  EXPECT_EQ(rg.last_stats().fires_per_thread.size(), 1u);
}

// More threads than replicas are clamped: a thread with no replica to step
// is never started.
TEST(ReplicaThreads, ThreadCountIsClampedToReplicas) {
  const std::vector<Packet> trace = numbered_trace(8 * pipeline::kBurstSize);
  ReplicatedGraph rg = probed_graph(2, trace);
  ReplicatedRunOptions opts;
  opts.threads = 8;
  EXPECT_EQ(rg.run(opts), trace.size());
  EXPECT_EQ(rg.last_stats().fires_per_thread.size(), 2u);
  EXPECT_NE(*threads_of(rg, 0).begin(), *threads_of(rg, 1).begin());
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

// Per-flow (here: per-replica, which is coarser) record order must hold
// when threads share replicas (4 replicas on 2 threads): within one
// replica's sink the global indices arrive strictly increasing, because a
// replica is stepped by one thread, one burst at a time.
TEST(ReplicaDifferential, PerReplicaOrderHoldsWhenThreadsShareReplicas) {
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
// graph and through a 4-replica graph (4 threads, shared engine,
// ≥3 forced mid-stream generation swaps) must produce identical per-packet
// decisions and identical aggregate Counter totals. The rule-set never
// changes, so the swaps must be answer-invariant — any divergence is a
// replica-runner/fan-in bug. Runs under TSAN in CI.
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

  // Replicated run: 4 replicas on 4 threads, one shared engine,
  // three forced generation swaps landing mid-stream.
  ReplicatedGraph rg = ReplicatedGraph::parse(config, 4);
  OnlineNuevoMatch* online = rg.shared_online();
  ASSERT_NE(online, nullptr);
  const uint64_t gen0 = online->generations();

  std::mutex swap_mu;
  int swaps = 0;
  // Tick values arrive out of order across replica threads, so fire
  // every threshold the cumulative count has passed, not just the next.
  constexpr uint64_t kSwapAt[3] = {16, 32, 48};
  ReplicatedRunOptions opts;
  opts.threads = 4;
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

// Background retraining needs no replica's help: the shared engine's own
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
