// Telemetry-layer suite (ISSUE 10):
//
//   * log2 histogram bucket boundaries are EXACT (bucket b >= 1 spans
//     [2^(b-1), 2^b - 1], bucket 0 is {0}, the top bucket clamps), merge is
//     bucketwise addition, and percentile extraction follows the
//     nuevomatch::percentile rank convention — proven by expanding a
//     snapshot into its assumed per-bucket sample spread and comparing
//     against the real nuevomatch::percentile over that expansion;
//   * sharded counters aggregate exactly vs a serial oracle under 4 racing
//     threads (and stay monotone under snapshot-during-churn), relaxed
//     atomics throughout — the TSAN CI leg runs this suite;
//   * the registry rejects name/type conflicts and renders Prometheus text
//     exposition + JSON; telemetry::Snapshot joins the health surfaces
//     (flow cache stats, replica layer) into the same exposition, and
//     telemetry::snapshot(rg) sums every replica's caches;
//   * MetricsExporter answers real loopback scrapes (Prometheus and JSON)
//     from its own thread, also while replicas fire, refuses a taken port,
//     and dumps its file on destruction;
//   * an instrumented pipeline run populates the end-to-end burst latency
//     histogram (nm_pipeline_burst_ns) and the scheduler fire histogram
//     feeds p50/p99 from real samples.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "classbench/generator.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/metrics_exporter.hpp"
#include "pipeline/replicate.hpp"
#include "pipeline/telemetry.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::HistogramSnapshot;
using telemetry::MetricType;
using telemetry::Registry;

// --- histogram bucket math --------------------------------------------------

TEST(MetricsHistogram, BucketBoundariesExact) {
  EXPECT_EQ(HistogramSnapshot::bucket_of(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(2), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(3), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(4), 3u);
  // Every power of two starts a new bucket; its predecessor ends one.
  for (size_t b = 1; b + 1 < HistogramSnapshot::kBuckets; ++b) {
    const uint64_t lo = uint64_t{1} << (b - 1);
    const uint64_t hi = (uint64_t{1} << b) - 1;
    EXPECT_EQ(HistogramSnapshot::bucket_of(lo), b) << "lo of bucket " << b;
    EXPECT_EQ(HistogramSnapshot::bucket_of(hi), b) << "hi of bucket " << b;
    EXPECT_EQ(HistogramSnapshot::bucket_lo(b), lo);
    EXPECT_EQ(HistogramSnapshot::bucket_hi(b), hi);
  }
  // The top bucket absorbs everything, including values past 2^62.
  EXPECT_EQ(HistogramSnapshot::bucket_of(~uint64_t{0}),
            HistogramSnapshot::kBuckets - 1);
  EXPECT_EQ(HistogramSnapshot::bucket_of(uint64_t{1} << 62),
            HistogramSnapshot::kBuckets - 1);
}

TEST(MetricsHistogram, RecordLandsInExactBucket) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(1000);   // [512, 1023] -> bucket 10
  h.record(1023);
  h.record(1024);   // bucket 11
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count[0], 1u);
  EXPECT_EQ(s.count[1], 1u);
  EXPECT_EQ(s.count[10], 2u);
  EXPECT_EQ(s.count[11], 1u);
  EXPECT_EQ(s.total(), 5u);
  EXPECT_EQ(s.sum_ns, 0u + 1 + 1000 + 1023 + 1024);
}

TEST(MetricsHistogram, MergeIsBucketwiseAddition) {
  Histogram a, b;
  for (int i = 0; i < 10; ++i) a.record(100);
  for (int i = 0; i < 5; ++i) b.record(5000);
  b.record(0);
  HistogramSnapshot sa = a.snapshot();
  const HistogramSnapshot sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.total(), 16u);
  EXPECT_EQ(sa.count[HistogramSnapshot::bucket_of(100)], 10u);
  EXPECT_EQ(sa.count[HistogramSnapshot::bucket_of(5000)], 5u);
  EXPECT_EQ(sa.count[0], 1u);
  EXPECT_EQ(sa.sum_ns, 10u * 100 + 5u * 5000);
}

/// Expand a snapshot into the per-bucket evenly-spread samples its
/// percentile() assumes (sample j of k in bucket b sits at
/// lo + (hi-lo)*(j+0.5)/k), then compare percentile() against the REAL
/// nuevomatch::percentile over that expansion. Equality here proves the
/// histogram follows the existing rank convention exactly.
std::vector<double> assumed_samples(const HistogramSnapshot& s) {
  std::vector<double> xs;
  for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    const uint64_t k = s.count[b];
    if (k == 0) continue;
    const double lo = static_cast<double>(HistogramSnapshot::bucket_lo(b));
    const double hi = static_cast<double>(HistogramSnapshot::bucket_hi(b));
    for (uint64_t j = 0; j < k; ++j)
      xs.push_back(lo + (hi - lo) * ((static_cast<double>(j) + 0.5) /
                                     static_cast<double>(k)));
  }
  return xs;
}

TEST(MetricsHistogram, PercentileMatchesNuevomatchConvention) {
  Histogram h;
  // A deliberately lumpy distribution across several buckets.
  for (int i = 0; i < 100; ++i) h.record(700);      // bucket 10
  for (int i = 0; i < 40; ++i) h.record(3000);      // bucket 12
  for (int i = 0; i < 9; ++i) h.record(100'000);    // bucket 17
  h.record(2'000'000);                              // bucket 21
  const HistogramSnapshot s = h.snapshot();
  const std::vector<double> xs = assumed_samples(s);
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_NEAR(s.percentile(p), percentile(xs, p), 1e-6)
        << "p = " << p;
  }
}

TEST(MetricsHistogram, PercentileEdgeCases) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.percentile(50.0), 0.0);

  Histogram one;
  one.record(1000);  // bucket 10: [512, 1023]
  const HistogramSnapshot s = one.snapshot();
  // A single sample sits at its bucket's midpoint at EVERY percentile.
  const double mid = 512.0 + (1023.0 - 512.0) * 0.5;
  EXPECT_DOUBLE_EQ(s.percentile(0.0), mid);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), mid);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), mid);
  // And the relative error vs the true value is bounded by bucket width.
  EXPECT_LT(std::abs(s.p50() - 1000.0) / 1000.0, 1.0);
}

TEST(MetricsHistogram, P50P99OrderedOnSkewedLoad) {
  Histogram h;
  for (int i = 0; i < 990; ++i) h.record(1000);
  for (int i = 0; i < 10; ++i) h.record(1'000'000);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_LE(s.p50(), s.p99());
  EXPECT_LE(s.p99(), s.p999());
  EXPECT_LT(s.p50(), 2048.0);       // within the 1000ns bucket's decade
  EXPECT_GT(s.p999(), 500'000.0);   // tail sees the slow samples
}

// --- sharded counters vs serial oracle --------------------------------------

TEST(MetricsCounter, FourRacingThreadsMatchSerialOracle) {
  Registry reg;
  Counter& c = reg.counter("nm_test_oracle_total");
  Histogram& h = reg.histogram("nm_test_oracle_ns");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 200'000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c, &h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1 + (i & 3));  // mixed increments, deterministic serial sum
        if ((i & 1023) == 0) h.record(100 + static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& t : ts) t.join();
  uint64_t oracle = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) oracle += 1 + (i & 3);
  EXPECT_EQ(c.value(), oracle * kThreads);
  // (i & 1023) == 0 fires at i = 0, 1024, ... -> ceil(kPerThread/1024) each.
  EXPECT_EQ(h.snapshot().total(), kThreads * ((kPerThread + 1023) / 1024));
}

TEST(MetricsCounter, SnapshotDuringChurnIsMonotone) {
  Registry reg;
  Counter& c = reg.counter("nm_test_churn_total");
  Gauge& g = reg.gauge("nm_test_churn_depth");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.add(1);
        g.add(1);
      }
    });
  }
  uint64_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    const telemetry::RegistrySnapshot snap = reg.snapshot();
    const telemetry::MetricValue* m = snap.find("nm_test_churn_total");
    ASSERT_NE(m, nullptr);
    // Counters are monotone: a snapshot racing increments can never run
    // backwards (each slot is read once, relaxed, and only ever grows).
    EXPECT_GE(m->counter, prev);
    prev = m->counter;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  EXPECT_EQ(reg.snapshot().find("nm_test_churn_total")->counter,
            static_cast<uint64_t>(
                reg.snapshot().find("nm_test_churn_depth")->gauge));
}

// --- registry ---------------------------------------------------------------

TEST(MetricsRegistry, TypeConflictThrows) {
  Registry reg;
  reg.counter("nm_test_dup");
  EXPECT_THROW(reg.gauge("nm_test_dup"), std::runtime_error);
  EXPECT_THROW(reg.histogram("nm_test_dup"), std::runtime_error);
  // Same name + same type is find-or-create, never a new object.
  Counter& a = reg.counter("nm_test_dup");
  Counter& b = reg.counter("nm_test_dup");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, PrometheusAndJsonExposition) {
  Registry reg;
  reg.counter("nm_test_hits_total", "hits").add(5);
  reg.gauge("nm_test_depth", "queue depth").set(7);
  Histogram& h = reg.histogram("nm_test_lat_ns", "latency");
  h.record(100);
  h.record(100);
  h.record(3000);
  const telemetry::RegistrySnapshot snap = reg.snapshot();

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE nm_test_hits_total counter"), std::string::npos);
  EXPECT_NE(prom.find("nm_test_hits_total 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nm_test_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("nm_test_depth 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nm_test_lat_ns histogram"), std::string::npos);
  // Cumulative buckets: le="127" covers the two 100ns samples, +Inf all 3.
  EXPECT_NE(prom.find("nm_test_lat_ns_bucket{le=\"127\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("nm_test_lat_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("nm_test_lat_ns_sum 3200"), std::string::npos);
  EXPECT_NE(prom.find("nm_test_lat_ns_count 3"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"nm_test_hits_total\":5"), std::string::npos);
  EXPECT_NE(json.find("\"nm_test_depth\":7"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ns\":"), std::string::npos);
}

// --- telemetry::Snapshot join -----------------------------------------------

TEST(TelemetrySnapshot, JoinsHealthSurfacesInBothFormats) {
  telemetry::Snapshot s;
  // Health surfaces only — the registry part may be empty.
  EngineHealth eh;
  eh.generation = 3;
  eh.in_backoff = true;
  eh.backoff_ms = 250;
  s.engine = eh;
  pipeline::FlowCache::Stats cs;
  cs.hits = 42;
  cs.misses = 8;
  cs.retained = 17;
  s.cache = cs;
  s.cache_entries = 10;
  s.cache_capacity = 1024;
  pipeline::PipelineHealth ph;
  ph.runtime.quarantines = 2;
  ph.replicas.resize(2);
  ph.replicas[1].state = pipeline::ReplicaHealth::State::kQuarantined;
  ph.replicas[1].quarantines = 1;
  s.pipeline = ph;

  const std::string prom = s.to_prometheus();
  EXPECT_NE(prom.find("nm_engine_generation 3"), std::string::npos);
  EXPECT_NE(prom.find("nm_engine_backoff_ms 250"), std::string::npos);
  EXPECT_NE(prom.find("nm_flowcache_hits_total 42"), std::string::npos);
  EXPECT_NE(prom.find("nm_flowcache_retained_total 17"), std::string::npos);
  EXPECT_NE(prom.find("nm_flowcache_capacity 1024"), std::string::npos);
  EXPECT_NE(prom.find("nm_runtime_quarantines_total 2"), std::string::npos);
  EXPECT_NE(prom.find("nm_replica_live{replica=\"0\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("nm_replica_live{replica=\"1\"} 0"), std::string::npos);
  EXPECT_NE(prom.find("nm_replica_quarantines_total{replica=\"1\"} 1"),
            std::string::npos);

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"engine\":{"), std::string::npos);
  EXPECT_NE(json.find("\"generation\":3"), std::string::npos);
  EXPECT_NE(json.find("\"flowcache\":{"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":42"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"quarantined\""), std::string::npos);
}

// The replicated join sums every replica's cache: a 2-replica run's
// nm_flowcache_hits_total is the sum of both caches' hits, and the
// capacity series is twice one cache's capacity (a join that read only one
// replica's graph undercounted both).
std::shared_ptr<OnlineNuevoMatch> make_online(const RuleSet& rules) {
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.auto_retrain = false;
  auto online = std::make_shared<OnlineNuevoMatch>(std::move(cfg));
  online->build(rules);
  return online;
}

/// TraceSource(zipf) -> FlowCache -> Classifier -> Sink, replicated twice
/// over one shared engine.
pipeline::ReplicatedGraph zipf_replicas(const RuleSet& rules,
                                        const std::vector<Packet>& trace,
                                        std::shared_ptr<OnlineNuevoMatch> online) {
  return pipeline::ReplicatedGraph(2, [&](uint32_t, uint32_t) {
    pipeline::Graph g;
    auto& src = g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
    auto& cache =
        g.add(std::make_unique<pipeline::FlowCacheElement>(1024), "cache");
    auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
    cls_owned->attach(online);
    cls_owned->set_actions(rules);
    auto& cls = g.add(std::move(cls_owned), "cls");
    auto& sink = g.add(std::make_unique<pipeline::Sink>(), "sink");
    g.connect(src, 0, cache);
    g.connect(cache, 0, cls);
    g.connect(cls, 0, sink);
    return g;
  });
}

std::vector<Packet> zipf_trace(const RuleSet& rules) {
  TraceConfig tc;
  tc.kind = TraceConfig::Kind::kZipf;
  tc.n_packets = 4'000;
  return generate_trace(rules, tc);
}

const pipeline::FlowCache& replica_cache(const pipeline::ReplicatedGraph& rg,
                                         size_t i) {
  return rg.replica(i).find_kind<pipeline::FlowCacheElement>()->cache();
}

TEST(TelemetrySnapshot, ReplicatedSnapshotSumsEveryReplica) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 300, 41);
  const std::vector<Packet> trace = zipf_trace(rules);
  pipeline::ReplicatedGraph rg = zipf_replicas(rules, trace, make_online(rules));
  pipeline::ReplicatedRunOptions opts;
  opts.threads = 2;
  ASSERT_EQ(rg.run(opts), trace.size());

  const uint64_t hits0 = replica_cache(rg, 0).stats().hits;
  const uint64_t hits1 = replica_cache(rg, 1).stats().hits;
  ASSERT_GT(hits0, 0u);
  ASSERT_GT(hits1, 0u);
  const std::string prom = telemetry::snapshot(rg).to_prometheus();
  EXPECT_NE(prom.find("\nnm_flowcache_hits_total " +
                      std::to_string(hits0 + hits1) + "\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\nnm_flowcache_capacity " +
                      std::to_string(2 * replica_cache(rg, 0).capacity()) +
                      "\n"),
            std::string::npos);
  EXPECT_NE(prom.find("nm_replica_live{replica=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("nm_engine_generation"), std::string::npos);
}

// --- MetricsExporter --------------------------------------------------------

/// One blocking scrape against the exporter's loopback listener (the
/// exporter thread accepts and answers it).
std::string scrape(int port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "socket failed";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string out;
  const std::string req = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, req.data(), req.size(), 0) == static_cast<ssize_t>(req.size())) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

TEST(MetricsExporter, ServesPrometheusAndJsonScrapes) {
  // Ensure at least one global-registry series exists for the scrape body.
  telemetry::registry()
      .counter("nm_test_scrape_total", "scrape-test marker")
      .add(9);

  const pipeline::Graph g{};
  pipeline::MetricsExporter exp({.port = 0},  // ephemeral
                                [&g] { return telemetry::snapshot(g); });
  ASSERT_GT(exp.port(), 0);

  const std::string prom = scrape(exp.port(), "/metrics");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("text/plain"), std::string::npos);
  EXPECT_NE(prom.find("nm_test_scrape_total 9"), std::string::npos);

  const std::string json = scrape(exp.port(), "/json");
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"nm_test_scrape_total\":"), std::string::npos);
  EXPECT_EQ(exp.scrapes(), 2u);
}

TEST(MetricsExporter, SecondExporterOnABoundPortThrows) {
  const pipeline::Graph g{};
  const auto source = [&g] { return telemetry::snapshot(g); };
  const pipeline::MetricsExporter first({.port = 0}, source);
  ASSERT_GT(first.port(), 0);
  EXPECT_THROW(pipeline::MetricsExporter({.port = first.port()}, source),
               std::runtime_error);
}

TEST(MetricsExporter, DumpsFileOnDestruction) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "nm_metrics_dump.prom")
          .string();
  std::remove(path.c_str());
  telemetry::registry().counter("nm_test_dump_total").add(1);
  {
    const pipeline::Graph g{};
    const pipeline::MetricsExporter exp(
        {.file = path, .interval_ms = 1'000'000},  // only the final dump fires
        [&g] { return telemetry::snapshot(g); });
    EXPECT_EQ(exp.dumps(), 0u);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("nm_test_dump_total"), std::string::npos);
  std::remove(path.c_str());
}

// The exporter thread scrapes live replicas: one scrape is made from the
// run's tick while the replicas fire, so the TSAN leg sees the exporter's
// snapshot race against the dataplane it reads.
TEST(MetricsExporter, ServesScrapesDuringReplicatedRun) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 300, 43);
  const std::vector<Packet> trace = zipf_trace(rules);
  pipeline::ReplicatedGraph rg = zipf_replicas(rules, trace, make_online(rules));
  const pipeline::MetricsExporter exp(
      {.port = 0}, [&rg] { return telemetry::snapshot(rg); });
  ASSERT_GT(exp.port(), 0);

  std::atomic<bool> scraped{false};
  std::string body;  // written once, by the tick that wins `scraped`
  pipeline::ReplicatedRunOptions opts;
  opts.threads = 2;
  opts.tick = [&](uint64_t) {
    if (!scraped.exchange(true)) body = scrape(exp.port(), "/metrics");
  };
  ASSERT_EQ(rg.run(opts), trace.size());

  EXPECT_EQ(exp.scrapes(), 1u);
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("nm_flowcache_hits_total"), std::string::npos);
  EXPECT_NE(body.find("nm_replica_live{replica=\"1\"} 1"), std::string::npos);
}

// --- instrumented pipeline populates latency histograms ---------------------
// (Compiled out under -DNM_METRICS=OFF: these two assert on the hot-path
// instrumentation the kill switch exists to strip.)
#if NM_METRICS

TEST(MetricsPipeline, BurstLatencyHistogramPopulated) {
  // Enough packets that the 1-in-32 burst sampler must fire: 256 bursts.
  std::vector<Packet> pkts(256 * pipeline::kBurstSize);
  for (size_t i = 0; i < pkts.size(); ++i) {
    pkts[i] = Packet{};
    pkts[i].field[0] = static_cast<uint32_t>(i);
  }
  pipeline::Graph g;
  auto& src = g.add(std::make_unique<pipeline::TraceSource>(std::move(pkts)));
  auto& snk = g.add(std::make_unique<pipeline::Sink>());
  g.connect(src, 0, snk);
  const uint64_t before =
      telemetry::registry().histogram("nm_pipeline_burst_ns").snapshot().total();
  const uint64_t n = g.run();
  EXPECT_EQ(n, 256u * pipeline::kBurstSize);
  const telemetry::HistogramSnapshot s =
      telemetry::registry().histogram("nm_pipeline_burst_ns").snapshot();
  EXPECT_GE(s.total(), before + 256 / 32);
  EXPECT_GT(s.p50(), 0.0);
  EXPECT_LE(s.p50(), s.p99());
  // The burst/packet counters advanced in lockstep with the run.
  EXPECT_GE(telemetry::registry().counter("nm_pipeline_packets_total").value(),
            n);
}

TEST(MetricsSampling, OneInNIsExact) {
  int fired = 0;
  for (int i = 0; i < 640; ++i)
    if (NM_SAMPLE_EVERY(64)) ++fired;
  EXPECT_EQ(fired, 10);
}

#endif  // NM_METRICS

}  // namespace
}  // namespace nuevomatch
