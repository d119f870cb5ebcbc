// End-to-end dataplane pipeline benchmark -> BENCH_pipeline.json.
//
// Measures the full element-graph path the serving scenarios use —
//
//   TraceSource -> FlowCache(C) -> Classifier(OnlineNuevoMatch) -> Sink
//
// — in packets/second over a skewed (zipf) trace, as a function of the
// flow-cache capacity (capacity 0 = no cache element at all), in two
// regimes:
//
//   (a) steady state: rules frozen; the cache converges to the skew's
//       working set and the classifier only sees the miss residue (the
//       paper's §5.2 OVS argument, now measured through the real pipeline
//       rather than simulated);
//   (b) during churn: a writer thread commits insert/erase bursts and
//       periodic forced retrain/swap cycles the whole run. Every commit
//       bumps the coherence stamp and invalidates the cache — the hit-rate
//       collapse and the `stale` column price exactly what update
//       coherence costs, which an incoherent cache would silently skip
//       (and serve wrong answers instead).
//
//   $ ./bench_pipeline            (NM_BENCH_SCALE=full for paper sizes)
#include <atomic>
#include <thread>

#include "bench_common.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/replicate.hpp"

using namespace nuevomatch;
using namespace nuevomatch::bench;

namespace {

struct RunResult {
  double mpps = 0.0;
  double hit_rate = 0.0;
  uint64_t stale = 0;
  uint64_t retained = 0;  ///< hits on entries that survived >=1 commit
  uint64_t future = 0;    ///< hits on entries fresher than the probe's view
};

/// The one graph shape every section runs: TraceSource -> FlowCache(C) ->
/// Classifier(online) -> Sink, or TraceSource -> Classifier -> Sink when
/// `cache_capacity` is 0. The element pointers stay valid while `g` lives
/// (a Graph owns its elements through unique_ptr, so moving it keeps them).
struct BenchGraph {
  pipeline::Graph g;
  pipeline::TraceSource* src = nullptr;
  pipeline::FlowCacheElement* cache = nullptr;  ///< null without a cache
};

BenchGraph build_graph(const std::shared_ptr<OnlineNuevoMatch>& online,
                       const std::vector<Packet>& trace,
                       size_t cache_capacity) {
  BenchGraph b;
  b.src = &b.g.add(std::make_unique<pipeline::TraceSource>(trace), "src");
  pipeline::Element* upstream = b.src;
  if (cache_capacity > 0) {
    b.cache = &b.g.add(
        std::make_unique<pipeline::FlowCacheElement>(cache_capacity), "cache");
    b.g.connect(*b.src, 0, *b.cache);
    upstream = b.cache;
  }
  auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
  cls_owned->attach(online);
  auto& cls = b.g.add(std::move(cls_owned), "cls");
  auto& sink = b.g.add(std::make_unique<pipeline::Sink>(), "sink");
  b.g.connect(*upstream, 0, cls);
  b.g.connect(cls, 0, sink);
  return b;
}

/// Build the graph, pump the trace `reps + 1` times (first pass warms the
/// model caches AND the flow cache). Steady state reports the best measured
/// pass (standard bench methodology); during churn it reports the MEAN over
/// the measured passes — best-of would systematically pick the pass where
/// the concurrent writer happened to be inside a retrain quiesce, i.e. the
/// least-churned window. Stats (hit rate / stale) are per-pass deltas over
/// exactly the window(s) the throughput number describes.
RunResult run_pipeline(const std::shared_ptr<OnlineNuevoMatch>& online,
                       const std::vector<Packet>& trace, size_t cache_capacity,
                       int reps, bool mean_of_passes) {
  BenchGraph b = build_graph(online, trace, cache_capacity);

  RunResult out;
  double best_ns = 1e300;
  double sum_ns = 0.0;
  uint64_t sum_pkts = 0;
  // Per-pass deltas via Stats::operator-; rates via Stats::hit_rate(), whose
  // denominator lookups() = hits + misses + stale is the single accounting
  // every consumer of these numbers shares.
  pipeline::FlowCache::Stats sum{}, best{};
  for (int pass = 0; pass <= reps; ++pass) {
    b.src->rewind();
    const pipeline::FlowCache::Stats s0 =
        b.cache != nullptr ? b.cache->cache().stats()
                           : pipeline::FlowCache::Stats{};
    const uint64_t t0 = now_ns();
    const uint64_t n = b.g.run();
    const uint64_t t1 = now_ns();
    if (pass == 0) continue;  // warm-up (model caches AND the flow cache)
    const pipeline::FlowCache::Stats s1 =
        b.cache != nullptr ? b.cache->cache().stats()
                           : pipeline::FlowCache::Stats{};
    const pipeline::FlowCache::Stats d = s1 - s0;
    sum_ns += static_cast<double>(t1 - t0);
    sum_pkts += n;
    sum.hits += d.hits;
    sum.misses += d.misses;
    sum.stale += d.stale;
    sum.retained += d.retained;
    sum.future += d.future;
    const double ns = static_cast<double>(t1 - t0) / static_cast<double>(n);
    if (ns < best_ns) {
      best_ns = ns;
      best = d;
    }
  }
  const pipeline::FlowCache::Stats& pick = mean_of_passes ? sum : best;
  out.mpps = mean_of_passes ? static_cast<double>(sum_pkts) * 1e3 / sum_ns
                            : mpps(best_ns);
  out.hit_rate = pick.lookups() == 0 ? 0.0 : pick.hit_rate();
  out.stale = pick.stale;
  out.retained = pick.retained;
  out.future = pick.future;
  return out;
}

/// (c) per-core scaling: the same graph shape replicated N ways — RSS split
/// across the sources, per-replica flow caches, one shared engine — driven
/// by the Click-style scheduler on N threads. A ReplicatedGraph run is
/// one-shot, so every pass builds a fresh instance (flow caches start cold
/// each pass; the model caches stay warm after the first).
double run_replicated(const std::shared_ptr<OnlineNuevoMatch>& online,
                      const std::vector<Packet>& trace, size_t cache_capacity,
                      size_t threads, int reps) {
  double best_ns = 1e300;
  for (int pass = 0; pass <= reps; ++pass) {
    pipeline::ReplicatedGraph rg{
        static_cast<uint32_t>(threads), [&](uint32_t, uint32_t) {
          return build_graph(online, trace, cache_capacity).g;
        }};
    pipeline::ReplicatedRunOptions ropts;
    ropts.threads = threads;
    const uint64_t t0 = now_ns();
    const uint64_t n = rg.run(ropts);
    const uint64_t t1 = now_ns();
    if (pass == 0) continue;  // model-cache warm-up
    const double ns = static_cast<double>(t1 - t0) / static_cast<double>(n);
    if (ns < best_ns) best_ns = ns;
  }
  return mpps(best_ns);
}

/// (d) fault recovery: the same replicated graph, supervised with
/// SupervisorPolicy::kQuarantine, with a replica crash injected mid-stream
/// through the pipeline.task.fire failpoint. Reports throughput over the
/// whole run (crash + recovery included) and the supervisor's measured
/// recovery latency (quiesce -> re-steer -> drain -> rejoin, from
/// PipelineHealth::recovery_ns). `crash_fire == 0` runs the same supervised
/// configuration with no failpoint armed — the baseline that prices the
/// supervision machinery itself (the pump closure's pause checks).
struct FaultResult {
  double mpps = 0.0;
  double recovery_us = 0.0;  ///< mean over measured passes
  uint64_t quarantines = 0;
  uint64_t rejoins = 0;
  uint64_t drained = 0;
};

FaultResult run_fault_recovery(const std::shared_ptr<OnlineNuevoMatch>& online,
                               const std::vector<Packet>& trace,
                               size_t cache_capacity, size_t threads,
                               uint64_t crash_fire, int reps) {
  FaultResult out;
  double sum_ns = 0.0;
  double sum_recovery_ns = 0.0;
  uint64_t sum_pkts = 0;
  int measured = 0;
  for (int pass = 0; pass <= reps; ++pass) {
    // The nth counter is consumed by the crash, so each pass re-arms it.
    if (crash_fire > 0)
      failpoint::arm(failpoint::kPipelineTaskFire,
                     failpoint::Trigger::nth(crash_fire));
    pipeline::ReplicatedGraph rg{
        static_cast<uint32_t>(threads), [&](uint32_t, uint32_t) {
          return build_graph(online, trace, cache_capacity).g;
        }};
    pipeline::ReplicatedRunOptions ropts;
    ropts.threads = threads;
    ropts.policy = pipeline::SupervisorPolicy::kQuarantine;
    const uint64_t t0 = now_ns();
    const uint64_t n = rg.run(ropts);
    const uint64_t t1 = now_ns();
    failpoint::disarm(failpoint::kPipelineTaskFire);
    if (pass == 0) continue;  // model-cache warm-up
    ++measured;
    sum_ns += static_cast<double>(t1 - t0);
    sum_pkts += n;
    const pipeline::PipelineHealth ph = rg.health();
    sum_recovery_ns += static_cast<double>(ph.recovery_ns);
    for (const pipeline::ReplicaHealth& rh : ph.replicas) {
      out.quarantines += rh.quarantines;
      out.rejoins += rh.rejoins;
      out.drained += rh.drained_entries;
    }
  }
  // Mean, not best-of: best-of a crash run would pick the pass where the
  // crash landed latest (least re-classified residue) and undersell the
  // recovery cost the section exists to price.
  out.mpps = sum_ns > 0.0 ? static_cast<double>(sum_pkts) * 1e3 / sum_ns : 0.0;
  out.recovery_us = measured > 0 ? sum_recovery_ns / measured / 1e3 : 0.0;
  return out;
}

}  // namespace

int main() {
  const Scale s = bench_scale();
  print_header("Pipeline: end-to-end element graph (cache -> classifier)",
               "ISSUE 5 (dataplane pipeline); paper §5.2 cache-miss path");

  const size_t n_rules = s.full ? 500'000 : 50'000;
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, n_rules, 3);
  TraceConfig tc;
  tc.kind = TraceConfig::Kind::kZipf;
  tc.zipf_alpha = 1.1;
  tc.n_packets = s.trace_len;
  const std::vector<Packet> trace = generate_trace(rules, tc);

  OnlineConfig ocfg;
  ocfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  ocfg.base.min_iset_coverage = 0.05;
  ocfg.auto_retrain = false;  // churn section forces retrains explicitly
  auto online = std::make_shared<OnlineNuevoMatch>(ocfg);
  online->build(rules);

  BenchJson json{"pipeline"};
  const size_t caps[] = {0, 1024, 8192, 65536};

  // (a) steady state ---------------------------------------------------------
  std::printf("\n(a) steady state, zipf(%.2f) x %zu packets, %zu rules\n",
              tc.zipf_alpha, trace.size(), rules.size());
  std::printf("%-14s %10s %12s\n", "flow cache", "Mpps", "hit rate");
  for (const size_t cap : caps) {
    const RunResult r = run_pipeline(online, trace, cap, s.reps, /*mean_of_passes=*/false);
    const std::string label = cap == 0 ? "none" : std::to_string(cap);
    std::printf("%-14s %10.2f %11.1f%%\n", label.c_str(), r.mpps,
                r.hit_rate * 100);
    json.row()
        .set("section", "steady")
        .set("cache", label)
        .set("mpps", r.mpps)
        .set("hit_rate", r.hit_rate);
  }

  // (b) during churn ---------------------------------------------------------
  // A writer commits 64-op insert+erase bursts back-to-back and forces a
  // retrain/swap every 64 bursts; the pipeline classifies the same trace
  // throughout. Inserted rules carry strictly-worse priorities, so the
  // decision stream stays comparable across rows.
  std::printf("\n(b) during churn (batched writer + forced retrain swaps)\n");
  std::printf("%-14s %10s %12s %10s %10s %9s %8s\n", "flow cache", "Mpps",
              "hit rate", "stale", "retained", "updates", "swaps");
  for (const size_t cap : caps) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> updates{0};
    const uint64_t gen0 = online->generations();
    std::thread writer{[&] {
      std::vector<Rule> burst(64);
      std::vector<uint32_t> ids(64);
      uint32_t next_id = 50'000'000;
      uint64_t bursts = 0;
      Rng rng{17};
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t i = 0; i < burst.size(); ++i) {
          burst[i] = rules[rng.below(rules.size())];
          burst[i].id = next_id;
          burst[i].priority = 8'000'000 + static_cast<int32_t>(next_id % 1024);
          ids[i] = next_id++;
        }
        updates.fetch_add(online->insert_batch(burst), std::memory_order_relaxed);
        updates.fetch_add(online->erase_batch(ids), std::memory_order_relaxed);
        // Fire-and-forget: the background worker trains while commits keep
        // landing (quiescing here would park the writer for whole retrains
        // and leave the measured window churn-free).
        if (++bursts % 64 == 0) online->retrain_now();
      }
    }};
    const RunResult r = run_pipeline(online, trace, cap, s.reps, /*mean_of_passes=*/true);
    stop.store(true);
    writer.join();
    online->quiesce();
    const uint64_t swaps = online->generations() - gen0;
    const std::string label = cap == 0 ? "none" : std::to_string(cap);
    std::printf("%-14s %10.2f %11.1f%% %10llu %10llu %8.2gM %8llu\n",
                label.c_str(), r.mpps, r.hit_rate * 100,
                static_cast<unsigned long long>(r.stale),
                static_cast<unsigned long long>(r.retained),
                static_cast<double>(updates.load()) / 1e6,
                static_cast<unsigned long long>(swaps));
    json.row()
        .set("section", "churn")
        .set("cache", label)
        .set("mpps", r.mpps)
        .set("hit_rate", r.hit_rate)
        .set("stale", static_cast<size_t>(r.stale))
        .set("bands", static_cast<size_t>(OnlineNuevoMatch::kCoherenceBands))
        .set("retained", static_cast<size_t>(r.retained))
        .set("future", static_cast<size_t>(r.future))
        .set("updates", static_cast<size_t>(updates.load()))
        .set("swaps", static_cast<size_t>(swaps));
  }

  // (c) per-core scaling -----------------------------------------------------
  // N pipeline replicas on N scheduler threads, one shared engine. Scaling
  // is bounded by the host's hardware threads (printed below and recorded
  // as hw_cores): threads beyond them time-slice and show overhead, not
  // speedup.
  const unsigned hw_cores = std::thread::hardware_concurrency();
  std::printf("\n(c) per-core scaling (replicated graph, cache 65536, "
              "%u hardware core%s)\n",
              hw_cores, hw_cores == 1 ? "" : "s");
  std::printf("%-10s %10s %12s\n", "threads", "Mpps", "vs 1-thread");
  double mpps_1 = 0.0;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    const double m = run_replicated(online, trace, 65536, threads, s.reps);
    if (threads == 1) mpps_1 = m;
    const double scale = mpps_1 > 0.0 ? m / mpps_1 : 0.0;
    std::printf("%-10zu %10.2f %11.2fx\n", threads, m, scale);
    json.row()
        .set("section", "scaling")
        .set("threads", threads)
        .set("hw_cores", static_cast<size_t>(hw_cores))
        .set("mpps", m)
        .set("scale_vs_1", scale);
  }

  // (d) fault recovery -------------------------------------------------------
  // Two replicas, two scheduler threads, quarantine supervision. "clean" is
  // the supervised run with no fault armed (prices the supervision overhead
  // against section (c)'s unsupervised 2-thread row); "crash" injects one
  // replica death mid-stream via pipeline.task.fire and measures whole-run
  // throughput WITH the quarantine -> re-steer -> drain -> rejoin ladder
  // inside the timed window, plus the supervisor's own recovery-latency
  // measurement. The crash lands at the 3rd scheduled fire, i.e. after the
  // pipeline is flowing but with most of the trace still ahead — worst case
  // for the re-steered survivors.
  std::printf("\n(d) fault recovery (2 replicas, quarantine + rejoin, "
              "cache 65536)\n");
  std::printf("%-10s %10s %14s %13s %9s %9s\n", "mode", "Mpps", "recovery us",
              "quarantines", "rejoins", "drained");
  for (const uint64_t crash_fire : {uint64_t{0}, uint64_t{3}}) {
    const FaultResult f =
        run_fault_recovery(online, trace, 65536, 2, crash_fire, s.reps);
    const char* mode = crash_fire == 0 ? "clean" : "crash";
    std::printf("%-10s %10.2f %14.1f %13llu %9llu %9llu\n", mode, f.mpps,
                f.recovery_us, static_cast<unsigned long long>(f.quarantines),
                static_cast<unsigned long long>(f.rejoins),
                static_cast<unsigned long long>(f.drained));
    json.row()
        .set("section", "fault")
        .set("mode", std::string{mode})
        .set("mpps", f.mpps)
        .set("recovery_us", f.recovery_us)
        .set("quarantines", static_cast<size_t>(f.quarantines))
        .set("rejoins", static_cast<size_t>(f.rejoins))
        .set("drained", static_cast<size_t>(f.drained));
  }

  // (e) telemetry overhead ---------------------------------------------------
  // The same steady-state single-graph run (cache 8192) with the hot-path
  // instrumentation ON vs gated OFF at runtime. The DESIGN.md "Telemetry"
  // budget is <=2% — this row is the evidence. Honest caveat: the runtime
  // gate still costs one relaxed bool load per instrumented site; the true
  // zero is -DNM_METRICS=OFF, which compiles those sites out entirely and
  // cannot be measured from inside one binary.
  std::printf("\n(e) telemetry overhead (steady state, cache 8192)\n");
  std::printf("%-14s %10s %12s\n", "metrics", "Mpps", "overhead");
  // A delta this small drowns in single-core machine-state drift if one arm
  // always runs first — interleave the arms (on/off rounds back to back)
  // and take each arm's best, so both sample the same thermal/scheduling
  // conditions and best-of discards the unlucky rounds.
  RunResult t_on{}, t_off{};
  for (int round = 0; round < 4; ++round) {
    telemetry::set_metrics_enabled(true);
    const RunResult a = run_pipeline(online, trace, 8192, s.reps, false);
    if (a.mpps > t_on.mpps) t_on = a;
    telemetry::set_metrics_enabled(false);
    const RunResult b = run_pipeline(online, trace, 8192, s.reps, false);
    if (b.mpps > t_off.mpps) t_off = b;
  }
  telemetry::set_metrics_enabled(true);
  const double overhead_pct =
      t_off.mpps > 0.0 ? (t_off.mpps - t_on.mpps) / t_off.mpps * 100.0 : 0.0;
  std::printf("%-14s %10.2f %11s\n", "on", t_on.mpps, "-");
  std::printf("%-14s %10.2f %11.2f%%\n", "off (runtime)", t_off.mpps,
              overhead_pct);
  json.row()
      .set("section", "telemetry")
      .set("metrics", std::string{"on"})
      .set("mpps", t_on.mpps);
  json.row()
      .set("section", "telemetry")
      .set("metrics", std::string{"off"})
      .set("mpps", t_off.mpps)
      .set("overhead_pct", overhead_pct);

  if (json.write("BENCH_pipeline.json"))
    std::printf("\nwrote BENCH_pipeline.json\n");
  std::printf("(%u hardware threads on this host; during-churn rows run the\n"
              " pipeline thread and the churn writer side by side)\n",
              std::thread::hardware_concurrency());
  return 0;
}
