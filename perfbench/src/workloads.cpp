#include "workloads.hpp"

#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "classbench/generator.hpp"
#include "graph.hpp"
#include "layers.hpp"
#include "nuevomatch/online.hpp"
#include "trace/pcap.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace perfbench {
namespace {

using nuevomatch::NuevoMatch;
using nuevomatch::OnlineNuevoMatch;
using nuevomatch::TupleMerge;

constexpr size_t kBurst = 32;
/// The rule-sets are fixed, as the paper's ClassBench files are: --seed
/// draws the traffic and the update stream, not the rules.
constexpr uint64_t kRulesSeed = 1;

/// The oracle the timed runs check against: TupleMerge over the base rules
/// (an engine independent of NuevoMatch, itself checked against
/// LinearSearch), answering every trace packet. Update copies never change
/// an answer, so it holds under churn too.
struct Oracle {
  TupleMerge engine;
  std::vector<int32_t> answers;
  Oracle(std::span<const Rule> rules, std::span<const Packet> trace) {
    engine.build(rules);
    answers.reserve(trace.size());
    for (const Packet& p : trace) answers.push_back(engine.match(p).rule_id);
  }
};

/// Only churn-zipf retrains on its own; the writers of the other workloads
/// time plain commits (their traced runs force one retrain after).
nuevomatch::OnlineConfig online_config(bool auto_retrain) {
  nuevomatch::OnlineConfig c;
  c.base = nm_config();
  c.auto_retrain = auto_retrain;
  return c;
}

template <typename Engine>
std::vector<MatchResult> batched(const Engine& e, std::span<const Packet> pkts) {
  std::vector<MatchResult> out(pkts.size());
  for (size_t b = 0; b < pkts.size(); b += kBurst) {
    const size_t len = std::min(kBurst, pkts.size() - b);
    e.match_batch(pkts.subspan(b, len), std::span(out).subspan(b, len));
  }
  return out;
}

std::vector<MatchResult> per_key(const nuevomatch::Classifier& e, std::span<const Packet> pkts) {
  std::vector<MatchResult> out;
  out.reserve(pkts.size());
  for (const Packet& p : pkts) out.push_back(e.match(p));
  return out;
}

/// Before timing: the sample's answers must equal LinearSearch's exactly.
void require_match(const char* what, std::span<const int32_t> want,
                   std::span<const MatchResult> got, Result& res) {
  const uint64_t bad = mismatches(want, got);
  if (bad != 0)
    throw std::runtime_error(std::string("verification failed: ") + what + " differs from " +
                             "LinearSearch on " + std::to_string(bad) + " of " +
                             std::to_string(want.size()) + " sample packets");
  res.checked(want.size(), 0);
}

std::vector<Packet> sample_for(const Options& o, std::span<const Rule> rules,
                               std::span<const Packet> trace) {
  return verification_sample(rules, trace, o.smoke ? 256 : 1024, o.seed);
}

std::string capture_path(const Options& o) {
  return o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".pcap";
}

void write_capture(const std::string& path, std::span<const Packet> pkts) {
  if (!nuevomatch::write_pcap_packets(path, pkts))
    throw std::runtime_error("cannot write capture " + path);
}

void write_spans(const Options& o, std::initializer_list<std::pair<const char*, const Tracer*>> ts) {
  const std::string path =
      o.out_dir + "/spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const auto& [tag, t] : ts) t->write(f, tag);
  std::fclose(f);
  note("spans: %s", path.c_str());
}

/// The end-to-end metrics, in BENCHMARK.json order.
/// Both burst quantiles are taken per pass, the update p50 per writer
/// slice. The p50s are averaged over passes or slices: like the summed
/// rates, the mean moves in proportion to the run's mix of quiet and busy
/// host periods. The burst p99 is the median over passes, so a stall that
/// lifts the tail of a few passes does not move it.
void emit_end_to_end(Result& r, double mpps, double key_mpps, const std::vector<double>& burst_ns,
                     const std::vector<double>& pass_p50_ns,
                     const std::vector<double>& pass_p99_ns, const WriterStats& w,
                     const std::vector<double>& setup_s, double index_bytes) {
  std::string setups;
  for (const double s : setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4f", s);
    setups += buf;
  }
  note("samples: %zu bursts in %zu passes (pooled p99 %.2f us), %zu update commits, "
       "%zu set-ups (s:%s)",
       burst_ns.size(), pass_p99_ns.size(), quantile(burst_ns, 0.99) * 1e-3,
       w.update_us.size(), setup_s.size(), setups.c_str());
  // The update p99 is a report line and a traced-run metric, not a bounded
  // one: it rests on a few dozen commits, and host scheduling stalls move
  // it run to run by more than any bound allows.
  note("writer: update p99 %.1f us; lateness p50 %.1f us, p99 %.1f us, max %.1f us; commit "
       "call p50 %.1f us, p99 %.1f us; %llu swaps, %zu retrains timed (median %.3f s)",
       quantile(w.update_us, 0.99), quantile(w.late_us, 0.5), quantile(w.late_us, 0.99),
       quantile(w.late_us, 1.0),
       quantile(w.commit_us, 0.5), quantile(w.commit_us, 0.99),
       static_cast<unsigned long long>(w.swaps), w.retrain_s.size(), median(w.retrain_s));
  r.metric("mpps", mpps, "Mpps");
  r.metric("key_mpps", key_mpps, "Mpps");
  r.metric("burst_p50_us", mean(pass_p50_ns) * 1e-3, "us");
  r.metric("burst_p99_us", median(pass_p99_ns) * 1e-3, "us");
  r.metric("update_p50_us", mean(w.slice_p50_us), "us");
  r.metric("setup_s", median(setup_s), "s");
  r.metric("index_bytes", index_bytes, "bytes");
}

/// Everything the traced run measures, whatever the workload.
struct LayerReport {
  ReplayStats replay;
  double coverage = 0, window = 0, model_bytes = 0;  ///< of the replayed engine
  double tm_full_ns = 0, train_s = 0, remainder_build_s = 0, pcap_ns = 0;
  const GraphRun* graph = nullptr;
  WriterStats writer;
  double overhead = 0;  ///< 1 - traced/untraced rate on the workload's main path
};

/// The per-layer metrics, in BENCHMARK.json order.
void emit_layers(Result& r, const LayerReport& L) {
  const ReplayStats& rp = L.replay;
  const GraphRun& g = *L.graph;
  const double parts = rp.infer_ns + rp.search_ns + rp.validate_ns + rp.remainder_ns;

  const auto delivered = static_cast<double>(g.traced.delivered);
  const auto per_pkt = [&](Layer l) { return static_cast<double>(g.tracer.self_ns(l)) / delivered; };
  const double traced_burst_ns = static_cast<double>(g.tracer.total_ns(Layer::kBurst)) /
                                 static_cast<double>(g.tracer.spans(Layer::kBurst));
  const double untraced_burst_ns =
      std::accumulate(g.burst_ns.begin(), g.burst_ns.end(), 0.0) /
      static_cast<double>(g.burst_ns.size());
  const double other_ns = per_pkt(Layer::kBurst) + per_pkt(Layer::kVerify) +
                          per_pkt(Layer::kDispatch) + per_pkt(Layer::kSink);
  const nuevomatch::pipeline::FlowCache::Stats& cs = g.untraced.cache;
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  note("engine replay: match_batch %.1f ns/pkt untraced, staged %.1f traced; parts %.1f "
       "(infer %.1f + search %.1f + validate %.1f + remainder %.1f)",
       rp.whole_ns, rp.staged_ns, parts, rp.infer_ns, rp.search_ns, rp.validate_ns,
       rp.remainder_ns);
  note("graph: traced burst %.0f ns = sum of element self times; untraced burst %.0f ns; "
       "traced %.3f Mpps vs untraced %.3f Mpps",
       traced_burst_ns, untraced_burst_ns, g.traced_rate.mpps(), g.rate.mpps());
  note("graph self ns/pkt: source %.2f cache %.2f classifier %.2f verify %.2f dispatch %.2f "
       "sink %.2f burst glue %.2f",
       per_pkt(Layer::kSource), per_pkt(Layer::kCache), per_pkt(Layer::kClassifier),
       per_pkt(Layer::kVerify), per_pkt(Layer::kDispatch), per_pkt(Layer::kSink),
       per_pkt(Layer::kBurst));
  note("tracing overhead: %.2f%% of the untraced rate", L.overhead * 100.0);

  r.metric("rqrmi.infer_ns", rp.infer_ns, "ns");
  r.metric("isets.search_ns", rp.search_ns, "ns");
  r.metric("isets.validate_ns", rp.validate_ns, "ns");
  r.metric("isets.hit_ratio", rp.hit_ratio, "ratio");
  r.metric("isets.coverage", L.coverage, "ratio");
  r.metric("isets.window", L.window, "entries");
  r.metric("remainder.ns", rp.remainder_ns, "ns");
  r.metric("remainder.tables_admitted", rp.admitted, "tables");
  r.metric("remainder.tables", rp.tables, "tables");
  r.metric("remainder.win_ratio", rp.win_ratio, "ratio");
  r.metric("tuplemerge.full_ns", L.tm_full_ns, "ns");
  r.metric("nm.glue_ns", rp.whole_ns - parts, "ns");
  r.metric("nm.parts_ratio", parts / rp.whole_ns, "ratio");
  r.metric("rqrmi.train_s", L.train_s, "s");
  r.metric("remainder.build_s", L.remainder_build_s, "s");
  r.metric("rqrmi.model_bytes", L.model_bytes, "bytes");
  r.metric("pcap.read_ns", L.pcap_ns, "ns");
  r.metric("source.ns", per_pkt(Layer::kSource), "ns");
  r.metric("cache.probe_ns", per_pkt(Layer::kCache), "ns");
  r.metric("cache.hit_ratio", cs.hit_rate(), "ratio");
  r.metric("classifier.ns", per_pkt(Layer::kClassifier), "ns");
  r.metric("classifier.pkt_ratio",
           ratio(static_cast<double>(g.untraced.classified), static_cast<double>(g.untraced.delivered)),
           "ratio");
  r.metric("pipeline.other_ns", other_ns, "ns");
  r.metric("pipeline.parts_ratio", traced_burst_ns / untraced_burst_ns, "ratio");
  r.metric("replicate.walk_ratio",
           ratio(static_cast<double>(g.untraced.walked), static_cast<double>(g.untraced.delivered)),
           "ratio");
  r.metric("replicate.busy_ratio",
           ratio(static_cast<double>(g.tracer.total_ns(Layer::kBurst)),
                 static_cast<double>(g.threads) * static_cast<double>(g.traced_rate.ns)),
           "ratio");
  r.metric("sched.steals",
           ratio(static_cast<double>(g.steals), static_cast<double>(g.traced_passes)),
           "count/pass");
  r.metric("sched.idle_ratio",
           ratio(static_cast<double>(g.idle_fires), static_cast<double>(g.fires)), "ratio");
  r.metric("cache.stale_ratio",
           ratio(static_cast<double>(cs.stale), static_cast<double>(cs.lookups())), "ratio");
  r.metric("cache.retained_ratio",
           ratio(static_cast<double>(cs.retained), static_cast<double>(cs.hits)), "ratio");
  r.metric("online.commit_p50_us", quantile(L.writer.commit_us, 0.5), "us");
  r.metric("online.commit_p99_us", quantile(L.writer.commit_us, 0.99), "us");
  r.metric("online.update_p99_us", quantile(L.writer.update_us, 0.99), "us");
  r.metric("online.retrain_s", median(L.writer.retrain_s), "s");
  r.metric("online.swaps", static_cast<double>(L.writer.swaps), "count");
  r.metric("online.churn_rules", L.writer.churn_rules, "rules");
  r.metric("trace.overhead_ratio", L.overhead, "ratio");
}

/// The introspection half of the report, read off the replayed engine.
void describe(LayerReport& L, const NuevoMatch& nm) {
  L.coverage = nm.coverage();
  L.window = nm.max_search_error();
  for (const auto& is : nm.isets()) L.model_bytes += static_cast<double>(is.model_bytes());
}

/// Median TupleMerge build time over the remainder rule-set.
double remainder_build_s(const NuevoMatch& nm, int reps) {
  const std::vector<Rule> rem = nm.remainder_rules();
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    TupleMerge tm;
    const uint64_t t0 = now_ns();
    tm.build(rem);
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(s);
}

void note_engine(const NuevoMatch& nm, double setup_s) {
  note("engine: %s, %zu iSets, coverage %.4f, %zu remainder rules, %zu index bytes, "
       "set-up %.3f s",
       nm.name().c_str(), nm.isets().size(), nm.coverage(), nm.remainder_size(),
       nm.memory_bytes(), setup_s);
}

/// The untraced runs' writer on acl100k-uniform and pipeline-zipf. Commits
/// go to a second engine built from the same rules, in slices between the
/// read passes: no lookup runs beside them, and, spread over the whole run,
/// they see the same host conditions as the reads. Each slice lasts a
/// quarter of the reads before it, so a fifth of the run writes.
class SlicedWriter {
 public:
  SlicedWriter(std::span<const Rule> rules, uint64_t seed)
      : engine_(built_online(rules)), writer_(*engine_, rules, seed, kWriteOnlyPeriodNs) {}
  /// Call after each round of read passes.
  void slice() {
    const uint64_t now = now_ns();
    writer_.run_until(now + (now - reads_since_) / 4);
    reads_since_ = now_ns();
  }
  [[nodiscard]] WriterStats stats() const { return writer_.stats(); }

 private:
  static std::unique_ptr<OnlineNuevoMatch> built_online(std::span<const Rule> rules) {
    auto e = std::make_unique<OnlineNuevoMatch>(online_config(false));
    e->build(rules);
    return e;
  }
  std::unique_ptr<OnlineNuevoMatch> engine_;
  Writer writer_;
  uint64_t reads_since_ = now_ns();
};

void count_writer(Result& res, const WriterStats& w) {
  res.checked(w.offered, w.offered - w.accepted);
}

void count_graph(Result& res, const GraphRun& g) {
  res.checked(g.untraced.checked + g.traced.checked, g.untraced.wrong + g.traced.wrong);
}

double overhead(double untraced_rate, double traced_rate) {
  return untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0;
}

}  // namespace

Result run_acl_uniform(const Options& o) {
  const size_t n_rules = o.smoke ? 10'000 : 100'000;
  nuevomatch::TraceConfig tc;
  tc.kind = nuevomatch::TraceConfig::Kind::kUniform;
  tc.n_packets = o.smoke ? 16'384 : 262'144;
  tc.seed = o.seed + 1;
  const RuleSet rules =
      nuevomatch::generate_classbench(nuevomatch::AppClass::kAcl, 1, n_rules, kRulesSeed);
  const std::vector<Packet> trace = nuevomatch::generate_trace(rules, tc);
  note("inputs: ClassBench ACL1 %zu rules, uniform trace %zu packets", rules.size(),
       trace.size());

  // Set-up: engine build (RQ-RMI training + remainder build), repeated
  // after one untimed warm-up build.
  std::vector<double> setup_s;
  std::unique_ptr<NuevoMatch> nm;
  for (int i = -1; i < o.setup_reps(); ++i) {
    auto e = std::make_unique<NuevoMatch>(nm_config());
    const uint64_t t0 = now_ns();
    e->build(rules);
    if (i >= 0) setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    nm = std::move(e);
  }
  note_engine(*nm, median(setup_s));

  Result res;
  const Oracle oracle{rules, trace};
  {
    const std::vector<Packet> sample = sample_for(o, rules, trace);
    const std::vector<int32_t> want = linear_answers(rules, sample);
    require_match("NuevoMatch::match", want, per_key(*nm, sample), res);
    require_match("NuevoMatch::match_batch", want, batched(*nm, sample), res);
    require_match("TupleMerge (oracle)", want, per_key(oracle.engine, sample), res);
  }

  if (!o.trace) {
    // Closed loop on one thread. match_batch passes (32-packet bursts; each
    // call is one burst sample, each pass over the trace one rate sample,
    // decisions checked between calls, off the clock) alternate with
    // per-key passes, so both see the same host conditions.
    std::vector<MatchResult> out(trace.size());
    std::vector<double> burst_ns, pass_mpps, pass_p50_ns, pass_p99_ns;
    Rate rate;
    KeyPasses key{*nm, trace, oracle.answers, res};
    const auto pass = [&] {
      const size_t first = burst_ns.size();
      uint64_t pass_ns = 0;
      for (size_t b = 0; b < trace.size(); b += kBurst) {
        const size_t len = std::min(kBurst, trace.size() - b);
        const uint64_t t0 = now_ns();
        nm->match_batch(std::span(trace).subspan(b, len), std::span(out).subspan(b, len));
        const uint64_t dt = now_ns() - t0;
        pass_ns += dt;
        burst_ns.push_back(static_cast<double>(dt));
      }
      res.checked(trace.size(), mismatches(oracle.answers, out));
      rate.add(trace.size(), pass_ns);
      pass_mpps.push_back(static_cast<double>(trace.size()) * 1e3 / static_cast<double>(pass_ns));
      const std::vector<double> bursts{burst_ns.begin() + static_cast<std::ptrdiff_t>(first),
                                       burst_ns.end()};
      pass_p50_ns.push_back(quantile(bursts, 0.5));
      pass_p99_ns.push_back(quantile(bursts, 0.99));
    };
    pass();  // warm-up
    burst_ns.clear();
    pass_mpps.clear();
    pass_p50_ns.clear();
    pass_p99_ns.clear();
    rate = Rate{};
    SlicedWriter writer{rules, o.seed};
    const uint64_t deadline = o.deadline(1.0);
    do {
      pass();
      key.pass();
      writer.slice();
    } while (now_ns() < deadline);
    note("match_batch passes: %zu, Mpps p10 %.3f p50 %.3f p90 %.3f", pass_mpps.size(),
         quantile(pass_mpps, 0.1), quantile(pass_mpps, 0.5), quantile(pass_mpps, 0.9));
    const auto index_bytes = static_cast<double>(nm->memory_bytes());
    const WriterStats w = writer.stats();
    count_writer(res, w);
    emit_end_to_end(res, rate.mpps(), key.mpps(), burst_ns, pass_p50_ns, pass_p99_ns, w, setup_s,
                    index_bytes);
    return res;
  }

  LayerReport L;
  describe(L, *nm);
  L.remainder_build_s = remainder_build_s(*nm, 3);
  L.train_s = median(setup_s) - L.remainder_build_s;
  Tracer engine_tr;
  L.replay = engine_replay(*nm, trace, o.deadline(0.3), engine_tr);
  res.checked(L.replay.checked, L.replay.wrong);
  L.overhead = overhead(1.0 / L.replay.whole_ns, 1.0 / L.replay.staged_ns);
  KeyPasses tm_passes{oracle.engine, trace, oracle.answers, res};
  tm_passes.until(o.deadline(0.05));
  L.tm_full_ns = 1e3 / tm_passes.mpps();
  {
    // This workload reads no capture; the probe reads its trace from one.
    std::vector<Packet> frames = trace;
    sanitize_for_pcap(frames);
    const std::string path = capture_path(o);
    write_capture(path, frames);
    L.pcap_ns = pcap_read_ns(path, o.deadline(0.05));
    std::remove(path.c_str());
  }
  // The same traffic through the dataplane graph, for the graph layers.
  auto online = std::make_shared<OnlineNuevoMatch>(online_config(false));
  online->adopt(std::move(*nm));
  GraphSpec spec;
  spec.trace = &trace;
  spec.cache_capacity = 65536;
  spec.dispatch = true;
  spec.engine = online;
  spec.rules = rules;
  spec.oracle = oracle.answers;
  const GraphRun g = run_plain(spec, true, o.deadline(0.25));
  count_graph(res, g);
  L.graph = &g;
  L.writer = run_writer(*online, rules, o.seed, kWriteOnlyPeriodNs, o.deadline(0.3));
  timed_retrain(*online, L.writer);
  count_writer(res, L.writer);
  emit_layers(res, L);
  write_spans(o, {{"engine", &engine_tr}, {"graph", &g.tracer}});
  return res;
}

namespace {

/// pipeline-zipf and churn-zipf: the same rules, zipf trace and engine.
Result run_zipf(const Options& o, bool churn) {
  const size_t n_rules = o.smoke ? 5'000 : 50'000;
  nuevomatch::TraceConfig tc;
  tc.kind = nuevomatch::TraceConfig::Kind::kZipf;
  tc.zipf_alpha = 1.1;
  tc.n_packets = o.smoke ? 65'536 : 1'048'576;
  tc.seed = o.seed + 1;
  const RuleSet rules =
      nuevomatch::generate_classbench(nuevomatch::AppClass::kAcl, 2, n_rules, kRulesSeed);
  std::vector<Packet> trace = nuevomatch::generate_trace(rules, tc);
  sanitize_for_pcap(trace);
  const std::string pcap = capture_path(o);
  if (!churn || o.trace) write_capture(pcap, trace);
  note("inputs: ClassBench ACL2 %zu rules, zipf(%.2f) trace %zu packets%s", rules.size(),
       tc.zipf_alpha, trace.size(), churn ? "" : ", written to a capture");
  const Oracle oracle{rules, trace};

  GraphSpec spec;
  if (churn) {
    spec.trace = &trace;
  } else {
    spec.pcap = pcap;
  }
  spec.cache_capacity = churn ? 8192 : 65536;
  spec.dispatch = !churn;
  spec.rules = rules;
  spec.oracle = oracle.answers;
  const uint32_t replicas = churn ? 1 : 2;

  // Set-up: engine build plus graph construction, repeated after one
  // untimed warm-up.
  std::vector<double> setup_s, engine_s;
  std::shared_ptr<OnlineNuevoMatch> online;
  for (int i = -1; i < o.setup_reps(); ++i) {
    auto e = std::make_shared<OnlineNuevoMatch>(online_config(churn));
    const uint64_t t0 = now_ns();
    e->build(rules);
    const uint64_t t1 = now_ns();
    spec.engine = e;
    const double graph_s = graph_construction_s(spec, replicas);
    if (i >= 0) {
      engine_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      setup_s.push_back(engine_s.back() + graph_s);
    }
    online = std::move(e);
  }
  spec.engine = online;

  Result res;
  {
    const auto pin = online->pin();
    note_engine(pin.nm(), median(setup_s));
    const std::vector<Packet> sample = sample_for(o, rules, trace);
    const std::vector<int32_t> want = linear_answers(rules, sample);
    require_match("OnlineNuevoMatch::match", want, per_key(*online, sample), res);
    require_match("OnlineNuevoMatch::match_batch", want, batched(*online, sample), res);
    require_match("TupleMerge (oracle)", want, per_key(oracle.engine, sample), res);
  }

  // Graph passes; on churn-zipf the writer commits alongside them.
  const auto run_graph = [&](bool traced, double share, WriterStats& w,
                            const std::function<void()>& between) {
    const uint64_t deadline = o.deadline(share);
    if (!churn) return run_replicated(spec, replicas, traced, deadline, between);
    std::jthread writer{[&] { w = run_writer(*online, rules, o.seed, kChurnPeriodNs, deadline); }};
    GraphRun g = run_plain(spec, traced, deadline, between);
    writer.join();
    return g;
  };

  if (!o.trace) {
    // Per-key passes interleave with the graph passes (on churn-zipf, while
    // the writer commits; on pipeline-zipf, followed by a writer slice).
    const auto index_bytes = static_cast<double>(online->memory_bytes());
    KeyPasses key{*online, trace, oracle.answers, res};
    std::optional<SlicedWriter> sliced;
    if (!churn) sliced.emplace(rules, o.seed);
    WriterStats w;
    const GraphRun g = run_graph(false, 1.0, w, [&] {
      key.pass();
      if (sliced) sliced->slice();
    });
    count_graph(res, g);
    if (sliced) w = sliced->stats();
    count_writer(res, w);
    note("graph: %zu passes, cache hit ratio %.4f, classified/delivered %.4f",
         g.pass_p50_ns.size(), g.untraced.cache.hit_rate(),
         static_cast<double>(g.untraced.classified) / static_cast<double>(g.untraced.delivered));
    emit_end_to_end(res, g.rate.mpps(), key.mpps(), g.burst_ns, g.pass_p50_ns, g.pass_p99_ns, w,
                    setup_s, index_bytes);
    if (!churn) std::remove(pcap.c_str());
    return res;
  }

  LayerReport L;
  Tracer engine_tr;
  const std::span<const Packet> prefix =
      std::span(trace).first(std::min<size_t>(trace.size(), 262'144));
  {
    const auto pin = online->pin();
    describe(L, pin.nm());
    L.remainder_build_s = remainder_build_s(pin.nm(), 3);
    L.train_s = median(engine_s) - L.remainder_build_s;
    L.replay = engine_replay(pin.nm(), prefix, o.deadline(0.15), engine_tr);
  }
  res.checked(L.replay.checked, L.replay.wrong);
  KeyPasses tm_passes{oracle.engine, prefix, std::span(oracle.answers).first(prefix.size()),
                      res};
  tm_passes.until(o.deadline(0.05));
  L.tm_full_ns = 1e3 / tm_passes.mpps();
  L.pcap_ns = pcap_read_ns(pcap, o.deadline(0.05));

  const GraphRun g = run_graph(true, churn ? 0.75 : 0.45, L.writer, {});
  std::remove(pcap.c_str());
  count_graph(res, g);
  L.graph = &g;
  L.overhead = overhead(g.rate.mpps(), g.traced_rate.mpps());
  if (!churn) {
    L.writer = run_writer(*online, rules, o.seed, kWriteOnlyPeriodNs, o.deadline(0.3));
    timed_retrain(*online, L.writer);
  }
  count_writer(res, L.writer);
  emit_layers(res, L);
  write_spans(o, {{"engine", &engine_tr}, {"graph", &g.tracer}});
  return res;
}

}  // namespace

Result run_pipeline_zipf(const Options& o) { return run_zipf(o, false); }
Result run_churn_zipf(const Options& o) { return run_zipf(o, true); }

}  // namespace perfbench
