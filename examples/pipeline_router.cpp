// Dataplane pipeline router: pcap in -> per-packet decisions out.
//
// Assembles the Click-style element graph from a textual config —
//
//   src   :: PcapSource(<trace.pcap>);
//   cache :: FlowCache(<capacity>);
//   cls   :: Classifier(<acl.rules>, manual);
//   disp  :: Dispatch(permit, deny);
//   src -> cache -> cls -> disp;
//   disp[0] -> Counter(permit) -> permit_sink;
//   disp[1] -> deny_sink;
//
// — runs the capture through it while forcing THREE background
// retrain/swap cycles mid-stream (the flow cache must stay coherent across
// every one), then differentially verifies each emitted decision against a
// scalar NuevoMatch::match oracle over the same rules. Exit status is the
// verification result, so CI can run this binary as a smoke test on the
// checked-in golden pcap:
//
// With a thread count, the SAME config is additionally replicated that many
// ways (RSS five-tuple split across the sources, per-replica flow caches,
// one shared engine) and run on a Click-style task scheduler — the merged
// replica decisions must be packet-for-packet identical to the scalar run:
//
// With --metrics the run also emits a final telemetry snapshot of the last
// graph run (registry counters/histograms joined with engine health and the
// flow-cache stats summed over every cache; the replicated run adds the
// replica layer):
//   --metrics         Prometheus text to stdout at exit
//   --metrics=FILE    dump to FILE at exit (JSON if FILE ends in .json)
//   --metrics=PORT    also serve live scrapes on 127.0.0.1:PORT from one
//                     MetricsExporter thread, which snapshots whichever
//                     graph is running (snapshot still printed at exit)
//
//   $ ./example_pipeline_router trace.pcap acl.rules [cache_capacity] [threads]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "classbench/parser.hpp"
#include "common/failpoint.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/metrics_exporter.hpp"
#include "pipeline/replicate.hpp"
#include "pipeline/telemetry.hpp"
#include "trace/pcap.hpp"
#include "tuplemerge/tuplemerge.hpp"

using namespace nuevomatch;

namespace {

bool all_digits(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

int main(int argc, char** argv) {
  // Flag scan first; positionals keep their historical order.
  bool metrics = false;
  std::string metrics_arg;  // "" = stdout; digits = port; else = file path
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--metrics") {
      metrics = true;
    } else if (a.rfind("--metrics=", 0) == 0) {
      metrics = true;
      metrics_arg = a.substr(10);
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() < 2 || pos.size() > 4) {
    std::fprintf(stderr,
                 "usage: %s <trace.pcap> <acl.rules> [cache_capacity] [threads]"
                 " [--metrics[=file|port]]\n",
                 argv[0]);
    return 2;
  }
  const std::string pcap_path = pos[0];
  const std::string rules_path = pos[1];
  const size_t cache_cap =
      pos.size() >= 3 ? std::strtoull(pos[2], nullptr, 10) : 8192;
  const size_t n_threads = pos.size() == 4 ? std::strtoull(pos[3], nullptr, 10) : 1;
  const bool metrics_port = metrics && all_digits(metrics_arg);

  // --- assemble the graph from config text --------------------------------
  const std::string config =
      "src   :: PcapSource(" + pcap_path + ");\n"
      "cache :: FlowCache(" + std::to_string(cache_cap) + ");\n"
      "cls   :: Classifier(" + rules_path + ", manual);\n"
      "disp  :: Dispatch(permit, deny);\n"
      "permit_sink :: Sink(record);\n"
      "deny_sink   :: Sink(record);\n"
      "src -> cache -> cls -> disp;\n"
      "disp[0] -> Counter(permit) -> permit_sink;\n"
      "disp[1] -> deny_sink;\n";
  std::printf("pipeline config:\n%s\n", config.c_str());

  pipeline::Graph graph = pipeline::Graph::parse(config);
  auto* cls = graph.find_kind<pipeline::ClassifierElement>();
  OnlineNuevoMatch* online = cls->online();

  // --- telemetry: one snapshot source, one exporter for the process --------
  // The source follows whichever graph is running: the scalar graph, then
  // the replicated one once it exists. Both graphs outlive the exporter
  // (declared after them), whose destructor takes a last snapshot.
  std::unique_ptr<pipeline::ReplicatedGraph> rg;
  std::atomic<const pipeline::ReplicatedGraph*> live_rg{nullptr};
  const auto live_snapshot = [&] {
    const pipeline::ReplicatedGraph* r = live_rg.load(std::memory_order_acquire);
    return r != nullptr ? telemetry::snapshot(*r) : telemetry::snapshot(graph);
  };
  std::optional<pipeline::MetricsExporter> exporter;
  if (metrics_port) {
    try {
      exporter.emplace(pipeline::MetricsExporter::Options{
                           .port = static_cast<int>(std::strtol(
                               metrics_arg.c_str(), nullptr, 10))},
                       live_snapshot);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    std::printf("metrics exporter listening on 127.0.0.1:%d\n\n",
                exporter->port());
  }

  // --- run, forcing three retrain/swap cycles mid-stream ------------------
  // The pcap is small enough to pre-count (we need the packets for the
  // oracle anyway), so the swap points land at the trace quarters.
  size_t skipped = 0;
  std::string err;
  const auto packets = read_pcap_packets(pcap_path, &skipped, &err);
  if (!packets.has_value()) {
    std::fprintf(stderr, "cannot read %s: %s\n", pcap_path.c_str(), err.c_str());
    return 2;
  }
  const uint64_t total = packets->size();
  // Mid-stream means between two bursts: a trace that fits in one burst has
  // no interior boundary, so the three-swap demonstration is impossible —
  // say so instead of failing the oracle-clean run below.
  const bool can_swap_midstream = total > pipeline::kBurstSize;
  if (!can_swap_midstream) {
    std::printf("note: trace fits in one %zu-packet burst — no interior burst "
                "boundary, mid-stream swaps skipped\n",
                pipeline::kBurstSize);
  }
  const uint64_t gen0 = online->generations();
  uint64_t forced = 0;
  const auto force_swap = [&] {
    online->retrain_now();
    online->quiesce();  // make sure the swap lands while packets remain
    ++forced;
  };
  const uint64_t pumped = graph.run([&](uint64_t done) {
    if (done >= total) return;  // end-of-stream tick: no longer mid-stream
    // Swap at the quarter marks; a short trace (few bursts) has fewer
    // interior burst boundaries than quarters, so at the LAST interior
    // boundary the remaining quota lands there — all three swaps stay
    // strictly mid-stream even for the 2-burst golden pcap.
    while (forced < 3 && done * 4 >= (forced + 1) * total) force_swap();
    if (total - done <= pipeline::kBurstSize) {  // next burst is the final one
      while (forced < 3) force_swap();
    }
  });
  const uint64_t swaps = online->generations() - gen0;

  std::printf("processed %llu packets (%zu frames skipped)\n",
              static_cast<unsigned long long>(pumped), skipped);
  std::printf("forced retrain swaps mid-stream: %llu\n\n",
              static_cast<unsigned long long>(swaps));
  std::printf("element stats:\n%s\n", graph.report().c_str());

  // --- differential verification against the scalar oracle ----------------
  std::ifstream rin{rules_path};
  const RuleSet rules = parse_classbench(rin);
  NuevoMatchConfig ocfg;
  ocfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  ocfg.min_iset_coverage = 0.05;
  NuevoMatch oracle{ocfg};
  oracle.build(rules);

  // Merge both sinks' records back into arrival order.
  std::vector<pipeline::Sink::Record> decisions;
  for (const char* name : {"permit_sink", "deny_sink"}) {
    const auto& recs = static_cast<pipeline::Sink*>(graph.find(name))->records();
    decisions.insert(decisions.end(), recs.begin(), recs.end());
  }
  std::sort(decisions.begin(), decisions.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });

  // A mismatch on a lane the FlowCache served (Record::cached) is a STALE
  // decision — the exact failure class the per-band invalidation scheme
  // must prevent across the three forced swaps. Split it out so CI can
  // assert on it by name.
  uint64_t mismatches = 0;
  uint64_t stale_served = 0;
  uint64_t cache_served = 0;
  for (const auto& d : decisions) {
    cache_served += d.cached ? 1 : 0;
    const MatchResult want = oracle.match((*packets)[d.index]);
    if (want.rule_id != d.rule_id) {
      ++mismatches;
      if (d.cached) ++stale_served;
    }
  }
  const size_t show = std::min<size_t>(decisions.size(), 8);
  std::printf("first %zu decisions (packet -> rule):\n", show);
  for (size_t i = 0; i < show; ++i) {
    std::printf("  #%-4llu -> %s (rule %d)\n",
                static_cast<unsigned long long>(decisions[i].index),
                decisions[i].rule_id < 0 ? "deny " : "permit",
                decisions[i].rule_id);
  }

  std::printf("\noracle differential: %llu mismatches over %zu decisions\n",
              static_cast<unsigned long long>(mismatches), decisions.size());
  std::printf("stale-served decisions: %llu (of %llu cache-served)\n",
              static_cast<unsigned long long>(stale_served),
              static_cast<unsigned long long>(cache_served));
  bool ok = mismatches == 0 && stale_served == 0 &&
            decisions.size() == pumped && (!can_swap_midstream || swaps >= 3);

  // --- replicated run: N replicas on N scheduler threads ------------------
  // Same config text, replicated: replica 0 trains, the rest adopt its
  // engine; the RSS split partitions the capture by flow. The merged
  // records must be IDENTICAL to the scalar run's, index for index.
  if (n_threads > 1) {
    std::printf("\nreplicated run: %zu replicas on %zu scheduler threads\n",
                n_threads, n_threads);
    // A pipeline.* failpoint armed via NM_FAILPOINTS turns this run into a
    // fault drill: supervise with quarantine/rejoin instead of fail-stop,
    // so the injected crash exercises the recovery ladder and the
    // differential below proves it lossless. CI smoke runs exactly this.
    bool fault_drill = false;
    for (const std::string& p : failpoint::armed_points())
      fault_drill |= p.rfind("pipeline.", 0) == 0;
    rg.reset(new pipeline::ReplicatedGraph(pipeline::ReplicatedGraph::parse(
        config, static_cast<uint32_t>(n_threads))));
    live_rg.store(rg.get(), std::memory_order_release);
    pipeline::ReplicatedRunOptions ropts;
    ropts.threads = n_threads;
    if (fault_drill) {
      ropts.policy = pipeline::SupervisorPolicy::kQuarantine;
      std::printf("fault drill: pipeline failpoint armed — supervising with "
                  "quarantine + rejoin\n");
    }
    const uint64_t rpumped = rg->run(ropts);
    const std::vector<pipeline::Sink::Record> merged = rg->merged_records();

    uint64_t diverged = 0;
    if (merged.size() != decisions.size()) {
      diverged = merged.size() > decisions.size() ? merged.size() - decisions.size()
                                                  : decisions.size() - merged.size();
    } else {
      // Compare the DECISION, not Record::cached: which lane a replica's
      // private cache happens to serve differs from the scalar run by
      // construction and is not a divergence.
      for (size_t i = 0; i < merged.size(); ++i) {
        if (merged[i].index != decisions[i].index ||
            merged[i].rule_id != decisions[i].rule_id ||
            merged[i].action != decisions[i].action)
          ++diverged;
      }
    }
    const pipeline::SchedulerStats& st = rg->last_stats();
    std::printf("replica fires per thread:");
    for (const uint64_t f : st.fires_per_thread)
      std::printf(" %llu", static_cast<unsigned long long>(f));
    std::printf("  (steals: %llu)\n",
                static_cast<unsigned long long>(st.steals));
    std::printf("replica differential: %llu divergences over %zu merged "
                "records (%llu packets)\n",
                static_cast<unsigned long long>(diverged), merged.size(),
                static_cast<unsigned long long>(rpumped));

    // Supervision report: what the run's fault domains actually absorbed.
    // Stale-served here = a cache-served merged record whose decision
    // diverges from the oracle — the recovery drill must drain the dead
    // replica's cache, so this stays 0 through quarantine and rejoin.
    const pipeline::PipelineHealth ph = rg->health();
    uint64_t rstale = 0;
    for (const auto& r : merged) {
      if (r.cached && oracle.match((*packets)[r.index]).rule_id != r.rule_id)
        ++rstale;
    }
    for (size_t i = 0; i < ph.replicas.size(); ++i) {
      const pipeline::ReplicaHealth& rh = ph.replicas[i];
      if (rh.quarantines == 0) continue;
      std::printf("replica %zu quarantined (drained %llu cache entries, "
                  "recovery %llu us)%s, %llu stale-served\n",
                  i, static_cast<unsigned long long>(rh.drained_entries),
                  static_cast<unsigned long long>(ph.recovery_ns / 1000),
                  rh.state == pipeline::ReplicaHealth::State::kRejoined
                      ? ", rejoined"
                      : " and stayed down",
                  static_cast<unsigned long long>(rstale));
    }
    if (fault_drill) std::printf("runtime health:\n%s", ph.to_string().c_str());

    ok = ok && diverged == 0 && rpumped == pumped && rstale == 0;
  }

  // --- final telemetry snapshot -------------------------------------------
  // The same join the exporter serves, taken of the last graph run: the
  // replicated one when there is one. CI greps this output for
  // nm_flowcache_hits_total (and, replicated, nm_replica_live).
  if (metrics) {
    const telemetry::Snapshot snap = live_snapshot();
    const bool to_file = !metrics_arg.empty() && !metrics_port;
    if (to_file) {
      const bool json = metrics_arg.size() > 5 &&
                        metrics_arg.rfind(".json") == metrics_arg.size() - 5;
      std::ofstream out{metrics_arg};
      out << (json ? snap.to_json() : snap.to_prometheus());
      std::printf("\ntelemetry snapshot written to %s (%s)\n",
                  metrics_arg.c_str(), json ? "json" : "prometheus");
    } else {
      std::printf("\n--- telemetry snapshot (prometheus) ---\n%s",
                  snap.to_prometheus().c_str());
    }
  }

  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
