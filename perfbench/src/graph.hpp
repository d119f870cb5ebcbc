// The dataplane graphs the pipeline workloads run, built programmatically
// from the library's elements plus pass-through elements the benchmark
// owns:
//
//   ClockedSource(Pcap|Trace) -> Head -> FlowCache -> Classifier -> Verify
//                             [-> Dispatch] -> Sink
//
// ClockedSource times each pump and marks the burst start; Head, the first
// element after it, sees the push return once the burst has reached every
// sink and records the source-to-sink burst time. Verify checks every
// decision against the oracle by stream position. A traced graph also puts
// a Probe in front of each library element, so the span tree of a burst is
// burst > source, cache > classifier > verify > dispatch > sink.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/flow_cache.hpp"
#include "pipeline/graph.hpp"

namespace perfbench {

struct GraphSpec {
  std::string pcap;                           ///< PcapSource capture, or
  const std::vector<Packet>* trace = nullptr;  ///< TraceSource packets
  size_t cache_capacity = 0;
  bool dispatch = false;
  std::shared_ptr<nuevomatch::OnlineNuevoMatch> engine;
  std::span<const Rule> rules;      ///< action map for Dispatch
  std::span<const int32_t> oracle;  ///< expected rule id per stream position
};

/// Element counters summed over a graph (or over replicas).
struct Counters {
  uint64_t delivered = 0;   ///< packets that reached a Sink
  uint64_t walked = 0;      ///< records the source read: emitted + filtered + skipped
  uint64_t checked = 0;     ///< decisions Verify compared with the oracle
  uint64_t wrong = 0;
  uint64_t classified = 0;  ///< packets the Classifier element classified
  nuevomatch::pipeline::FlowCache::Stats cache{};

  Counters& operator+=(const Counters& o);
  [[nodiscard]] Counters operator-(const Counters& o) const;
};

/// Passes of one graph shape, untraced (and, when asked, traced passes
/// interleaved with them).
struct GraphRun {
  Rate rate;                        ///< delivered packets over untraced pass time
  Rate traced_rate;                 ///< the same over traced passes
  std::vector<double> burst_ns;     ///< every untraced burst, source to sink
  std::vector<double> pass_p50_ns;  ///< per untraced pass, the p50 of its bursts
  std::vector<double> pass_p99_ns;  ///< per untraced pass, the p99 of its bursts
  Counters untraced, traced;
  uint32_t threads = 1;
  Tracer tracer;  ///< traced passes' spans (replicas absorbed)
  // Scheduler totals over traced passes (replicated runs only).
  uint64_t fires = 0, idle_fires = 0, steals = 0, traced_passes = 0;
};

/// Plain Graph, rewound and re-run on the calling thread until `deadline`.
/// `between`, if set, runs after every untraced pass (other measurements
/// interleave with the passes that way and see the same host conditions).
GraphRun run_plain(const GraphSpec& spec, bool traced, uint64_t deadline,
                   const std::function<void()>& between = {});
/// ReplicatedGraph of `replicas` on as many scheduler threads, a fresh
/// instance per pass (caches start cold), until `deadline`.
GraphRun run_replicated(const GraphSpec& spec, uint32_t replicas, bool traced,
                        uint64_t deadline, const std::function<void()>& between = {});
/// Time to construct the graph `run_plain` / `run_replicated` would run
/// (part of setup_s).
double graph_construction_s(const GraphSpec& spec, uint32_t replicas);

}  // namespace perfbench
