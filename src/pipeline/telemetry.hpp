// telemetry::Snapshot — the join between the generic metric registry
// (common/metrics.hpp) and the three structured health surfaces the dataplane
// already exposes: EngineHealth (nuevomatch/online.hpp), PipelineHealth
// (pipeline/replicate.hpp) and FlowCache::Stats (pipeline/flow_cache.hpp).
//
// Division of labour (and why there are no duplicate series): the registry
// holds EVENT metrics — things that happen on hot paths and must be counted
// where they happen (fires, bursts, commits, latency samples). The health
// structs hold STATE — snapshots already maintained, mutex-guarded, by their
// owners. Snapshot renders both into one exposition: registry metrics
// verbatim, health fields as derived nm_* series. No subsystem reports the
// same fact through both channels. snapshot(graph) is the only place the
// join is assembled: the MetricsExporter's scrapes, its file dumps and
// pipeline_router's exit snapshot all call it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/metrics.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/flow_cache.hpp"
#include "pipeline/replicate.hpp"

namespace nuevomatch::telemetry {

/// One coherent view of the whole dataplane, exportable as Prometheus text
/// exposition or JSON. Every section is optional except the registry: a
/// scalar graph has no PipelineHealth, an engine-less graph no
/// EngineHealth — absent sections are simply omitted from the output.
struct Snapshot {
  RegistrySnapshot registry;

  std::optional<EngineHealth> engine;
  /// Replica supervision layer: one record per replica.
  std::optional<pipeline::PipelineHealth> pipeline;
  /// Summed across every FlowCache feeding this snapshot.
  std::optional<pipeline::FlowCache::Stats> cache;
  uint64_t cache_entries = 0;   ///< live entries (point-in-time occupancy)
  uint64_t cache_capacity = 0;  ///< summed configured capacity

  [[nodiscard]] std::string to_prometheus() const;
  [[nodiscard]] std::string to_json() const;
};

/// The one join per graph shape: the process-wide registry, the engine's
/// health and the FlowCache stats summed over every cache of the graph —
/// of every replica, for the replicated form, which adds PipelineHealth.
/// Safe while the graph runs: every surface read here is mutex-guarded or
/// atomic (a MetricsExporter thread scrapes live replicas through it).
[[nodiscard]] Snapshot snapshot(const pipeline::Graph& g);
[[nodiscard]] Snapshot snapshot(const pipeline::ReplicatedGraph& rg);

}  // namespace nuevomatch::telemetry
