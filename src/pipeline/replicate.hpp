// Per-core pipeline replication (DESIGN.md "Replica threads"): N copies of
// one element graph, an RSS five-tuple split across their sources, one
// shared OnlineNuevoMatch fanned into through the epoch domain. run() starts
// `threads` OS threads (the calling thread is thread 0) and replica i is
// stepped only by thread i % threads, one Graph::step() — one burst through
// the whole replica graph — per turn. A replica never changes threads, so
// its elements' plain state needs no handoff. Background retraining is the
// shared engine's own business (OnlineConfig::auto_retrain: its worker fires
// on retrain_threshold), so no replica hosts training duties.
//
//   ReplicatedGraph rg = ReplicatedGraph::parse(config_text, 4);
//   ReplicatedRunOptions opts;
//   opts.threads = 4;
//   const uint64_t packets = rg.run(opts);
//   for (const Sink::Record& r : rg.merged_records()) ...
//
// What is replicated and what is shared:
//   * each replica owns its elements — source (filtered), FlowCache,
//     Classifier element, Dispatch/Counter/Sink — so the hot path touches
//     no cross-replica state at all;
//   * the online engine behind every replica's Classifier is ONE object
//     (config parses share it via ScopedEngineDonor; programmatic builders
//     attach the same shared_ptr); its wait-free read path was built for
//     exactly this fan-in;
//   * decisions carry the source's GLOBAL stream position in Burst::index,
//     so merged_records() is a total, order-independent join key against a
//     scalar run of the same input — the differential-test contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"

namespace nuevomatch::pipeline {

/// What run() does with a replica whose step threw.
enum class SupervisorPolicy : uint8_t {
  kEscalate,    ///< stop every replica thread, rethrow out of run() (default)
  kQuarantine,  ///< quarantine the replica; siblings keep stepping
};

/// Where a replica is in its run.
enum class ReplicaPhase : uint8_t {
  kRunning,      ///< being stepped (a rejoined replica is running again)
  kDone,         ///< reached end of stream (or was finished by escalation)
  kQuarantined,  ///< quarantined and not rejoining
};
/// "running", "done" or "quarantined".
[[nodiscard]] const char* phase_name(ReplicaPhase p) noexcept;

/// Step totals of the last run(), summed over the replicas' records.
/// `steals` is always 0 — a replica never changes threads — and stays
/// because perfbench's `sched.steals` row reads it.
struct SchedulerStats {
  uint64_t fires = 0;       ///< replica steps across all threads
  uint64_t steps = 0;       ///< steps that pushed a burst through
  uint64_t idle_fires = 0;  ///< steps turned back by a quarantine's pause
  uint64_t steals = 0;
  std::vector<uint64_t> fires_per_thread;
};

struct ReplicatedRunOptions {
  /// OS threads, clamped to [1, replicas]; replica i runs on thread
  /// i % threads. 1 = deterministic inline run on the calling thread.
  size_t threads = 1;
  /// Runs after every burst with the CUMULATIVE packet count across all
  /// replicas. May fire concurrently from several replica threads —
  /// the hook must be thread-safe (differential tests serialize inside).
  std::function<void(uint64_t)> tick;

  // --- supervision (DESIGN.md "Failure model") ---------------------------
  /// kEscalate — the default — is fail-stop: one crash stops every thread
  /// and rethrows out of run(). kQuarantine runs the recovery ladder on
  /// the crashed replica's own thread: quiesce sources → re-steer the dead
  /// slice to survivors → drain the replica's cache → respawn (re-adopt
  /// the shared engine) → rejoin.
  SupervisorPolicy policy = SupervisorPolicy::kEscalate;
  /// Rejoin a quarantined replica after draining it. When false the
  /// replica stays down: its undelivered slice outside the re-steer window
  /// is never served (a lossy degraded mode the differential surfaces
  /// deliberately); health records the quarantine.
  bool rejoin = true;
};

/// One replica's record. The recovery ladder's counters (quarantines,
/// rejoins, drained_entries, and the phase of a replica that stays down)
/// are written under the health lock and can be read during a run; the
/// step counts are kept thread-private while the replica runs and
/// published when run() joins its threads. A replica has rejoined iff
/// rejoins > 0.
struct ReplicaHealth {
  ReplicaPhase phase = ReplicaPhase::kRunning;
  uint64_t fires = 0;            ///< turns its thread gave it
  uint64_t steps = 0;            ///< turns that pushed a burst through
  uint64_t idle_fires = 0;       ///< turns turned back by a quarantine's pause
  uint32_t quarantines = 0;      ///< times this replica was quarantined
  uint32_t rejoins = 0;          ///< successful respawn+reinstate cycles
  uint64_t drained_entries = 0;  ///< live cache entries dropped by drains
  std::string last_error;        ///< what() of its most recent failure
};

/// The replicated dataplane's supervision report: one record per replica
/// plus the run-wide counters.
struct PipelineHealth {
  std::vector<ReplicaHealth> replicas;
  /// Escalated errors after the first: only the first is rethrown from
  /// run(), the rest are counted here (and keep their per-replica
  /// last_error) so a multi-replica failure is not mistaken for one.
  uint64_t suppressed_errors = 0;
  uint32_t rejoin_failures = 0;    ///< rejoins aborted (failpoint/adopt)
  uint64_t steer_epochs = 1;       ///< steering-table epochs installed
  uint64_t recovery_ns = 0;        ///< wall time inside quarantine handling

  /// Human-readable report, one line per replica (pipeline_router prints
  /// this).
  [[nodiscard]] std::string to_string() const;
};

class ReplicatedGraph {
 public:
  /// Builds one replica's graph. Called n times; each returned graph must
  /// have exactly one source. Sharing the engine across replicas is the
  /// builder's business (attach the same shared_ptr in each call); the
  /// replica filter is installed on every source afterwards by the
  /// constructor, so builders don't set it themselves.
  using Builder = std::function<Graph(uint32_t replica, uint32_t n_replicas)>;

  ReplicatedGraph(uint32_t n_replicas, const Builder& build);

  /// Config-text form: replica 0 parses (and trains) normally; replicas
  /// 1..n-1 parse under a ScopedEngineDonor so their Classifier elements
  /// adopt replica 0's engine instead of training their own.
  [[nodiscard]] static ReplicatedGraph parse(std::string_view config,
                                             uint32_t n_replicas);

  [[nodiscard]] uint32_t replicas() const noexcept {
    return static_cast<uint32_t>(graphs_.size());
  }
  [[nodiscard]] Graph& replica(size_t i) { return graphs_[i]; }
  [[nodiscard]] const Graph& replica(size_t i) const { return graphs_[i]; }

  /// The one online engine behind every replica's Classifier, or null
  /// when the replicas have no online Classifier (scalar/none). Throws if
  /// replicas disagree — that graph shape is a bug, not a configuration.
  [[nodiscard]] OnlineNuevoMatch* shared_online() const;

  /// Drive all replicas to exhaustion on `opts.threads` threads (the
  /// calling thread is thread 0), then finish_run() each replica.
  /// One-shot. Returns total packets pumped. Under kEscalate the first
  /// replica error stops every thread and is rethrown here after the join.
  uint64_t run(const ReplicatedRunOptions& opts = {});

  /// Step totals from the last run().
  [[nodiscard]] const SchedulerStats& last_stats() const noexcept {
    return stats_;
  }

  // --- order-independent merged views (the differential-test surface) ----
  /// All recording Sinks' records across replicas, sorted by the global
  /// stream index. A replicated run over the same input as a scalar run
  /// must produce the IDENTICAL vector.
  [[nodiscard]] std::vector<Sink::Record> merged_records() const;
  /// Sum of Counter::packets() over all replicas (aggregate totals merge
  /// by addition — order never matters for counts).
  [[nodiscard]] uint64_t total_counter_packets() const;
  [[nodiscard]] uint64_t total_sink_packets() const;

  /// Supervision report (see ReplicaHealth for which fields are live
  /// during a run and which are published when run() returns).
  [[nodiscard]] PipelineHealth health() const;

 private:
  explicit ReplicatedGraph(std::vector<Graph> graphs);
  void install_filters();
  /// The recovery ladder for crashed replica `idx`: quiesce → re-steer →
  /// drain → (maybe) rejoin. Runs inline on the replica's own thread,
  /// between its steps. Returns true when the replica rejoins.
  bool quarantine_replica(uint32_t idx, const ReplicatedRunOptions& opts);
  /// Respawn step of a rejoin: re-couple the replica's cache stamp source
  /// and verify it still feeds the ONE shared engine. Throws on mismatch
  /// (and on the pipeline.replica.adopt failpoint).
  void readopt(uint32_t idx);

  std::vector<Graph> graphs_;
  SchedulerStats stats_;
  bool ran_ = false;

  // Supervision state (unused — and cost-free — under kEscalate).
  std::unique_ptr<ReplicaSteering> steering_;
  /// Serializes whole recovery ladders: two replicas crashing near-
  /// simultaneously (failpoint count > 1) each run the ladder on their own
  /// thread. The ladder mutates single-writer state (the steering table)
  /// and relies on the paused_/pumping_ quiesce holding until IT clears
  /// the pause — so the second quarantine must wait out the first
  /// entirely, not interleave with it.
  std::mutex recovery_mu_;
  /// Quiesce gate for replica pumps; a thread whose replicas were all
  /// turned back by it parks on it (atomic wait) until the ladder clears it.
  std::atomic<bool> paused_{false};
  std::atomic<uint32_t> pumping_{0};   ///< pumps currently in flight
  mutable std::mutex health_mu_;
  PipelineHealth health_;  // guarded by health_mu_
};

}  // namespace nuevomatch::pipeline
