#include "pipeline/replicate.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"

namespace nuevomatch::pipeline {

namespace {
/// Width, in stream positions, of the re-steer window opened at a
/// quarantine: [C, C+kResteerWindow) of the dead replica's RSS slice is
/// served by survivors (C = a cutover ahead of every source's quiesced
/// position), after which the rejoined replica owns its slice again.
constexpr uint64_t kResteerWindow = 4 * kBurstSize;

const char* replica_state_name(ReplicaHealth::State s) {
  switch (s) {
    case ReplicaHealth::State::kLive: return "live";
    case ReplicaHealth::State::kQuarantined: return "quarantined";
    case ReplicaHealth::State::kRejoined: return "rejoined";
  }
  return "?";
}

const char* phase_name(TaskPhase p) {
  switch (p) {
    case TaskPhase::kRunnable: return "runnable";
    case TaskPhase::kQuarantined: return "quarantined";
    case TaskPhase::kDone: return "done";
  }
  return "?";
}
}  // namespace

std::string PipelineHealth::to_string() const {
  std::string out = "runtime: " + std::to_string(runtime.tasks.size()) +
                    " tasks, " + std::to_string(runtime.quarantines) +
                    " quarantines, " + std::to_string(runtime.suppressed_errors) +
                    " suppressed errors\n";
  for (const TaskHealth& t : runtime.tasks) {
    out += "  task " + t.label + ": " + phase_name(t.phase) +
           ", fires=" + std::to_string(t.fires) +
           " worked=" + std::to_string(t.worked) +
           " quarantines=" + std::to_string(t.quarantines);
    if (!t.last_error.empty()) out += " last_error=\"" + t.last_error + "\"";
    out += "\n";
  }
  for (size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaHealth& r = replicas[i];
    out += "  replica " + std::to_string(i) + ": " +
           replica_state_name(r.state) +
           ", quarantines=" + std::to_string(r.quarantines) +
           " rejoins=" + std::to_string(r.rejoins) +
           " drained=" + std::to_string(r.drained_entries) +
           " steps=" + std::to_string(r.steps) + "\n";
  }
  out += "  rejoin failures=" + std::to_string(rejoin_failures) +
         ", steer epochs=" + std::to_string(steer_epochs) +
         ", recovery=" + std::to_string(recovery_ns / 1000) + " us\n";
  return out;
}

ReplicatedGraph::ReplicatedGraph(std::vector<Graph> graphs)
    : graphs_(std::move(graphs)) {
  if (graphs_.empty())
    throw std::runtime_error("ReplicatedGraph needs at least one replica");
  rhealth_.resize(graphs_.size());
  install_filters();
}

ReplicatedGraph::ReplicatedGraph(uint32_t n_replicas, const Builder& build)
    : ReplicatedGraph([&] {
        if (n_replicas == 0)
          throw std::runtime_error("ReplicatedGraph needs at least one replica");
        std::vector<Graph> gs;
        gs.reserve(n_replicas);
        for (uint32_t i = 0; i < n_replicas; ++i)
          gs.push_back(build(i, n_replicas));
        return gs;
      }()) {}

ReplicatedGraph ReplicatedGraph::parse(std::string_view config,
                                       uint32_t n_replicas) {
  if (n_replicas == 0)
    throw std::runtime_error("ReplicatedGraph needs at least one replica");
  std::vector<Graph> gs;
  gs.reserve(n_replicas);
  // Replica 0 pays for training; the rest adopt its engine. No donor scope
  // is opened when replica 0 has no Classifier — each parse is then
  // self-contained anyway (counters, sinks, caches are per-replica).
  gs.push_back(Graph::parse(config));
  const auto* proto = gs.front().find_kind<ClassifierElement>();
  for (uint32_t i = 1; i < n_replicas; ++i) {
    if (proto != nullptr) {
      if (failpoint::should_fire(failpoint::kPipelineAdopt))
        throw std::runtime_error("injected: pipeline.replica.adopt");
      const ScopedEngineDonor donor(*proto);
      gs.push_back(Graph::parse(config));
    } else {
      gs.push_back(Graph::parse(config));
    }
  }
  return ReplicatedGraph(std::move(gs));
}

void ReplicatedGraph::install_filters() {
  const auto n = static_cast<uint32_t>(graphs_.size());
  for (uint32_t i = 0; i < n; ++i) {
    bool has_source = false;
    for (const auto& e : graphs_[i].elements()) {
      if (!e->is_source()) continue;
      static_cast<SourceElement&>(*e).set_replica_filter(i, n);
      has_source = true;
    }
    if (!has_source)
      throw std::runtime_error("ReplicatedGraph: replica graph has no source");
  }
}

OnlineNuevoMatch* ReplicatedGraph::shared_online() const {
  OnlineNuevoMatch* shared = nullptr;
  for (const Graph& g : graphs_) {
    for (const auto& e : g.elements()) {
      const auto* cls = dynamic_cast<const ClassifierElement*>(e.get());
      if (cls == nullptr || cls->online() == nullptr) continue;
      if (shared != nullptr && shared != cls->online())
        throw std::runtime_error(
            "ReplicatedGraph: replicas hold DIFFERENT online engines — the "
            "fan-in contract is one shared engine (adopt_shared / attach the "
            "same shared_ptr in every replica)");
      shared = cls->online();
    }
  }
  return shared;
}

void ReplicatedGraph::readopt(uint32_t idx) {
  if (failpoint::should_fire(failpoint::kPipelineAdopt))
    throw std::runtime_error("injected: pipeline.replica.adopt");
  OnlineNuevoMatch* eng = shared_online();
  for (const auto& e : graphs_[idx].elements()) {
    if (auto* fc = dynamic_cast<FlowCacheElement*>(e.get()); fc != nullptr)
      fc->cache().set_stamp_source(eng);
    if (const auto* cls = dynamic_cast<const ClassifierElement*>(e.get());
        cls != nullptr && cls->online() != nullptr && cls->online() != eng)
      throw std::runtime_error(
          "rejoin: replica lost the shared engine (fan-in broken)");
  }
}

bool ReplicatedGraph::quarantine_replica(uint32_t idx,
                                         const ReplicatedRunOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  // 0. Serialize: a second replica crashing while this ladder runs blocks
  //    here until the first recovery is COMPLETE (pause cleared). The
  //    blocked thread is not pumping — its crashed step already left the
  //    pumping_ bracket — so holding it cannot deadlock the quiesce below,
  //    and every ladder runs against a settled steering table and health
  //    record.
  const std::lock_guard<std::mutex> rec(recovery_mu_);
  // 1. Quiesce: no source may advance while we pick the re-steer cutover.
  //    This thread sits BETWEEN steps of the crashed replica, so only
  //    replicas on other threads can be mid-pump; they run to burst
  //    completion and park on the paused gate. (The pumping_/paused_ pair
  //    is seq_cst: a pump either sees paused and backs out, or its
  //    increment is seen here and we wait it out — never neither.)
  //    Every exit from here on, the throwing ones included, clears the
  //    gate and wakes the threads parked on it.
  paused_.store(true, std::memory_order_seq_cst);
  struct Unpause {
    std::atomic<bool>& paused;
    ~Unpause() {
      paused.store(false, std::memory_order_seq_cst);
      paused.notify_all();
    }
  } const unpause{paused_};
  while (pumping_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();

  // 2. Cutover: ahead of every source's consumed position, so no survivor
  //    has already passed work the new epoch assigns to it — the ordering
  //    half of the re-steer argument (the other half is Burst::index
  //    staying the global merge key; see DESIGN.md).
  uint64_t cut = 0;
  for (Graph& g : graphs_) {
    for (const auto& e : g.elements()) {
      if (!e->is_source()) continue;
      cut = std::max(cut, static_cast<SourceElement&>(*e).stream_pos());
    }
  }
  cut = std::max(cut, steering_->last_from());

  // 3. Decide the rejoin BEFORE installing epochs — the table must promise
  //    only what will actually happen.
  bool rejoining = opts.rejoin;
  if (rejoining && failpoint::should_fire(failpoint::kPipelineRejoin))
    rejoining = false;
  if (rejoining) {
    try {
      readopt(idx);
    } catch (...) {
      rejoining = false;
    }
  }

  // 4. Re-steer epochs: the dead replica's slice is owned by survivors for
  //    [cut, cut+window), then by the rejoined replica again. Positions the
  //    crashed replica consumed before `cut` stay ITS property — its source
  //    state survived the crash (the step seam is between bursts), so the
  //    rejoined replica serves them and nothing is lost or duplicated. If
  //    the epoch table is full (pathological repeated crashes), skip the
  //    re-steer: ownership then simply never leaves the replica, which is
  //    still a partition — just without survivor coverage of the window.
  const uint32_t full = steering_->full_mask();
  const uint32_t without = full & ~(1u << idx);
  const size_t need = rejoining ? 2 : 1;
  if (without != 0 && steering_->epochs() + need <= ReplicaSteering::kMaxEpochs) {
    steering_->append(cut, without);
    if (rejoining) steering_->append(cut + kResteerWindow, full);
  }

  // 5. Drain: the replica's serving state — its flow cache — is dropped,
  //    as a cold respawn would arrive with. Decision records (sinks,
  //    counters) are audit state the differential joins on; they survive.
  uint64_t drained = 0;
  for (const auto& e : graphs_[idx].elements()) {
    if (auto* fc = dynamic_cast<FlowCacheElement*>(e.get()); fc != nullptr) {
      // Occupancy at drain time — NOT cumulative inserts, which would
      // overstate the drop (and double-count across repeated quarantines).
      drained += fc->cache().size();
      fc->cache().clear();
    }
  }

  // 6. Respawn: a rejoining replica is simply stepped again by this thread.
  {
    const std::lock_guard<std::mutex> lk(health_mu_);
    ReplicaHealth& rh = rhealth_[idx];
    rh.state = rejoining ? ReplicaHealth::State::kRejoined
                         : ReplicaHealth::State::kQuarantined;
    ++rh.quarantines;
    if (rejoining) ++rh.rejoins;
    rh.drained_entries += drained;
    if (opts.rejoin && !rejoining) ++rejoin_failures_;
    recovery_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return rejoining;
}

uint64_t ReplicatedGraph::run(const ReplicatedRunOptions& opts) {
  if (ran_) throw std::runtime_error("ReplicatedGraph::run is one-shot");
  ran_ = true;

  // Initialize on the calling thread: engine checks and cache/classifier
  // coupling fail here, with a clean stack, not inside a worker.
  for (Graph& g : graphs_) g.initialize();

  const auto n = static_cast<uint32_t>(graphs_.size());
  if (opts.policy == SupervisorPolicy::kQuarantine) {
    // Swap the fixed modulo split for the piecewise steering table. Its
    // epoch-0 owner function is IDENTICAL to the modulo split, so an
    // uneventful supervised run produces the exact unsupervised partition.
    steering_ = std::make_unique<ReplicaSteering>(n);
    for (Graph& g : graphs_) {
      for (const auto& e : g.elements()) {
        if (e->is_source())
          static_cast<SourceElement&>(*e).set_steering(steering_.get());
      }
    }
  }

  const auto n_threads =
      static_cast<uint32_t>(std::clamp<size_t>(opts.threads, 1, n));
  // Each replica's record is written only by its own thread and read after
  // the join; one cache line each, so neighbouring replicas on different
  // threads do not share a line.
  struct alignas(64) ReplicaRun {
    TaskPhase phase = TaskPhase::kRunnable;
    uint64_t fires = 0;
    uint64_t worked = 0;
    uint64_t idle = 0;
    uint32_t quarantines = 0;
    std::string last_error;
  };
  std::vector<ReplicaRun> runs(n);
  std::atomic<uint64_t> total{0};
  std::atomic<bool> stop{false};
  std::mutex err_mu;
  std::exception_ptr first_error;  // guarded by err_mu
  uint64_t suppressed = 0;         // guarded by err_mu
  // Escalation: keep the first error for the rethrow, count the rest, and
  // stop every thread at its next turn.
  const auto escalate = [&] {
    {
      const std::lock_guard<std::mutex> lk(err_mu);
      if (first_error == nullptr)
        first_error = std::current_exception();
      else
        ++suppressed;
    }
    stop.store(true, std::memory_order_release);
  };

  enum class Step : uint8_t { kWorked, kPaused, kDone, kFailed };
  // One step of replica i. Throws whatever the step (or the
  // pipeline.task.fire failpoint at its seam) throws.
  const auto step = [&](uint32_t i) -> Step {
    // Pump accounting brackets the step so the quarantine path can
    // quiesce: increment FIRST, then check the gate (seq_cst pairs with
    // quarantine_replica's store/load order).
    pumping_.fetch_add(1, std::memory_order_seq_cst);
    if (paused_.load(std::memory_order_seq_cst)) {
      pumping_.fetch_sub(1, std::memory_order_release);
      return Step::kPaused;
    }
    // 1-in-64 sampled step latency: a sampled step reads the clock at both
    // ends, every other step reads it not at all.
    const bool sampled = NM_METRICS_ENABLED && NM_SAMPLE_EVERY(64);
    const uint64_t t0 = sampled ? telemetry::now_ns() : 0;
    uint64_t pumped = 0;
    bool more = false;
    try {
      // Evaluated only by steps that passed the gate, so an nth:N trigger
      // counts real steps, not the turned-back ones of a recovery ladder.
      if (failpoint::should_fire(failpoint::kPipelineTaskFire))
        throw std::runtime_error("injected: pipeline.task.fire");
      more = graphs_[i].step(&pumped);
    } catch (...) {
      pumping_.fetch_sub(1, std::memory_order_release);
      throw;
    }
    pumping_.fetch_sub(1, std::memory_order_release);
    if (sampled) {
      static telemetry::Histogram& h = telemetry::registry().histogram(
          "nm_sched_fire_ns", "replica step latency (sampled 1-in-64)");
      h.record(telemetry::now_ns() - t0);
    }
    if (!more) return Step::kDone;
    const uint64_t cum =
        total.fetch_add(pumped, std::memory_order_relaxed) + pumped;
    if (opts.tick) opts.tick(cum);
    return Step::kWorked;
  };

  // Applies the policy to the exception in flight from replica i's step;
  // call only from inside a catch block.
  const auto supervise = [&](uint32_t i, ReplicaRun& r) -> Step {
    try {
      throw;
    } catch (const std::exception& e) {
      r.last_error = e.what();
    } catch (...) {
      r.last_error = "non-std exception";
    }
    if (opts.policy == SupervisorPolicy::kEscalate) {
      escalate();
      r.phase = TaskPhase::kDone;
      return Step::kFailed;
    }
    ++r.quarantines;
    if (NM_METRICS_ENABLED) {
      static telemetry::Counter& m = telemetry::registry().counter(
          "nm_sched_quarantines_total", "replica quarantine entries");
      m.add(1);
    }
    bool rejoined = false;
    try {
      rejoined = quarantine_replica(i, opts);
    } catch (...) {
      escalate();  // a broken recovery ladder is fatal
    }
    if (!rejoined) r.phase = TaskPhase::kQuarantined;
    return Step::kFailed;
  };

  // Thread `tid` steps replicas tid, tid + n_threads, ... one step each per
  // turn, until every one of them is done or quarantined for good. When all
  // of them were turned back by a quarantine's pause, it parks on the pause
  // flag until the ladder clears it.
  const auto thread_loop = [&](uint32_t tid) {
    try {
      uint32_t live = 0;
      for (uint32_t i = tid; i < n; i += n_threads) ++live;
      while (live > 0 && !stop.load(std::memory_order_acquire)) {
        bool all_paused = true;
        for (uint32_t i = tid; i < n; i += n_threads) {
          ReplicaRun& r = runs[i];
          if (r.phase != TaskPhase::kRunnable) continue;
          ++r.fires;
          Step st = Step::kFailed;
          try {
            st = step(i);
          } catch (...) {
            st = supervise(i, r);
          }
          if (st == Step::kPaused) {
            ++r.idle;
            continue;
          }
          all_paused = false;
          if (st == Step::kWorked) ++r.worked;
          if (st == Step::kDone) r.phase = TaskPhase::kDone;
          if (r.phase != TaskPhase::kRunnable) --live;
        }
        if (all_paused) paused_.wait(true, std::memory_order_seq_cst);
      }
    } catch (...) {
      escalate();  // the supervision bookkeeping itself failed
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(n_threads - 1);
  try {
    for (uint32_t tid = 1; tid < n_threads; ++tid)
      workers.emplace_back(thread_loop, tid);
  } catch (...) {
    // Could not start a thread: stop the ones already running first.
    stop.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    throw;
  }
  thread_loop(0);
  for (std::thread& w : workers) w.join();

  stats_ = SchedulerStats{};
  stats_.fires_per_thread.assign(n_threads, 0);
  RuntimeHealth rt;
  rt.suppressed_errors = suppressed;
  for (uint32_t i = 0; i < n; ++i) {
    const ReplicaRun& r = runs[i];
    stats_.fires += r.fires;
    stats_.worked += r.worked;
    stats_.idle_fires += r.idle;
    stats_.fires_per_thread[i % n_threads] += r.fires;
    rt.quarantines += r.quarantines;
    rt.tasks.push_back(TaskHealth{"replica@" + std::to_string(i), r.phase,
                                  r.fires, r.worked, r.quarantines,
                                  r.last_error});
  }
  // Registry totals in one bulk add per run — the per-step hot path keeps
  // its thread-private counts and pays nothing for these.
  if (NM_METRICS_ENABLED) {
    static telemetry::Counter& mf = telemetry::registry().counter(
        "nm_sched_fires_total", "replica steps across all runs");
    static telemetry::Counter& mw = telemetry::registry().counter(
        "nm_sched_worked_total", "replica steps that pumped a burst");
    static telemetry::Counter& mi = telemetry::registry().counter(
        "nm_sched_idle_fires_total", "replica steps turned back by a pause");
    mf.add(stats_.fires);
    mw.add(stats_.worked);
    mi.add(stats_.idle_fires);
  }
  {
    const std::lock_guard<std::mutex> lk(health_mu_);
    runtime_health_ = std::move(rt);
    for (uint32_t i = 0; i < n; ++i)
      rhealth_[i].steps = graphs_[i].health().steps;
  }
  // An escalated error is rethrown without finishing the graphs.
  if (first_error != nullptr) std::rethrow_exception(first_error);
  for (Graph& g : graphs_) g.finish_run();
  return total.load(std::memory_order_relaxed);
}

PipelineHealth ReplicatedGraph::health() const {
  PipelineHealth h;
  const std::lock_guard<std::mutex> lk(health_mu_);
  h.runtime = runtime_health_;
  h.replicas = rhealth_;
  h.rejoin_failures = rejoin_failures_;
  h.steer_epochs = steering_ != nullptr ? steering_->epochs() : 1;
  h.recovery_ns = recovery_ns_;
  return h;
}

std::vector<Sink::Record> ReplicatedGraph::merged_records() const {
  std::vector<Sink::Record> all;
  for (const Graph& g : graphs_) {
    for (const auto& e : g.elements()) {
      const auto* s = dynamic_cast<const Sink*>(e.get());
      if (s == nullptr) continue;
      all.insert(all.end(), s->records().begin(), s->records().end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Sink::Record& a, const Sink::Record& b) {
              return a.index < b.index;
            });
  return all;
}

uint64_t ReplicatedGraph::total_counter_packets() const {
  uint64_t total = 0;
  for (const Graph& g : graphs_) {
    for (const auto& e : g.elements()) {
      if (const auto* c = dynamic_cast<const Counter*>(e.get()); c != nullptr)
        total += c->packets();
    }
  }
  return total;
}

uint64_t ReplicatedGraph::total_sink_packets() const {
  uint64_t total = 0;
  for (const Graph& g : graphs_) {
    for (const auto& e : g.elements()) {
      if (const auto* s = dynamic_cast<const Sink*>(e.get()); s != nullptr)
        total += s->packets();
    }
  }
  return total;
}

std::string ReplicatedGraph::report() const {
  std::string out;
  for (size_t i = 0; i < graphs_.size(); ++i) {
    out += "replica " + std::to_string(i) + ":\n";
    out += graphs_[i].report();
  }
  return out;
}

}  // namespace nuevomatch::pipeline
