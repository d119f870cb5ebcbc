#include "pipeline/replicate.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/failpoint.hpp"

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
    if (t.budget_overruns > 0)
      out += " budget_overruns=" + std::to_string(t.budget_overruns);
    if (t.stalled) out += " STALLED";
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

void ReplicatedGraph::quarantine_replica(uint32_t idx, Task& t,
                                         Scheduler& sched,
                                         const ReplicatedRunOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  // 0. Serialize: a second replica crashing while this ladder runs blocks
  //    here until the first recovery is COMPLETE (pause cleared). The
  //    blocked thread is a catcher, not a pump — its crashed task already
  //    left the pumping_ bracket — so holding it cannot deadlock the
  //    quiesce below, and every ladder runs against a settled steering
  //    table and health record.
  const std::lock_guard<std::mutex> rec(recovery_mu_);
  // 1. Quiesce: no source may advance while we pick the re-steer cutover.
  //    The catching thread sits BETWEEN fires of the crashed task, so only
  //    sibling replicas can be mid-pump; they run to burst completion and
  //    park on the paused gate. (The pumping_/paused_ pair is seq_cst: a
  //    pump either sees paused and backs out, or its increment is seen
  //    here and we wait it out — never neither.)
  paused_.store(true, std::memory_order_seq_cst);
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
  //    state survived the crash (the fire seam is between bursts), so the
  //    reinstated task serves them and nothing is lost or duplicated. If
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

  // 6. Respawn: re-enter the task on its home queue. Happens before the
  //    liveness release in the scheduler (the hook is synchronous), so the
  //    run can never slip out from under a rejoining replica.
  const bool rejoined = rejoining && sched.reinstate(t);

  {
    const std::lock_guard<std::mutex> lk(health_mu_);
    ReplicaHealth& rh = rhealth_[idx];
    rh.state = rejoined ? ReplicaHealth::State::kRejoined
                        : ReplicaHealth::State::kQuarantined;
    ++rh.quarantines;
    if (rejoined) ++rh.rejoins;
    rh.drained_entries += drained;
    if (opts.rejoin && !rejoined) ++rejoin_failures_;
    recovery_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  paused_.store(false, std::memory_order_seq_cst);
}

uint64_t ReplicatedGraph::run(const ReplicatedRunOptions& opts) {
  if (ran_) throw std::runtime_error("ReplicatedGraph::run is one-shot");
  ran_ = true;

  // Initialize on the calling thread: engine checks and cache/classifier
  // coupling fail here, with a clean stack, not inside a worker.
  for (Graph& g : graphs_) g.initialize();

  const auto n = static_cast<uint32_t>(graphs_.size());
  const bool supervised = opts.policy != SupervisorPolicy::kEscalate;
  if (supervised) {
    // Swap the fixed modulo split for the piecewise steering table. Its
    // epoch-0 owner function is IDENTICAL to the modulo split, so an
    // uneventful supervised run produces the exact PR 7 partition.
    steering_ = std::make_unique<ReplicaSteering>(n);
    for (Graph& g : graphs_) {
      for (const auto& e : g.elements()) {
        if (e->is_source())
          static_cast<SourceElement&>(*e).set_steering(steering_.get());
      }
    }
  }

  std::atomic<uint64_t> total{0};
  Scheduler::Options sopt;
  sopt.quantum = opts.quantum;
  Scheduler sched(opts.threads, sopt);

  const auto n_threads = static_cast<uint32_t>(sched.threads());
  std::vector<Task*> rtasks(n, nullptr);
  for (uint32_t i = 0; i < n; ++i) {
    Graph* g = &graphs_[i];
    Task::Options topt;
    topt.home = i % n_threads;  // round-robin initial placement
    topt.label = "replica@" + std::to_string(i);
    topt.policy = opts.policy;
    rtasks[i] = &sched.add(
        [g, this, &total, &opts]() -> TaskState {
          // Pump accounting brackets the step so the quarantine path can
          // quiesce: increment FIRST, then check the gate (seq_cst pairs
          // with quarantine_replica's store/load order).
          pumping_.fetch_add(1, std::memory_order_seq_cst);
          if (paused_.load(std::memory_order_seq_cst)) {
            pumping_.fetch_sub(1, std::memory_order_release);
            return TaskState::kIdle;
          }
          uint64_t pumped = 0;
          bool more = false;
          try {
            more = g->step(&pumped);
          } catch (...) {
            pumping_.fetch_sub(1, std::memory_order_release);
            throw;  // the scheduler's supervisor takes it from here
          }
          pumping_.fetch_sub(1, std::memory_order_release);
          if (!more) return TaskState::kDone;
          if (Task* self = Scheduler::current_task()) self->beat();
          const uint64_t cum =
              total.fetch_add(pumped, std::memory_order_relaxed) + pumped;
          if (opts.tick) opts.tick(cum);
          return TaskState::kWorked;
        },
        std::move(topt));
  }

  if (supervised) {
    sched.set_on_quarantine([this, &sched, &rtasks, &opts](Task& t) {
      const auto it = std::find(rtasks.begin(), rtasks.end(), &t);
      quarantine_replica(static_cast<uint32_t>(it - rtasks.begin()), t, sched,
                         opts);
    });
  }

  std::exception_ptr run_err;
  try {
    sched.run();
  } catch (...) {
    run_err = std::current_exception();
  }
  stats_ = sched.stats();
  {
    const std::lock_guard<std::mutex> lk(health_mu_);
    runtime_health_ = sched.health();
    for (uint32_t i = 0; i < n; ++i)
      rhealth_[i].steps = graphs_[i].health().steps;
  }
  // Escalated errors keep the PR 7 surface: rethrow without finishing the
  // graphs (exactly what a direct sched.run() throw did before).
  if (run_err != nullptr) std::rethrow_exception(run_err);
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
