#include "pipeline/scheduler.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"

namespace nuevomatch::pipeline {

namespace {
// Scheduler thread index of the current OS thread while inside run(); -1
// elsewhere. One scheduler runs at a time per OS thread, so a plain
// thread_local is enough even when schedulers nest across threads.
thread_local int tl_thread_id = -1;

// what() of the exception currently being handled (supervision telemetry).
std::string current_error_text() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-std exception";
  }
}
}  // namespace

int Scheduler::current_thread() noexcept { return tl_thread_id; }

Scheduler::Scheduler(size_t n_threads, Options opt) : opt_(opt) {
  if (n_threads == 0) n_threads = 1;
  if (opt_.quantum == 0) opt_.quantum = 1;
  states_.reserve(n_threads);
  for (size_t i = 0; i < n_threads; ++i)
    states_.push_back(std::make_unique<ThreadState>());
}

Task& Scheduler::add(Task::Fire fire, Task::Options topt) {
  if (ran_) throw std::runtime_error("Scheduler::add after run()");
  if (topt.label.empty()) topt.label = "task@" + std::to_string(tasks_.size());
  topt.home = topt.home % static_cast<uint32_t>(states_.size());
  tasks_.push_back(
      std::unique_ptr<Task>(new Task(std::move(fire), std::move(topt))));
  return *tasks_.back();
}

Task* Scheduler::pop_local(ThreadState& ts) {
  const std::lock_guard<std::mutex> lk(ts.mu);
  if (ts.queue.empty()) return nullptr;
  Task* t = ts.queue.front();
  ts.queue.pop_front();
  return t;
}

Task* Scheduler::try_steal(uint32_t thief) {
  const size_t n = states_.size();
  for (size_t off = 1; off < n; ++off) {
    if (Task* t = pop_local(*states_[(thief + off) % n])) return t;
  }
  return nullptr;
}

void Scheduler::record_error() noexcept {
  {
    const std::lock_guard<std::mutex> lk(err_mu_);
    if (first_error_ == nullptr)
      first_error_ = std::current_exception();
    else
      // Only the first exception can be rethrown from run(), but dropping
      // the rest SILENTLY made a multi-task failure indistinguishable from
      // a single one. Count what we suppress; RuntimeHealth surfaces it
      // (and the per-task last_error keeps each message).
      ++suppressed_errors_;
  }
  request_stop();
}

Scheduler::FailureAction Scheduler::supervise_failure(Task& t) {
  const std::string msg = current_error_text();
  {
    const std::lock_guard<std::mutex> lk(sup_mu_);
    t.last_error_ = msg;
  }

  if (t.opt_.policy == SupervisorPolicy::kEscalate) {
    record_error();
    return FailureAction::kFinish;
  }

  t.quarantines_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lk(sup_mu_);
    ++quarantines_total_;
    t.phase_.store(static_cast<uint8_t>(TaskPhase::kQuarantined),
                   std::memory_order_release);
  }
  if (NM_METRICS_ENABLED) {
    static telemetry::Counter& m = telemetry::registry().counter(
        "nm_sched_quarantines_total", "task quarantine entries");
    m.add(1);
  }
  if (on_quarantine_) {
    try {
      on_quarantine_(t);
    } catch (...) {
      record_error();  // a broken supervisor is fatal
    }
  }
  {
    // Release liveness only if the hook did not reinstate the task: a
    // synchronous drain-and-rejoin never lets live_ dip, so the scheduler
    // cannot race to exit under the supervisor's feet.
    const std::lock_guard<std::mutex> lk(sup_mu_);
    if (t.phase() == TaskPhase::kQuarantined && t.counted_live_) {
      t.counted_live_ = false;
      live_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  return FailureAction::kDetach;
}

bool Scheduler::reinstate(Task& t) {
  {
    const std::lock_guard<std::mutex> lk(sup_mu_);
    if (t.phase() != TaskPhase::kQuarantined) return false;
    t.phase_.store(static_cast<uint8_t>(TaskPhase::kRunnable),
                   std::memory_order_release);
    if (!t.counted_live_) {
      t.counted_live_ = true;
      live_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  ThreadState& home = *states_[t.opt_.home];
  const std::lock_guard<std::mutex> lk(home.mu);
  home.queue.push_back(&t);
  return true;
}

RuntimeHealth Scheduler::health() const {
  RuntimeHealth h;
  h.tasks.reserve(tasks_.size());
  {
    const std::lock_guard<std::mutex> lk(sup_mu_);
    h.quarantines = quarantines_total_;
    for (const auto& t : tasks_) {
      TaskHealth th;
      th.label = t->opt_.label;
      th.phase = t->phase();
      th.fires = t->fires();
      th.worked = t->worked();
      th.quarantines = t->quarantines();
      th.last_error = t->last_error_;
      h.tasks.push_back(std::move(th));
    }
  }
  {
    const std::lock_guard<std::mutex> lk(err_mu_);
    h.suppressed_errors = suppressed_errors_;
  }
  return h;
}

void Scheduler::thread_loop(uint32_t tid) {
  tl_thread_id = static_cast<int>(tid);
  ThreadState& me = *states_[tid];
  while (!stop_.load(std::memory_order_acquire) &&
         live_.load(std::memory_order_acquire) > 0) {
    Task* t = pop_local(me);
    bool stolen = false;
    if (t == nullptr && states_.size() > 1) {
      t = try_steal(tid);
      stolen = t != nullptr;
    }
    if (t == nullptr) {
      // Nothing runnable here right now: another thread holds the last
      // live tasks mid-fire. Yield until they finish or push back.
      std::this_thread::yield();
      continue;
    }
    if (stolen) {
      ++me.steals;
      if (t->last_thread_ != tid)
        t->migrations_.fetch_add(1, std::memory_order_relaxed);
    }
    // The task is popped — invisible to every other thread — for the whole
    // quantum: its fires are serialized, and the queue mutex hand-off
    // orders them across threads.
    t->last_thread_ = tid;
    TaskState st = TaskState::kIdle;
    FailureAction act = FailureAction::kFinish;
    bool failed = false;
    uint32_t left = opt_.quantum;
    do {
      // 1-in-64 sampled fire latency: a sampled fire reads the clock at
      // both ends, every other fire reads it not at all.
      const bool sampled = NM_METRICS_ENABLED && NM_SAMPLE_EVERY(64);
      const auto fire_start = sampled ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point{};
      try {
        if (failpoint::should_fire(failpoint::kPipelineTaskFire))
          throw std::runtime_error("injected: pipeline.task.fire");
        st = t->fire_();
      } catch (...) {
        failed = true;
        act = supervise_failure(*t);
        // Escalation keeps the original shape: a throwing task never fires
        // again. Quarantine leaves the loop through `failed`.
        st = act == FailureAction::kFinish ? TaskState::kDone : TaskState::kIdle;
      }
      t->fires_.fetch_add(1, std::memory_order_relaxed);
      ++me.fires;
      if (!failed) {
        if (sampled) {
          static telemetry::Histogram& h = telemetry::registry().histogram(
              "nm_sched_fire_ns", "task fire latency (sampled 1-in-64)");
          h.record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - fire_start)
                  .count()));
        }
        if (st == TaskState::kWorked) {
          t->worked_.fetch_add(1, std::memory_order_relaxed);
          ++me.worked;
          me.consec_idle = 0;
        } else if (st == TaskState::kIdle) {
          ++me.idle_fires;
        }
      }
    } while (!failed && st == TaskState::kWorked && --left > 0);
    if (failed && act == FailureAction::kDetach) {
      // Quarantined: not requeued. supervise_failure already settled the
      // liveness accounting (and ran the on_quarantine hook, which may
      // have reinstate()d the task onto a queue).
      continue;
    }
    if (st == TaskState::kDone) {
      t->done_.store(true, std::memory_order_release);
      t->phase_.store(static_cast<uint8_t>(TaskPhase::kDone),
                      std::memory_order_release);
      const std::lock_guard<std::mutex> lk(sup_mu_);
      if (t->counted_live_) {
        t->counted_live_ = false;
        live_.fetch_sub(1, std::memory_order_acq_rel);
      }
    } else {
      {
        const std::lock_guard<std::mutex> lk(me.mu);
        me.queue.push_back(t);
      }
      // A queue of nothing-but-idle tasks (e.g. replicas parked behind a
      // quarantine's quiesce) must not hot-spin; back off after a streak.
      if (st == TaskState::kIdle && ++me.consec_idle >= 8) {
        me.consec_idle = 0;
        std::this_thread::yield();
      }
    }
  }
  tl_thread_id = -1;
}

void Scheduler::run() {
  if (ran_) throw std::runtime_error("Scheduler::run is one-shot");
  ran_ = true;

  for (const auto& t : tasks_) {
    t->counted_live_ = true;
    t->last_thread_ = t->opt_.home;
    ThreadState& home = *states_[t->opt_.home];
    const std::lock_guard<std::mutex> lk(home.mu);
    home.queue.push_back(t.get());
  }
  live_.store(tasks_.size(), std::memory_order_release);

  std::vector<std::thread> workers;
  workers.reserve(states_.size() - 1);
  const int outer_id = tl_thread_id;
  for (uint32_t tid = 1; tid < states_.size(); ++tid)
    workers.emplace_back([this, tid] { thread_loop(tid); });
  thread_loop(0);
  for (std::thread& w : workers) w.join();
  tl_thread_id = outer_id;

  stats_ = SchedulerStats{};
  stats_.fires_per_thread.reserve(states_.size());
  for (const auto& s : states_) {
    stats_.fires += s->fires;
    stats_.worked += s->worked;
    stats_.idle_fires += s->idle_fires;
    stats_.steals += s->steals;
    stats_.fires_per_thread.push_back(s->fires);
  }
  // Registry totals in one bulk add per run — the per-fire hot path keeps
  // its thread-private counters and pays nothing for these.
  if (NM_METRICS_ENABLED) {
    static telemetry::Counter& mf = telemetry::registry().counter(
        "nm_sched_fires_total", "task fires across all scheduler runs");
    static telemetry::Counter& mw = telemetry::registry().counter(
        "nm_sched_worked_total", "fires that reported kWorked");
    static telemetry::Counter& mi = telemetry::registry().counter(
        "nm_sched_idle_fires_total", "fires that reported kIdle");
    static telemetry::Counter& ms = telemetry::registry().counter(
        "nm_sched_steals_total", "cross-thread task steals");
    mf.add(stats_.fires);
    mw.add(stats_.worked);
    mi.add(stats_.idle_fires);
    ms.add(stats_.steals);
  }

  std::exception_ptr err;
  {
    const std::lock_guard<std::mutex> lk(err_mu_);
    err = first_error_;
  }
  if (err != nullptr) std::rethrow_exception(err);
}

}  // namespace nuevomatch::pipeline
