// Click-style task scheduler: the Task / RouterThread analogue that turns
// the single-threaded element graph into a per-core replicated dataplane
// (DESIGN.md "Scheduler").
//
// Model — run-to-completion tasks on per-thread run queues:
//
//   * A Task wraps a fire callback. One fire is one unit of run-to-
//     completion work (for a pipeline replica: pump one burst from the
//     source and push it through the whole graph). The callback reports
//     kWorked (made progress), kIdle (nothing to do right now), or kDone
//     (permanently finished — the task leaves its queue forever).
//   * Each scheduler thread owns a run queue and loops: pop the front
//     task, fire it up to `quantum` consecutive times while it keeps
//     reporting kWorked, push it back, take the next. The quantum is the
//     fairness knob — a saturated source cannot starve its queue-mates
//     for longer than one quantum (Click's task tickets, simplified to a
//     fixed slice).
//   * An idle thread steals: it locks another thread's queue and takes one
//     task. Migration happens only BETWEEN fires — a task is popped
//     (invisible to other threads) while firing, so a task's fires are
//     totally ordered no matter how often it migrates, and every handoff
//     goes through a queue mutex. That release/acquire pair is what lets
//     tasks keep plain (non-atomic) element state: the next thread to fire
//     a task sees everything the previous one wrote.
//   * Every task keeps the scheduler alive: run() returns when each task
//     has reported kDone (or was quarantined and not reinstated), or on
//     request_stop(). Housekeeping is not a task — the metrics exporter
//     serves scrapes from its own thread (metrics_exporter.hpp).
//   * Supervision (DESIGN.md "Failure model"): every task carries a
//     SupervisorPolicy deciding what a THROWING fire does. kEscalate is
//     the original fail-stop behavior — record the error, stop the world,
//     rethrow out of run(). kQuarantine detaches the task — siblings keep
//     firing — and invokes the on_quarantine hook synchronously on the
//     catching thread, which may drain/respawn state and reinstate() the
//     task; that hook is the one restart path (a replicated pipeline
//     re-steers, drains and rejoins the replica through it). A cooperative
//     watchdog samples each task BETWEEN fires (no signals, no
//     preemption): fires exceeding fire_budget_ns are counted as budget
//     overruns, and a task that keeps claiming kWorked without advancing
//     its heartbeat for stall_fires consecutive fires is flagged stalled.
//     All of it surfaces in RuntimeHealth.
//
// The flow-affinity argument (why per-flow packet order survives all of
// this) is in DESIGN.md: a flow hashes to exactly one replica, a replica
// is exactly one task, and a task's fires are totally ordered.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nuevomatch::pipeline {

/// What one fire of a task accomplished.
enum class TaskState : uint8_t {
  kWorked,  ///< made progress; may be fired again immediately
  kIdle,    ///< nothing to do right now; reschedule and try later
  kDone,    ///< permanently finished; remove from the scheduler
};

/// What the scheduler does with a task whose fire threw.
enum class SupervisorPolicy : uint8_t {
  kEscalate,    ///< stop the world, rethrow out of run() (the default)
  kQuarantine,  ///< detach the task; siblings keep firing; reinstate()able
};

/// Where a task currently is in its supervision lifecycle.
enum class TaskPhase : uint8_t {
  kRunnable,     ///< queued or firing
  kQuarantined,  ///< detached after a failure; reinstate() re-enters it
  kDone,         ///< reported kDone (or was finished by escalation)
};

class Scheduler;

/// A schedulable unit of run-to-completion work. Created via
/// Scheduler::add(); the Scheduler owns it (references stay valid for the
/// scheduler's lifetime — stats can be read after run() returns).
class Task {
 public:
  using Fire = std::function<TaskState()>;

  struct Options {
    uint32_t home = 0;        ///< queue the task starts on (mod n_threads)
    std::string label;        ///< for stats / debugging
    /// Supervision: what a throwing fire does (see SupervisorPolicy).
    SupervisorPolicy policy = SupervisorPolicy::kEscalate;
    /// Watchdog: a fire taking longer than this is counted as a budget
    /// overrun (sampled AFTER the fire returns — cooperative, no
    /// preemption). 0 disables the timer entirely (no clock reads).
    uint64_t fire_budget_ns = 0;
    /// Watchdog: flag the task stalled after this many consecutive
    /// kWorked fires without a heartbeat advance (beat()). 0 disables.
    uint32_t stall_fires = 0;
  };

  [[nodiscard]] const std::string& label() const noexcept { return opt_.label; }
  [[nodiscard]] bool done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }
  /// Total fire() invocations / fires that reported kWorked.
  [[nodiscard]] uint64_t fires() const noexcept {
    return fires_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t worked() const noexcept {
    return worked_.load(std::memory_order_relaxed);
  }
  /// Times the task was stolen onto a different thread than it last ran on.
  [[nodiscard]] uint64_t migrations() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }

  // --- supervision surface ------------------------------------------------
  [[nodiscard]] TaskPhase phase() const noexcept {
    return static_cast<TaskPhase>(phase_.load(std::memory_order_acquire));
  }
  /// Times the task entered quarantine.
  [[nodiscard]] uint32_t quarantines() const noexcept {
    return quarantines_.load(std::memory_order_relaxed);
  }
  /// Progress heartbeat for the stall watchdog: the fire body calls beat()
  /// (e.g. via Scheduler::current_task()) whenever it makes REAL progress.
  void beat() noexcept { heartbeat_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] bool stalled() const noexcept {
    return stalled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t budget_overruns() const noexcept {
    return budget_overruns_.load(std::memory_order_relaxed);
  }

 private:
  friend class Scheduler;
  Task(Fire fire, Options opt) : fire_(std::move(fire)), opt_(std::move(opt)) {}

  Fire fire_;
  Options opt_;
  std::atomic<uint64_t> fires_{0};
  std::atomic<uint64_t> worked_{0};
  std::atomic<uint64_t> migrations_{0};
  std::atomic<bool> done_{false};
  uint32_t last_thread_ = 0;  // written only by the thread holding the task

  // Supervision state. Atomics are the cross-thread surface (health
  // readers); the plain members below them are touched only by the thread
  // holding the task (ordered by the queue-mutex handoffs, like
  // last_thread_) or, for a quarantined task, by the reinstate()r before
  // the queue push that hands the task to its next holder.
  std::atomic<uint8_t> phase_{static_cast<uint8_t>(TaskPhase::kRunnable)};
  std::atomic<uint32_t> quarantines_{0};
  std::atomic<uint64_t> heartbeat_{0};
  std::atomic<uint64_t> budget_overruns_{0};
  std::atomic<bool> stalled_{false};
  uint64_t hb_seen_ = 0;
  uint32_t fires_since_hb_ = 0;
  bool counted_live_ = false;  // guarded by Scheduler::sup_mu_
  std::string last_error_;     // guarded by Scheduler::sup_mu_
};

/// Post-run scheduler telemetry (aggregated after every worker joins).
struct SchedulerStats {
  uint64_t fires = 0;       ///< task fires across all threads
  uint64_t worked = 0;      ///< fires that reported kWorked
  uint64_t idle_fires = 0;  ///< fires that reported kIdle
  uint64_t steals = 0;      ///< successful cross-thread steals
  std::vector<uint64_t> fires_per_thread;
};

/// One task's supervision snapshot (Scheduler::health()).
struct TaskHealth {
  std::string label;
  TaskPhase phase = TaskPhase::kRunnable;
  uint64_t fires = 0;
  uint64_t worked = 0;
  uint32_t quarantines = 0;
  uint64_t budget_overruns = 0;
  bool stalled = false;
  std::string last_error;  ///< what() of the task's most recent failure
};

/// Runtime supervision report (safe to take during or after run()).
struct RuntimeHealth {
  std::vector<TaskHealth> tasks;
  uint32_t quarantines = 0;  ///< quarantine entries across all tasks
  /// Errors DROPPED because first_error_ was already recorded — without
  /// this counter a multi-task failure looks like a single failure (the
  /// scheduler previously discarded every later exception silently).
  uint64_t suppressed_errors = 0;
};

class Scheduler {
 public:
  struct Options {
    /// Max consecutive fires of one task before yielding the thread to its
    /// queue-mates. Click's STRIDE slice equivalent.
    uint32_t quantum = 8;
  };

  // Two constructors instead of `Options opt = {}`: gcc rejects a braced
  // default argument of a nested class with default member initializers.
  explicit Scheduler(size_t n_threads) : Scheduler(n_threads, Options{}) {}
  Scheduler(size_t n_threads, Options opt);

  /// Register a task before run(). The returned reference stays valid for
  /// the scheduler's lifetime.
  Task& add(Task::Fire fire, Task::Options topt = {});

  /// Run until every task reports kDone (or request_stop()).
  /// The CALLING thread becomes scheduler thread 0; n_threads-1 workers
  /// are spawned. One-shot: a Scheduler instance runs once. A task
  /// callback that throws stops the scheduler cleanly (in-flight fires
  /// complete) and the first exception is re-thrown here after all
  /// workers joined.
  void run();

  /// Ask every thread to drain out. Safe from any thread, including from
  /// inside a task fire; threads finish their current fire (bursts are
  /// never abandoned mid-element) and exit.
  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }

  [[nodiscard]] size_t threads() const noexcept { return states_.size(); }
  /// Valid after run() returns.
  [[nodiscard]] const SchedulerStats& stats() const noexcept { return stats_; }

  /// Scheduler thread index of the calling thread, or -1 outside a fire.
  /// Lets tests (and affinity-aware tasks) observe where they run.
  [[nodiscard]] static int current_thread() noexcept;
  /// The task the calling thread is currently firing, or null outside a
  /// fire. Lets fire bodies reach their own Task (heartbeat) without a
  /// capture cycle at add() time.
  [[nodiscard]] static Task* current_task() noexcept;

  /// Invoked synchronously, on the catching thread, right after a task is
  /// quarantined (policy kQuarantine) and BEFORE the task's liveness is
  /// released — so a hook that reinstate()s the task keeps the scheduler
  /// seamlessly alive. Runs outside all queue locks.
  /// A THROWING hook escalates (a broken supervisor is fatal). Set before
  /// run().
  void set_on_quarantine(std::function<void(Task&)> hook) {
    on_quarantine_ = std::move(hook);
  }

  /// Re-enter a quarantined task on its home queue (its watchdog state is
  /// cleared; its graph/closure state is whatever the owner rebuilt).
  /// Callable during run() from any thread — typically from the
  /// on_quarantine hook. Returns false if the
  /// task is not currently quarantined.
  bool reinstate(Task& t);

  /// Supervision snapshot: per-task state plus the suppressed-error count.
  /// Safe from any thread, during or after run().
  [[nodiscard]] RuntimeHealth health() const;

 private:
  struct ThreadState {
    std::mutex mu;
    std::deque<Task*> queue;  // guarded by mu
    // Thread-private counters (aggregated into stats_ after joins).
    uint64_t fires = 0;
    uint64_t worked = 0;
    uint64_t idle_fires = 0;
    uint64_t steals = 0;
    uint32_t consec_idle = 0;
  };

  /// What thread_loop does with a task after supervise_failure().
  enum class FailureAction : uint8_t {
    kFinish,   ///< escalated: mark done, release liveness (original path)
    kDetach,   ///< quarantined: drop from the queues (reinstate() re-enters)
  };

  void thread_loop(uint32_t tid);
  [[nodiscard]] Task* pop_local(ThreadState& ts);
  [[nodiscard]] Task* try_steal(uint32_t thief);
  void record_error() noexcept;
  /// Called from inside a catch block around fire_(); applies the task's
  /// SupervisorPolicy to the in-flight exception.
  [[nodiscard]] FailureAction supervise_failure(Task& t);
  /// Between-fire watchdog sample (budget + heartbeat stall).
  void watchdog_sample(Task& t, TaskState st,
                       std::chrono::steady_clock::time_point fire_start);

  Options opt_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::unique_ptr<ThreadState>> states_;
  std::atomic<size_t> live_{0};  ///< tasks not yet done (nor left quarantined)
  std::atomic<bool> stop_{false};
  mutable std::mutex err_mu_;
  std::exception_ptr first_error_;      // guarded by err_mu_
  uint64_t suppressed_errors_ = 0;      // guarded by err_mu_ (satellite fix)
  mutable std::mutex sup_mu_;           // supervision transitions + last_error
  uint32_t quarantines_total_ = 0;      // guarded by sup_mu_
  std::function<void(Task&)> on_quarantine_;
  SchedulerStats stats_;
  bool ran_ = false;
};

}  // namespace nuevomatch::pipeline
