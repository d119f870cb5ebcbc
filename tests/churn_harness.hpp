// Churn-test harness: a seeded generator of interleaved insert/erase/lookup
// schedules with a step-synchronized linear oracle, used to differentially
// test the online update subsystem (OnlineNuevoMatch) and its batched read
// path under real multi-writer / multi-reader concurrency.
//
// Verification runs on two levels at once:
//
//  * CONCURRENT (readers race writers and retrain swaps): reader threads —
//    scalar match() readers and match_batch() batch readers — hammer a
//    stable verification core (trace/verification.hpp) for the whole run.
//    Schedules only ever insert rules with strictly worse priority than
//    every base rule and only ever erase (a) churn rules or (b) base rules
//    that are not the expected answer of any core packet, so every core
//    answer is invariant under churn and each concurrent lookup is exactly
//    checkable while writers and background retrains race it.
//
//  * STEP-SYNCHRONIZED (exact differential): the schedule is pre-generated
//    from a seed, so after each step's writers join, the SAME ops are
//    replayed onto a LinearSearch oracle and the classifier is probed
//    against it — on a fresh seeded trace plus targeted packets aimed at
//    each rule this step inserted or erased (so an update that silently
//    failed to land, or an erase that resurrected, is caught immediately,
//    not just statistically). Probes run with writers quiescent but with
//    retrains/swaps still free to land mid-probe: a swap must never change
//    an answer, because journal replay has already linearized every applied
//    update into both generations.
//
// Ops across writers touch disjoint rule-ids (per-writer id namespaces and
// disjoint erasable-base slices), so the oracle replay order across writers
// is immaterial and every scheduled op must succeed on both sides.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "classbench/generator.hpp"
#include "classifiers/linear.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "cutsplit/cutsplit.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/flow_cache.hpp"
#include "pipeline/replicate.hpp"
#include "trace/trace.hpp"
#include "trace/verification.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {

struct ChurnConfig {
  AppClass app = AppClass::kAcl;
  int app_variant = 1;
  size_t n_rules = 1000;
  uint64_t seed = 1;

  int n_writers = 2;
  int n_scalar_readers = 1;  ///< OnlineNuevoMatch::match readers
  int n_batch_readers = 1;   ///< OnlineNuevoMatch::match_batch readers
  /// Readers fronted by ONE shared update-coherent pipeline::FlowCache:
  /// hits serve cached decisions, misses classify-and-fill, every served
  /// answer is still checked against the stable core while writers and
  /// swaps race — the cache must never let a commit leak a stale decision.
  /// Readers ALTERNATE scalar probes with shard-grouped burst probes
  /// (lookup_burst/insert_burst), so the per-shard band-mark re-check races
  /// commits landing mid-burst too.
  int n_cache_readers = 0;
  size_t cache_capacity = 4096;
  /// Readers that are REAL pipeline replicas: each reader thread repeatedly
  /// builds an N-replica TraceSource → FlowCache → Classifier → Sink graph
  /// over the stable core (all replicas fanned into the one online engine
  /// under churn) and runs it on a Click-style scheduler, then checks the
  /// merged records against the core answers. This is the full dataplane —
  /// RSS split, per-replica caches, scheduler migration, epoch pinning —
  /// racing writers and swaps, not a hand-rolled lookup loop.
  int n_replica_readers = 0;
  uint32_t replica_count = 2;   ///< replicas per replicated-graph pass
  size_t replica_threads = 2;   ///< scheduler threads per pass
  /// Replica-crash drill (the ISSUE 9 acceptance gate): every replicated
  /// pass runs under SupervisorPolicy::kQuarantine with the
  /// pipeline.task.fire failpoint armed to kill one replica task at a
  /// seeded fire index mid-pass. The quarantine → re-steer → drain →
  /// rejoin ladder must serve every core packet's invariant answer anyway
  /// — the existing zero-mismatch check stays in force, and the harness
  /// additionally tallies quarantines/rejoins so a drill where the crash
  /// never landed is detectable as vacuous. Meaningful with exactly ONE
  /// replica reader (the failpoint registry is process-global; a second
  /// reader's arming would reset the first's trigger counters).
  bool replica_crash = false;

  int n_steps = 5;
  int inserts_per_writer_step = 40;
  int erases_per_writer_step = 16;

  size_t core_trace_len = 2000;  ///< raw trace length before hit-filtering
  size_t probes_per_step = 250;  ///< seeded exact-differential probes

  /// Step-synchronized cache-staleness oracle: probes run through a
  /// PERSISTENT FlowCache that carries entries across steps (and across the
  /// forced swaps below), re-probing every rule earlier steps touched. An
  /// entry cached before an erase/insert that changes its packet's answer
  /// MUST be invalidated by the commit's coherence-stamp bump — a served
  /// stale decision diverges from the oracle right here.
  bool cache_probes = false;

  /// Force one background retrain/swap inside every schedule step, so
  /// cached decisions and epoch pins ride through swaps mid-schedule (the
  /// ISSUE 5 acceptance gate: ≥3 swaps with a cache-fronted reader).
  bool swap_each_step = false;

  /// Fault-injection drill (the ISSUE 6 acceptance gate): at the schedule's
  /// midpoint step, arm the `online.retrain` failpoint to fail this many
  /// consecutive training attempts, force a retrain, and ride the
  /// failure → backoff → retry ladder while writers and readers keep
  /// racing — capturing what health() reported along the way. After the
  /// schedule the point is disarmed and a forced retrain must recover. The
  /// oracle checks run unchanged throughout: a failed retrain must never
  /// change an answer. 0 = off.
  int fault_retrain_failures = 0;
  /// Engine fault knobs in drill mode (passed through to OnlineConfig;
  /// small backoff values keep the drill fast under test).
  int max_retrain_failures = 5;
  uint32_t backoff_initial_ms = 4;
  uint32_t backoff_max_ms = 64;

  double retrain_threshold = 0.02;
  bool auto_retrain = true;
  /// run() keeps forcing (background) retrains until at least this many
  /// generation swaps have been published, so every configuration exercises
  /// the snapshot → journal → merge → swap cycle even with auto-retrain off.
  uint64_t min_swaps = 3;
  /// Remainder engine behind the online classifier: TupleMerge (default) or
  /// CutSplit — the two §3.9 remainder backends, with very different
  /// base-deletion internals for the layer's rebuild path to chew on.
  bool cutsplit_remainder = false;
};

/// Fuzzer mode (ROADMAP "Churn harness as a fuzzer"): one seeded draw of the
/// whole knob space — rule-set shape, writer/reader mix, retrain policy,
/// remainder engine. A long-running loop over successive draws
/// (tests/test_churn.cpp, ChurnFuzzer; iterations via
/// NM_CHURN_FUZZ_ITERS, base seed via NM_CHURN_FUZZ_SEED) turns the harness
/// into an overnight concurrency fuzzer; the TSAN CI leg runs a short smoke
/// slice of the same loop on every PR.
[[nodiscard]] inline ChurnConfig randomized_churn_config(Rng& rng) {
  ChurnConfig c;
  constexpr AppClass kApps[] = {AppClass::kAcl, AppClass::kFw, AppClass::kIpc};
  c.app = kApps[rng.below(3)];
  c.app_variant = static_cast<int>(rng.between(1, 3));
  c.n_rules = 400 + rng.below(1200);
  c.seed = rng.next_u64();
  c.n_writers = static_cast<int>(rng.between(1, 3));
  c.n_scalar_readers = static_cast<int>(rng.between(0, 2));
  c.n_batch_readers = static_cast<int>(rng.between(0, 2));
  if (c.n_scalar_readers + c.n_batch_readers == 0) c.n_scalar_readers = 1;
  c.n_steps = static_cast<int>(rng.between(2, 4));
  c.inserts_per_writer_step = static_cast<int>(rng.between(10, 50));
  c.erases_per_writer_step = static_cast<int>(rng.between(4, 24));
  c.core_trace_len = 1200 + rng.below(1500);
  c.probes_per_step = 120 + rng.below(150);
  constexpr double kThresholds[] = {0.005, 0.02, 0.1, 1.0};
  c.retrain_threshold = kThresholds[rng.below(4)];
  c.auto_retrain = rng.chance(0.5);
  c.min_swaps = rng.between(1, 3);
  c.cutsplit_remainder = rng.chance(0.35);
  c.n_cache_readers = static_cast<int>(rng.between(0, 2));
  if (rng.chance(0.5)) {
    c.n_replica_readers = 1;
    c.replica_count = static_cast<uint32_t>(rng.between(2, 4));
    c.replica_threads = rng.between(1, 2);
    // A third of the replicated draws also run the replica-crash drill —
    // quarantine/rejoin racing writers and swaps, still zero-mismatch.
    c.replica_crash = rng.chance(0.34);
  }
  c.cache_probes = rng.chance(0.5);
  c.swap_each_step = rng.chance(0.3);
  // A quarter of the draws run the retrain fault drill too, sometimes deep
  // enough to cross into degraded mode mid-churn.
  if (rng.chance(0.25)) {
    c.fault_retrain_failures = static_cast<int>(rng.between(1, 4));
    c.max_retrain_failures = static_cast<int>(rng.between(2, 5));
  }
  return c;
}

struct ChurnResult {
  uint64_t concurrent_lookups = 0;    ///< reader lookups racing writers/swaps
  uint64_t concurrent_mismatches = 0; ///< stable-core divergences (want 0)
  uint64_t probes = 0;                ///< step-synchronized oracle probes
  uint64_t probe_mismatches = 0;      ///< oracle divergences (want 0)
  uint64_t cache_probes = 0;          ///< probes served through the probe cache
  uint64_t cache_served = 0;          ///< ...of which were cache HITS
  uint64_t cache_mismatches = 0;      ///< cache-served oracle divergences (want 0)
  uint64_t scheduled_ops = 0;         ///< ops the schedule generated
  uint64_t applied_ops = 0;           ///< ops the classifier accepted
  uint64_t swaps = 0;                 ///< generations published after build

  // Replica-crash drill tallies (populated when replica_crash is set).
  uint64_t replica_passes = 0;        ///< replicated-graph passes completed
  uint64_t replica_quarantines = 0;   ///< replica tasks quarantined mid-pass
  uint64_t replica_rejoins = 0;       ///< ...of which respawned and rejoined

  // Fault-drill observations (populated when fault_retrain_failures > 0).
  uint64_t fault_failures_seen = 0;  ///< max consecutive failures health() showed
  bool degraded_seen = false;        ///< health().degraded observed mid-drill
  bool backoff_seen = false;         ///< health().in_backoff observed mid-drill
  bool fault_error_seen = false;     ///< health().last_error was non-empty
  EngineHealth final_health;         ///< snapshot after the run's last swap
};

class ChurnHarness {
 public:
  struct Op {
    enum class Kind : uint8_t { kInsert, kErase };
    Kind kind;
    Rule rule;  ///< insert payload; for erases, the body (for targeted probes)
    uint32_t id;
  };

  explicit ChurnHarness(ChurnConfig cfg)
      : cfg_(cfg),
        base_(generate_classbench(cfg.app, cfg.app_variant, cfg.n_rules, cfg.seed)) {
    core_ = make_stable_core(base_, cfg_.core_trace_len, cfg_.seed ^ 0x5ca1ab1eULL);
    assert(!core_.packets.empty());
    // Base rules that answer a core packet must never be erased (their
    // answers are the invariant the concurrent readers verify); everything
    // else is fair game, split into disjoint per-writer slices.
    std::unordered_set<int32_t> protected_ids(core_.expected.begin(),
                                              core_.expected.end());
    std::vector<std::vector<uint32_t>> erasable(
        static_cast<size_t>(cfg_.n_writers));
    size_t next = 0;
    for (const Rule& r : base_) {
      if (protected_ids.contains(static_cast<int32_t>(r.id))) continue;
      erasable[next++ % erasable.size()].push_back(r.id);
    }
    generate_schedule(erasable);
  }

  [[nodiscard]] const RuleSet& base() const noexcept { return base_; }
  [[nodiscard]] const StableCore& core() const noexcept { return core_; }
  [[nodiscard]] uint64_t scheduled_ops() const noexcept { return scheduled_ops_; }

  /// Build the online classifier + oracle, run the full schedule with
  /// concurrent readers, and return the tallies. Deterministic given the
  /// config (up to thread interleaving, which the invariants absorb).
  ChurnResult run() {
    OnlineConfig ocfg;
    if (cfg_.cutsplit_remainder) {
      ocfg.base.remainder_factory = [] { return std::make_unique<CutSplit>(); };
    } else {
      ocfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
    }
    ocfg.base.min_iset_coverage = 0.05;
    ocfg.retrain_threshold = cfg_.retrain_threshold;
    ocfg.auto_retrain = cfg_.auto_retrain;
    ocfg.max_retrain_failures = cfg_.max_retrain_failures;
    ocfg.backoff_initial_ms = cfg_.backoff_initial_ms;
    ocfg.backoff_max_ms = cfg_.backoff_max_ms;
    OnlineNuevoMatch online{ocfg};
    online.build(base_);
    const uint64_t gen0 = online.generations();

    LinearSearch oracle;  // the step-synchronized oracle
    oracle.build(base_);

    ChurnResult res;
    res.scheduled_ops = scheduled_ops_;

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < cfg_.n_scalar_readers; ++t) {
      readers.emplace_back([&, t] {
        size_t i = static_cast<size_t>(t) * 13;
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t k = i++ % core_.packets.size();
          if (online.match(core_.packets[k]).rule_id != core_.expected[k])
            mismatches.fetch_add(1);
          lookups.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Cache-fronted readers share ONE update-coherent flow cache in front
    // of the classifier (the pipeline's FlowCache -> Classifier shape,
    // without the graph): a hit serves the cached decision, a miss reads
    // the coherence stamp BEFORE classifying and fills. Commits racing
    // these readers invalidate entries via the stamp; every served answer —
    // cached or fresh — must still equal the stable core's.
    pipeline::FlowCache shared_cache{cfg_.cache_capacity};
    shared_cache.set_stamp_source(&online);
    for (int t = 0; t < cfg_.n_cache_readers; ++t) {
      readers.emplace_back([&, t] {
        size_t i = static_cast<size_t>(t) * 29;
        uint64_t turn = static_cast<uint64_t>(t);
        while (!stop.load(std::memory_order_relaxed)) {
          if (turn++ % 2 == 0) {
            // Scalar probe.
            const size_t k = i++ % core_.packets.size();
            const Packet& p = core_.packets[k];
            pipeline::Decision d;
            int32_t got;
            if (shared_cache.lookup(p, d)) {
              got = d.rule_id;
            } else {
              const uint64_t stamp = shared_cache.current_stamp();
              const MatchResult r = online.match(p);
              got = r.rule_id;
              shared_cache.insert(p, pipeline::Decision{r.rule_id, r.priority, -1},
                                  stamp);
            }
            if (got != core_.expected[k]) mismatches.fetch_add(1);
            lookups.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // Shard-grouped burst probe over a contiguous core window (the
          // pipeline's FlowCacheElement fast path): one stamp read fronts
          // the whole burst's fills, while the serve/retire verdicts come
          // from the band marks re-read per shard hold.
          const size_t k = i % core_.packets.size();
          const auto n = static_cast<uint32_t>(std::min(
              pipeline::FlowCache::kBurstLanes, core_.packets.size() - k));
          i += n;
          const Packet* ps = core_.packets.data() + k;
          std::array<pipeline::Decision, pipeline::FlowCache::kBurstLanes> out;
          const uint64_t stamp = shared_cache.current_stamp();
          const uint32_t hits = shared_cache.lookup_burst(ps, n, ~uint32_t{0},
                                                          out.data());
          std::array<pipeline::Decision, pipeline::FlowCache::kBurstLanes> fill;
          uint32_t fill_mask = 0;
          for (uint32_t j = 0; j < n; ++j) {
            int32_t got;
            if ((hits >> j) & 1u) {
              got = out[j].rule_id;
            } else {
              const MatchResult r = online.match(ps[j]);
              got = r.rule_id;
              fill[j] = pipeline::Decision{r.rule_id, r.priority, -1};
              fill_mask |= 1u << j;
            }
            if (got != core_.expected[k + j]) mismatches.fetch_add(1);
          }
          if (fill_mask != 0)
            shared_cache.insert_burst(ps, n, fill_mask, fill.data(), stamp);
          lookups.fetch_add(n, std::memory_order_relaxed);
        }
      });
    }
    // Replicated-pipeline readers: each pass is a fresh N-replica graph
    // (ReplicatedGraph is one-shot) over the stable core, fanned into the
    // online engine via a non-owning alias. The merged records — produced
    // through per-replica caches, the RSS split, and scheduler migration —
    // must carry every core packet's invariant answer, keyed by the global
    // stream index, while writers and swaps race the passes.
    const auto online_alias =
        std::shared_ptr<OnlineNuevoMatch>(std::shared_ptr<void>{}, &online);
    std::atomic<uint64_t> replica_passes{0};
    std::atomic<uint64_t> replica_quarantines{0};
    std::atomic<uint64_t> replica_rejoins{0};
    for (int t = 0; t < cfg_.n_replica_readers; ++t) {
      readers.emplace_back([&, online_alias, t] {
        // Crash drill: each pass arms a seeded one-shot kill of whatever
        // task reaches the Nth scheduled fire — the between-bursts seam,
        // so recovery must be lossless and the zero-mismatch check below
        // applies unchanged through quarantine → re-steer → rejoin.
        Rng crash_rng{cfg_.seed ^ 0xC4A5Dull ^ (static_cast<uint64_t>(t) << 32)};
        while (!stop.load(std::memory_order_relaxed)) {
          if (cfg_.replica_crash) {
            failpoint::arm(failpoint::kPipelineTaskFire,
                           failpoint::Trigger::nth(1 + crash_rng.below(24)));
          }
          pipeline::ReplicatedGraph rg{
              cfg_.replica_count, [&](uint32_t, uint32_t) {
                pipeline::Graph g;
                auto& src = g.add(
                    std::make_unique<pipeline::TraceSource>(core_.packets),
                    "src");
                auto& cache = g.add(std::make_unique<pipeline::FlowCacheElement>(
                                        cfg_.cache_capacity),
                                    "cache");
                auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
                cls_owned->attach(online_alias);
                auto& cls = g.add(std::move(cls_owned), "cls");
                auto& sink = g.add(std::make_unique<pipeline::Sink>(true), "sink");
                g.connect(src, 0, cache);
                g.connect(cache, 0, cls);
                g.connect(cls, 0, sink);
                return g;
              }};
          pipeline::ReplicatedRunOptions ropts;
          ropts.threads = cfg_.replica_threads;
          if (cfg_.replica_crash)
            ropts.policy = pipeline::SupervisorPolicy::kQuarantine;
          rg.run(ropts);
          if (cfg_.replica_crash) {
            failpoint::disarm(failpoint::kPipelineTaskFire);
            const pipeline::PipelineHealth h = rg.health();
            for (const pipeline::ReplicaHealth& r : h.replicas) {
              replica_quarantines.fetch_add(r.quarantines,
                                            std::memory_order_relaxed);
              replica_rejoins.fetch_add(r.rejoins, std::memory_order_relaxed);
            }
            replica_passes.fetch_add(1, std::memory_order_relaxed);
          }
          const std::vector<pipeline::Sink::Record> recs = rg.merged_records();
          if (recs.size() != core_.packets.size()) mismatches.fetch_add(1);
          for (const pipeline::Sink::Record& r : recs) {
            if (r.index >= core_.expected.size() ||
                r.rule_id != core_.expected[r.index])
              mismatches.fetch_add(1);
          }
          lookups.fetch_add(recs.size(), std::memory_order_relaxed);
        }
      });
    }
    for (int t = 0; t < cfg_.n_batch_readers; ++t) {
      readers.emplace_back([&, t] {
        // match_batch() pins one generation per batch, so every result is
        // checkable against the core even while a swap lands between
        // batches.
        std::vector<MatchResult> out(kBatchSize);
        size_t off = (static_cast<size_t>(t) * 41) % core_.packets.size();
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t len = std::min(kBatchSize, core_.packets.size() - off);
          online.match_batch({core_.packets.data() + off, len}, {out.data(), len});
          for (size_t i = 0; i < len; ++i) {
            if (out[i].rule_id != core_.expected[off + i]) mismatches.fetch_add(1);
          }
          lookups.fetch_add(len, std::memory_order_relaxed);
          off = (off + len) % core_.packets.size();
        }
      });
    }

    // Persistent probe cache for the staleness oracle: entries survive from
    // step to step — exactly what must NOT survive is a decision whose rule
    // the next step's writers erase.
    pipeline::FlowCache probe_cache{cfg_.cache_capacity};
    probe_cache.set_stamp_source(&online);

    std::atomic<uint64_t> applied{0};
    for (int s = 0; s < cfg_.n_steps; ++s) {
      std::vector<std::thread> writers;
      writers.reserve(static_cast<size_t>(cfg_.n_writers));
      for (int w = 0; w < cfg_.n_writers; ++w) {
        writers.emplace_back([&, w, s] {
          for (const Op& op : schedule_[static_cast<size_t>(w)][static_cast<size_t>(s)]) {
            const bool ok = op.kind == Op::Kind::kInsert ? online.insert(op.rule)
                                                         : online.erase(op.id);
            if (ok) applied.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (auto& th : writers) th.join();

      // Step-synchronize the oracle (ops across writers are id-disjoint, so
      // replay order between writers is immaterial).
      for (int w = 0; w < cfg_.n_writers; ++w) {
        for (const Op& op : schedule_[static_cast<size_t>(w)][static_cast<size_t>(s)]) {
          if (op.kind == Op::Kind::kInsert) {
            oracle.insert(op.rule);
          } else {
            oracle.erase(op.id);
          }
        }
      }
      if (cfg_.swap_each_step) {
        // Land one retrain/swap per step with cached decisions and epoch
        // pins from earlier steps still live.
        online.retrain_now();
        online.quiesce();
      }
      if (cfg_.fault_retrain_failures > 0 && s == cfg_.n_steps / 2) {
        // The drill: the next fault_retrain_failures training attempts
        // throw. Force a retrain and ride the failure → backoff → retry
        // ladder, sampling health() — readers keep hammering the stable
        // core and the step oracle below keeps probing, so any answer the
        // failure path changes is caught immediately.
        failpoint::arm(failpoint::kOnlineRetrain,
                       failpoint::Trigger::first(
                           static_cast<uint64_t>(cfg_.fault_retrain_failures)));
        online.retrain_now();
        for (;;) {
          const EngineHealth h = online.health();
          res.fault_failures_seen =
              std::max(res.fault_failures_seen, h.retrain_failures);
          res.degraded_seen |= h.degraded;
          res.backoff_seen |= h.in_backoff;
          res.fault_error_seen |= !h.last_error.empty();
          // The ladder ends in recovery (pending clears on success) or in
          // degraded mode (auto-retries stop).
          if (h.degraded || !h.retrain_pending) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      verify_step(online, oracle, probe_cache, s, res);
    }

    if (cfg_.fault_retrain_failures > 0) {
      // Recovery: disarm and force one clean retrain. A still-degraded
      // engine accepts the forced attempt (that is the operator's
      // recovery path); success must clear every failure flag.
      failpoint::disarm(failpoint::kOnlineRetrain);
      online.retrain_now();
      online.quiesce();
    }

    // Drive the system through the demanded number of swap cycles even when
    // the configured threshold never fires; the readers keep racing each
    // swap. Bounded so a wedged retrain path fails the test instead of
    // hanging it.
    int guard = 0;
    while (online.generations() - gen0 < cfg_.min_swaps && guard++ < 16) {
      online.retrain_now();
      online.quiesce();
    }
    stop.store(true);
    for (auto& th : readers) th.join();
    if (cfg_.replica_crash) failpoint::disarm(failpoint::kPipelineTaskFire);
    online.quiesce();

    res.concurrent_lookups = lookups.load();
    res.concurrent_mismatches = mismatches.load();
    res.replica_passes = replica_passes.load();
    res.replica_quarantines = replica_quarantines.load();
    res.replica_rejoins = replica_rejoins.load();
    res.applied_ops = applied.load();
    res.swaps = online.generations() - gen0;
    res.final_health = online.health();
    return res;
  }

 private:
  void generate_schedule(const std::vector<std::vector<uint32_t>>& erasable) {
    schedule_.assign(static_cast<size_t>(cfg_.n_writers), {});
    Rng rng{cfg_.seed ^ 0xfeedf00dULL};
    std::vector<size_t> erasable_next(static_cast<size_t>(cfg_.n_writers), 0);
    // Per-writer live churn rules (id → rule) and FIFO order, so erases can
    // target rules the same writer inserted in an earlier step.
    std::vector<std::vector<Rule>> backlog(static_cast<size_t>(cfg_.n_writers));
    for (int w = 0; w < cfg_.n_writers; ++w) {
      auto& steps = schedule_[static_cast<size_t>(w)];
      steps.resize(static_cast<size_t>(cfg_.n_steps));
      uint32_t next_id = kChurnIdBase + static_cast<uint32_t>(w) * kChurnIdStride;
      for (int s = 0; s < cfg_.n_steps; ++s) {
        auto& ops = steps[static_cast<size_t>(s)];
        for (int i = 0; i < cfg_.inserts_per_writer_step; ++i) {
          Rule r = base_[rng.below(base_.size())];
          r.id = next_id++;
          // Strictly worse than every base priority (generator emits
          // priority = index < n_rules), so core answers never change.
          r.priority = kChurnPriorityBase + static_cast<int32_t>(r.id & 0xFFFFF);
          ops.push_back(Op{Op::Kind::kInsert, r, r.id});
          backlog[static_cast<size_t>(w)].push_back(r);
        }
        for (int i = 0; i < cfg_.erases_per_writer_step; ++i) {
          auto& bl = backlog[static_cast<size_t>(w)];
          const auto& mine = erasable[static_cast<size_t>(w)];
          // Alternate: retire own churn rules and erasable base rules.
          if (i % 2 == 0 && bl.size() > static_cast<size_t>(cfg_.inserts_per_writer_step)) {
            const Rule victim = bl.front();
            bl.erase(bl.begin());
            ops.push_back(Op{Op::Kind::kErase, victim, victim.id});
          } else if (erasable_next[static_cast<size_t>(w)] < mine.size()) {
            const uint32_t id = mine[erasable_next[static_cast<size_t>(w)]++];
            ops.push_back(Op{Op::Kind::kErase, base_[id], id});
          }
        }
        scheduled_ops_ += ops.size();
      }
    }
  }

  void verify_step(const OnlineNuevoMatch& online, const LinearSearch& oracle,
                   pipeline::FlowCache& cache, int step, ChurnResult& res) {
    // Seeded probes over the base distribution...
    TraceConfig tc;
    tc.n_packets = cfg_.probes_per_step;
    tc.seed = cfg_.seed * 1000 + static_cast<uint64_t>(step);
    std::vector<Packet> probes = generate_trace(base_, tc);
    // ...plus a targeted packet inside every rule this step touched: an
    // insert that never landed, or an erase that resurrected, answers
    // differently from the oracle right here.
    std::vector<Packet> targeted;
    for (int w = 0; w < cfg_.n_writers; ++w) {
      for (const Op& op : schedule_[static_cast<size_t>(w)][static_cast<size_t>(step)]) {
        Packet p;
        for (int f = 0; f < kNumFields; ++f)
          p.field[static_cast<size_t>(f)] = op.rule.field[static_cast<size_t>(f)].lo;
        probes.push_back(p);
        targeted.push_back(p);
      }
    }
    // ...plus, for the cache-staleness oracle, every packet EARLIER steps
    // targeted: their answers are precisely the ones this step's ops (and
    // the ops of the steps between) may have changed, and the persistent
    // probe cache may still hold a decision for them from a previous
    // verify pass — which the intervening commits must have invalidated.
    if (cfg_.cache_probes) {
      probes.insert(probes.end(), probe_history_.begin(), probe_history_.end());
      probe_history_.insert(probe_history_.end(), targeted.begin(), targeted.end());
    }

    std::vector<MatchResult> batched(probes.size());
    for (size_t off = 0; off < probes.size(); off += kBatchSize) {
      const size_t len = std::min(kBatchSize, probes.size() - off);
      online.match_batch({probes.data() + off, len}, {batched.data() + off, len});
    }
    for (size_t i = 0; i < probes.size(); ++i) {
      const int32_t want = oracle.match(probes[i]).rule_id;
      ++res.probes;
      if (online.match(probes[i]).rule_id != want) ++res.probe_mismatches;
      if (batched[i].rule_id != want) ++res.probe_mismatches;
    }

    if (!cfg_.cache_probes) return;
    // Cache-staleness differential: two passes through the persistent cache.
    // Pass 0 mostly misses (every step's commits bumped the stamp since the
    // last verify) and re-fills; pass 1 re-probes the SAME packets — with
    // writers quiescent the stamp is stable, so these are genuine cache
    // hits (asserted via res.cache_served) and every served decision, hit
    // or fill, must match the oracle. A coherence bug shows up in pass 0:
    // an entry filled at step s-1 whose packet's answer changed at step s
    // would be served stale here.
    for (int pass = 0; pass < 2; ++pass) {
      for (const Packet& p : probes) {
        pipeline::Decision d;
        int32_t got;
        if (cache.lookup(p, d)) {
          got = d.rule_id;
          ++res.cache_served;
        } else {
          const uint64_t stamp = cache.current_stamp();
          const MatchResult r = online.match(p);
          got = r.rule_id;
          cache.insert(p, pipeline::Decision{r.rule_id, r.priority, -1}, stamp);
        }
        ++res.cache_probes;
        if (got != oracle.match(p).rule_id) ++res.cache_mismatches;
      }
    }
    // Pass 2, bursted: the SAME probes again through lookup_burst /
    // insert_burst — the shard-grouped path the pipeline elements use. The
    // scalar passes above left the cache warm, so this pass is nearly all
    // hits; any decision the per-shard band-mark check lets through that the
    // scalar probe path would have retired diverges from the oracle here.
    for (size_t off = 0; off < probes.size();
         off += pipeline::FlowCache::kBurstLanes) {
      const auto n = static_cast<uint32_t>(
          std::min(pipeline::FlowCache::kBurstLanes, probes.size() - off));
      const Packet* ps = probes.data() + off;
      std::array<pipeline::Decision, pipeline::FlowCache::kBurstLanes> out;
      const uint64_t stamp = cache.current_stamp();
      const uint32_t hits = cache.lookup_burst(ps, n, ~uint32_t{0}, out.data());
      std::array<pipeline::Decision, pipeline::FlowCache::kBurstLanes> fill;
      uint32_t fill_mask = 0;
      for (uint32_t j = 0; j < n; ++j) {
        int32_t got;
        if ((hits >> j) & 1u) {
          got = out[j].rule_id;
          ++res.cache_served;
        } else {
          const MatchResult r = online.match(ps[j]);
          got = r.rule_id;
          fill[j] = pipeline::Decision{r.rule_id, r.priority, -1};
          fill_mask |= 1u << j;
        }
        ++res.cache_probes;
        if (got != oracle.match(ps[j]).rule_id) ++res.cache_mismatches;
      }
      if (fill_mask != 0) cache.insert_burst(ps, n, fill_mask, fill.data(), stamp);
    }
  }

  static constexpr size_t kBatchSize = 128;  // paper §5.1 batch size
  static constexpr uint32_t kChurnIdBase = 1'000'000;
  static constexpr uint32_t kChurnIdStride = 1'000'000;
  static constexpr int32_t kChurnPriorityBase = 2'000'000;

  ChurnConfig cfg_;
  RuleSet base_;
  StableCore core_;
  // schedule_[writer][step] → op list
  std::vector<std::vector<std::vector<Op>>> schedule_;
  // Every packet any completed step targeted (cache-staleness re-probes).
  std::vector<Packet> probe_history_;
  uint64_t scheduled_ops_ = 0;
};

}  // namespace nuevomatch
