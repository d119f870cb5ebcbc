// §3.9 / Figure 7: rule updates. Updated rules migrate to the update layer,
// degrading throughput until a retrain; the sustained update rate is set by
// how fast training restores a small remainder. We reproduce:
//   (a) throughput vs fraction of rules migrated (the degradation curve);
//   (b) the Figure 7 sawtooth: updates at a fixed rate with periodic
//       retraining, reporting throughput per epoch and the retrain cost;
//   (c) the online subsystem (nuevomatch/online.hpp) on the epoch-based
//       wait-free read path: a controller thread pushes batched update
//       bursts (insert_batch/erase_batch — one writer-lock hold and one
//       copy-on-write commit per burst) at a fixed offered rate while the
//       main thread runs verified lookups — every answer checked against
//       the linear oracle through the background retrain/swaps. A second
//       phase measures the saturated update ceiling (single-op vs batched
//       commits) with a verified reader still racing. Model reuse
//       (remainder-only churn retrains no iSet) is reported per swap;
//   (d) the multi-writer path under SATURATED readers — the exact scenario
//       that starved writers to ~0 updates/s on the PR 3 reader-preferring
//       rwlock (old section (d) worked around it with a reader duty cycle;
//       the epoch path needs no workaround). W batch-committing writer
//       threads race two flat-out match_batch() readers (one pinned
//       generation per 128-packet batch); updates/s must scale with the
//       writers' CPU share, which is precisely what reader-starvation used
//       to deny them;
//   (e) writer progress vs reader saturation: one saturated writer against
//       0/2/4 spinning readers — the no-starvation regression row;
//   (f) replicated-pipeline readers during churn: the reader side is the
//       real 2-replica dataplane graph on the Click-style scheduler, every
//       merged record verified against the stable core while a saturated
//       writer and fire-and-forget retrains race it;
//   plus competitor context for the headline updates/sec: TupleMerge alone,
//   classic Tuple Space Search (hash-per-tuple — the RVH-style hash-table
//   baseline family, see PAPERS.md "RVH: Range-Vector Hash"), and a
//   priority-sorted list (array insert/erase), all update-native.
// Paper: ~4k updates/sec sustainable on 500K rules at ~half the update-free
// speedup, assuming minute-long (TF) training.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "classifiers/linear.hpp"
#include "common/rng.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/replicate.hpp"
#include "trace/verification.hpp"

using namespace nuevomatch;
using namespace nuevomatch::bench;

namespace {

/// Update-rate loop shared by the competitor rows: worse-priority clone
/// inserts with a bounded backlog of erases, `n_ops` scheduled inserts.
double competitor_updates_per_sec(Classifier& cls, const RuleSet& base,
                                  size_t n_ops, uint64_t seed) {
  Rng rng{seed};
  std::deque<uint32_t> backlog;
  uint32_t next_id = 5'000'000;
  uint64_t done = 0;
  const uint64_t t0 = now_ns();
  for (size_t i = 0; i < n_ops; ++i) {
    Rule r = base[rng.below(base.size())];
    r.id = next_id++;
    r.priority = 2'000'000 + static_cast<int32_t>(i);
    if (cls.insert(r)) {
      backlog.push_back(r.id);
      ++done;
    }
    if (backlog.size() > 256) {
      if (cls.erase(backlog.front())) ++done;
      backlog.pop_front();
    }
  }
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  return static_cast<double>(done) / secs;
}

}  // namespace

int main() {
  const Scale s = bench_scale();
  print_header("Sec 3.9 / Figure 7: updates, degradation and retraining",
               "paper Fig. 7 (sawtooth) + sustained-rate estimate");

  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, s.large_n, 1);
  const auto trace = uniform_trace(rules, s, 21);

  TupleMerge tm_alone;
  tm_alone.build(rules);
  const double t_tm = measure_ns_per_packet(tm_alone, trace, s.reps);

  // (a) degradation: migrate a growing fraction of rules via delete+insert.
  std::printf("-- throughput vs migrated fraction (remainder growth) --\n");
  std::printf("%-10s | %10s %12s %12s\n", "migrated", "nm Mpps", "speedup/tm",
              "remainder");
  for (double frac : {0.0, 0.01, 0.05, 0.10, 0.20}) {
    auto nm = make_nm("tuplemerge", s);
    nm->build(rules);
    Rng rng{31};
    const auto n_upd = static_cast<size_t>(frac * static_cast<double>(rules.size()));
    for (size_t i = 0; i < n_upd; ++i) {
      const uint32_t victim = static_cast<uint32_t>(rng.below(rules.size()));
      Rule moved = rules[victim];
      if (!nm->erase(victim)) continue;  // already migrated earlier
      moved.field[kDstPort] = full_range(kDstPort);  // matching-set change
      nm->insert(moved);
    }
    const double t_nm = measure_ns_per_packet(*nm, trace, s.reps);
    std::printf("%-9.0f%% | %10.2f %11.2fx %12zu\n", frac * 100.0, mpps(t_nm),
                t_tm / t_nm, nm->remainder_size());
    std::fflush(stdout);
  }

  // (b) sawtooth: fixed update rate, retrain every epoch (Figure 7's tau).
  std::printf("\n-- Figure 7 sawtooth: updates + periodic retraining --\n");
  std::printf("%-6s | %12s %12s %12s\n", "epoch", "pre Mpps", "post Mpps", "retrain ms");
  auto nm = make_nm("tuplemerge", s);
  nm->build(rules);
  Rng rng{37};
  const size_t updates_per_epoch = rules.size() / 20;
  for (int epoch = 1; epoch <= 4; ++epoch) {
    for (size_t i = 0; i < updates_per_epoch; ++i) {
      const uint32_t victim = static_cast<uint32_t>(rng.below(rules.size()));
      Rule moved = rules[victim];
      if (!nm->erase(victim)) continue;
      nm->insert(moved);
    }
    const double pre = mpps(measure_ns_per_packet(*nm, trace, 1));
    const uint64_t t0 = now_ns();
    nm->rebuild();
    const double retrain_ms = static_cast<double>(now_ns() - t0) / 1e6;
    const double post = mpps(measure_ns_per_packet(*nm, trace, 1));
    std::printf("%-6d | %12.2f %12.2f %12.1f\n", epoch, pre, post, retrain_ms);
    std::fflush(stdout);
  }
  std::printf("\nsustained-rate estimate: updates/sec such that the remainder stays\n"
              "below ~10%% between retrains = 0.10 * n / retrain_seconds (paper: ~4k/s\n"
              "at 500K with minute-long TF training; our trainer shifts it far higher)\n");

  // (c) online subsystem on the epoch read path. Phase 1 (offered load):
  // a controller pushes batched bursts at a fixed offered rate while the
  // main thread runs verified scalar lookups — every answer checked against
  // the linear oracle before/during/after the background retrain-swaps.
  // Lookups take NO lock (one epoch-slot CAS + an acquire load per lookup),
  // so mpps_during is bounded by CPU share, not by lock convoys: the old
  // rwlock path collapsed 2.33→0.72 Mpps under the same kind of churn.
  std::printf("\n-- (c) online subsystem, epoch read path: verified lookups + batched churn --\n");
  const RuleSet base = generate_classbench(AppClass::kAcl, 2,
                                           std::min<size_t>(s.large_n, 50'000), 41);
  OnlineConfig ocfg;
  ocfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  ocfg.base.min_iset_coverage = 0.05;
  ocfg.retrain_threshold = 0.08;
  OnlineNuevoMatch online{ocfg};
  online.build(base);

  const StableCore core = make_stable_core(base, s.trace_len, 42);
  std::printf("base %zu rules, verification core %zu packets, threshold %.0f%%\n",
              base.size(), core.packets.size(), ocfg.retrain_threshold * 100);

  std::atomic<uint64_t> mismatches{0};
  const auto verified_pass = [&]() -> double {  // ns/packet over the core
    const uint64_t t0 = now_ns();
    for (size_t i = 0; i < core.packets.size(); ++i) {
      if (online.match(core.packets[i]).rule_id != core.expected[i])
        mismatches.fetch_add(1);
    }
    return static_cast<double>(now_ns() - t0) /
           static_cast<double>(core.packets.size());
  };

  const double before_ns = verified_pass();
  const uint64_t gen_before = online.generations();

  // Controller thread: bursts of worse-priority clone inserts plus backlog
  // erase bursts, one insert_batch/erase_batch commit each, paced to a fixed
  // offered rate (the paper's deployment story: a controller pushes rule
  // changes at some rate; the question is what the data path keeps doing).
  constexpr size_t kBurst = 32;
  constexpr auto kBurstPeriod = std::chrono::microseconds(1500);
  std::atomic<bool> churn{true};
  std::atomic<uint64_t> ops{0};
  std::thread updater([&] {
    Rng urng{43};
    std::deque<uint32_t> backlog;
    uint32_t next_id = 1'000'000;
    std::vector<Rule> burst(kBurst);
    std::vector<uint32_t> dead(kBurst);
    while (churn.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < kBurst; ++i) {
        Rule& r = burst[i];
        r = base[urng.below(base.size())];
        r.id = next_id++;
        r.priority = 2'000'000 + static_cast<int32_t>(r.id);
        backlog.push_back(r.id);
      }
      ops.fetch_add(online.insert_batch(burst), std::memory_order_relaxed);
      if (backlog.size() > 512) {
        for (size_t i = 0; i < kBurst; ++i) {
          dead[i] = backlog.front();
          backlog.pop_front();
        }
        ops.fetch_add(online.erase_batch(dead), std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(kBurstPeriod);
    }
  });

  const uint64_t t_churn0 = now_ns();
  const uint64_t deadline = t_churn0 + uint64_t{60} * 1'000'000'000;
  double during_ns = 0.0;
  int during_passes = 0;
  while ((online.generations() == gen_before || during_passes < 3) &&
         now_ns() < deadline) {
    during_ns += verified_pass();
    ++during_passes;
  }
  churn.store(false);
  updater.join();
  const double churn_secs = static_cast<double>(now_ns() - t_churn0) / 1e9;
  const uint64_t total_ops = ops.load();
  online.quiesce();
  const uint64_t swaps = online.generations() - gen_before;
  const size_t reused = online.last_retrain_reused_isets();
  const double after_ns = verified_pass();

  during_ns = during_passes > 0 ? during_ns / during_passes : 0.0;
  std::printf("%-22s | %12s %12s %12s\n", "phase", "Mpps", "updates/s", "swaps");
  std::printf("%-22s | %12.2f %12s %12s\n", "before churn", mpps(before_ns), "-", "-");
  std::printf("%-22s | %12.2f %12.0f %12llu\n", "during churn+retrain",
              mpps(during_ns), static_cast<double>(total_ops) / churn_secs,
              static_cast<unsigned long long>(swaps));
  std::printf("%-22s | %12.2f %12s %12s\n", "after quiesce", mpps(after_ns), "-", "-");
  std::printf("verified lookups: %llu mismatches (must be 0); absorption now %.2f%%; "
              "last retrain reused %zu iSet model(s)\n",
              static_cast<unsigned long long>(mismatches.load()),
              online.absorption() * 100, reused);

  BenchJson j{"updates_online"};
  j.row()
      .set("section", "online_single")
      .set("rules", base.size())
      .set("updates_per_sec", static_cast<double>(total_ops) / churn_secs)
      .set("mpps_before", mpps(before_ns))
      .set("mpps_during", mpps(during_ns))
      .set("mpps_after", mpps(after_ns))
      .set("swaps", static_cast<size_t>(swaps))
      .set("reused_isets", reused)
      .set("mismatches", static_cast<size_t>(mismatches.load()));

  // (c) phase 2: saturated update ceiling — a writer spinning flat out,
  // single-op commits vs batched commits, with one verified reader still
  // racing every swap (its Mpps here records CPU share under writer
  // saturation, not lock behavior — the reader holds no lock).
  std::printf("\n-- (c2) saturated update ceiling (writer spins, reader verifies) --\n");
  std::printf("%-14s | %12s %12s %7s\n", "commit mode", "updates/s", "rd Mpps", "mism");
  for (const bool batched : {false, true}) {
    std::atomic<bool> halt{false};
    std::atomic<uint64_t> sat_ops{0};
    std::atomic<uint64_t> sat_bad{0};
    std::atomic<uint64_t> rd_packets{0};
    std::thread reader([&] {
      size_t i = 0;
      while (!halt.load(std::memory_order_relaxed)) {
        const size_t k = i++ % core.packets.size();
        if (online.match(core.packets[k]).rule_id != core.expected[k])
          sat_bad.fetch_add(1);
        rd_packets.fetch_add(1, std::memory_order_relaxed);
      }
    });
    const uint64_t s0 = now_ns();
    std::thread writer([&] {
      Rng wrng{batched ? 47u : 46u};
      std::deque<uint32_t> backlog;
      uint32_t next_id = batched ? 400'000'000u : 300'000'000u;
      std::vector<Rule> burst(kBurst);
      std::vector<uint32_t> dead(kBurst);
      while (!halt.load(std::memory_order_relaxed)) {
        if (batched) {
          for (size_t i = 0; i < kBurst; ++i) {
            Rule& r = burst[i];
            r = base[wrng.below(base.size())];
            r.id = next_id++;
            r.priority = 2'000'000 + static_cast<int32_t>(r.id & 0xFFFFF);
            backlog.push_back(r.id);
          }
          sat_ops.fetch_add(online.insert_batch(burst), std::memory_order_relaxed);
          if (backlog.size() > 512) {
            for (size_t i = 0; i < kBurst; ++i) {
              dead[i] = backlog.front();
              backlog.pop_front();
            }
            sat_ops.fetch_add(online.erase_batch(dead), std::memory_order_relaxed);
          }
        } else {
          Rule r = base[wrng.below(base.size())];
          r.id = next_id++;
          r.priority = 2'000'000 + static_cast<int32_t>(r.id & 0xFFFFF);
          if (online.insert(r)) {
            backlog.push_back(r.id);
            sat_ops.fetch_add(1, std::memory_order_relaxed);
          }
          if (backlog.size() > 256) {
            if (online.erase(backlog.front()))
              sat_ops.fetch_add(1, std::memory_order_relaxed);
            backlog.pop_front();
          }
        }
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    halt.store(true);
    writer.join();
    const double sat_secs = static_cast<double>(now_ns() - s0) / 1e9;
    reader.join();
    online.quiesce();
    const double rate = static_cast<double>(sat_ops.load()) / sat_secs;
    const double rd_mpps =
        static_cast<double>(rd_packets.load()) / 1e6 / sat_secs;
    std::printf("%-14s | %12.0f %12.2f %7llu\n",
                batched ? "batch-32" : "single-op", rate, rd_mpps,
                static_cast<unsigned long long>(sat_bad.load()));
    std::fflush(stdout);
    mismatches.fetch_add(sat_bad.load());
    j.row()
        .set("section", batched ? "online_saturated_batch" : "online_saturated_single")
        .set("rules", base.size())
        .set("updates_per_sec", rate)
        .set("reader_mpps", rd_mpps)
        .set("mismatches", static_cast<size_t>(sat_bad.load()));
  }

  // Competitor context: raw update rates of update-native engines on the
  // same rule-set — what an online classifier can at best approach (the gap
  // is the price of the learned index's retraining). TupleMerge is the
  // engine NuevoMatch wraps; TSS is the classic hash-per-tuple structure
  // (the RVH-style hash-table baseline family — PAPERS.md); sorted-list is
  // the naive priority-ordered array a minimal controller might keep.
  std::printf("\n-- competitor context: update-native engines, raw update rate --\n");
  std::printf("%-22s | %12s\n", "engine", "updates/s");
  {
    TupleMerge tm_upd;
    tm_upd.build(base);
    const double r_tm = competitor_updates_per_sec(tm_upd, base, 100'000, 55);
    TupleSpaceSearch tss_upd;
    tss_upd.build(base);
    const double r_tss = competitor_updates_per_sec(tss_upd, base, 100'000, 56);
    LinearSearch sorted_upd;
    sorted_upd.build(base);
    // O(n) memmove per op: fewer scheduled ops, same rate metric.
    const double r_sl = competitor_updates_per_sec(sorted_upd, base, 20'000, 57);
    std::printf("%-22s | %12.0f\n", "tuplemerge", r_tm);
    std::printf("%-22s | %12.0f\n", "tss (RVH-style hash)", r_tss);
    std::printf("%-22s | %12.0f\n", "sorted list", r_sl);
    j.row().set("section", "competitor").set("engine", "tuplemerge")
        .set("rules", base.size()).set("updates_per_sec", r_tm);
    j.row().set("section", "competitor").set("engine", "tss_rvh_style")
        .set("rules", base.size()).set("updates_per_sec", r_tss);
    j.row().set("section", "competitor").set("engine", "sorted_list")
        .set("rules", base.size()).set("updates_per_sec", r_sl);
  }

  // (d) multi-writer batch commits under SATURATED match_batch() readers.
  // This is the configuration that used to starve writers outright (PR 3
  // measured ~0 updates/s without a reader duty-cycle workaround, and
  // NEGATIVE scaling with it: 0.38x at 4 writers). Methodology: each writer
  // pushes a FIXED offered load (controller-style paced bursts) and the row
  // records the aggregate applied rate — the question is whether W writers
  // deliver W times the updates while two readers spin flat out, which is
  // exactly what reader-preference and per-op locking used to deny. (The
  // saturated single-writer ceiling — ~10-100x any row here — is section
  // (c2)'s number; once writers outnumber free cores, adding writers can
  // only split the same CPU, so a saturated scaling row would measure the
  // scheduler, not the engine.)
  std::printf("\n-- (d) multi-writer offered-load absorption + saturated batch readers --\n");
  std::printf("%-8s | %12s %10s %12s %7s %6s\n", "writers", "updates/s", "vs 1w",
              "lookups", "swaps", "mism");
  const RuleSet mw_base = generate_classbench(
      AppClass::kAcl, 1, std::min<size_t>(s.large_n, 30'000), 61);
  const StableCore mw_core = make_stable_core(mw_base, s.trace_len / 2, 62);
  uint64_t mw_bad_total = 0;
  double upd_1w = 0.0;
  for (const int writers : {1, 2, 4}) {
    OnlineConfig mcfg;
    mcfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
    mcfg.base.min_iset_coverage = 0.05;
    mcfg.retrain_threshold = 0.05;
    OnlineNuevoMatch mw{mcfg};
    mw.build(mw_base);
    const uint64_t g0 = mw.generations();

    std::atomic<bool> halt_writers{false};
    std::atomic<bool> halt_readers{false};
    std::atomic<uint64_t> mw_ops{0};
    std::atomic<uint64_t> mw_lookups{0};
    std::atomic<uint64_t> mw_bad{0};
    std::vector<std::thread> rd;
    for (int t = 0; t < 2; ++t) {
      rd.emplace_back([&, t] {
        // Saturated: no duty cycle, no yield — back-to-back pinned batches.
        constexpr size_t kBatch = 128;
        std::vector<MatchResult> out(kBatch);
        size_t off = static_cast<size_t>(t) * 64 % mw_core.packets.size();
        while (!halt_readers.load(std::memory_order_relaxed)) {
          const size_t len = std::min(kBatch, mw_core.packets.size() - off);
          mw.match_batch({mw_core.packets.data() + off, len}, {out.data(), len});
          for (size_t i = 0; i < len; ++i) {
            if (out[i].rule_id != mw_core.expected[off + i]) mw_bad.fetch_add(1);
          }
          mw_lookups.fetch_add(len, std::memory_order_relaxed);
          off = (off + len) % mw_core.packets.size();
        }
      });
    }
    std::vector<std::thread> wr;
    const uint64_t w0 = now_ns();
    for (int w = 0; w < writers; ++w) {
      wr.emplace_back([&, w] {
        // Deficit-paced controller: ~25k offered ops/s per writer. The
        // writer works back-to-back while behind its target curve and
        // sleeps only when ahead, so scheduler wakeup latency on the
        // oversubscribed core cannot silently shrink the offered load.
        constexpr double kOfferedPerWriter = 25'000.0;
        Rng wrng{static_cast<uint64_t>(100 + w)};
        std::deque<uint32_t> backlog;
        uint32_t next_id = 10'000'000 + static_cast<uint32_t>(w) * 100'000'000;
        std::vector<Rule> burst(kBurst);
        std::vector<uint32_t> dead(kBurst);
        const uint64_t t_start = now_ns();
        uint64_t issued = 0;
        while (!halt_writers.load(std::memory_order_relaxed)) {
          const double due = kOfferedPerWriter *
                             (static_cast<double>(now_ns() - t_start) / 1e9);
          if (static_cast<double>(issued) > due) {
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            continue;
          }
          for (size_t i = 0; i < kBurst; ++i) {
            Rule& r = burst[i];
            r = mw_base[wrng.below(mw_base.size())];
            r.id = next_id++;
            r.priority = 2'000'000 + static_cast<int32_t>(r.id & 0xFFFFF);
            backlog.push_back(r.id);
          }
          mw_ops.fetch_add(mw.insert_batch(burst), std::memory_order_relaxed);
          issued += kBurst;
          if (backlog.size() > 256) {
            for (size_t i = 0; i < kBurst; ++i) {
              dead[i] = backlog.front();
              backlog.pop_front();
            }
            mw_ops.fetch_add(mw.erase_batch(dead), std::memory_order_relaxed);
            issued += kBurst;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    halt_writers.store(true);
    for (auto& th : wr) th.join();
    const double w_secs = static_cast<double>(now_ns() - w0) / 1e9;
    halt_readers.store(true);
    for (auto& th : rd) th.join();
    mw.quiesce();

    const double upd_rate = static_cast<double>(mw_ops.load()) / w_secs;
    if (writers == 1) upd_1w = upd_rate;
    const uint64_t mw_swaps = mw.generations() - g0;
    mw_bad_total += mw_bad.load();
    std::printf("%-8d | %12.0f %9.2fx %12llu %7llu %6llu\n", writers, upd_rate,
                upd_1w > 0.0 ? upd_rate / upd_1w : 1.0,
                static_cast<unsigned long long>(mw_lookups.load()),
                static_cast<unsigned long long>(mw_swaps),
                static_cast<unsigned long long>(mw_bad.load()));
    std::fflush(stdout);
    j.row()
        .set("section", "multi_writer")
        .set("writers", static_cast<size_t>(writers))
        .set("rules", mw_base.size())
        .set("updates_per_sec", upd_rate)
        .set("scaling_vs_1w", upd_1w > 0.0 ? upd_rate / upd_1w : 1.0)
        .set("verified_lookups", static_cast<size_t>(mw_lookups.load()))
        .set("swaps", static_cast<size_t>(mw_swaps))
        .set("mismatches", static_cast<size_t>(mw_bad.load()));
  }

  // (e) writer progress vs reader saturation: one saturated single-op
  // writer against a growing wall of spinning scalar readers. The PR 3
  // rwlock drove this to ~0 updates/s at 2 readers; the epoch path costs
  // the writer only its CPU share.
  std::printf("\n-- (e) writer progress under saturated readers (starvation check) --\n");
  std::printf("%-8s | %12s %14s\n", "readers", "updates/s", "lookups/s");
  for (const int n_readers : {0, 2, 4}) {
    OnlineConfig pcfg;
    pcfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
    pcfg.base.min_iset_coverage = 0.05;
    pcfg.retrain_threshold = 1.0;  // isolate the commit path from retrains
    pcfg.auto_retrain = false;
    OnlineNuevoMatch pr{pcfg};
    pr.build(mw_base);

    std::atomic<bool> halt{false};
    std::atomic<uint64_t> pr_ops{0};
    std::atomic<uint64_t> pr_lookups{0};
    std::atomic<uint64_t> pr_bad{0};
    std::vector<std::thread> rd;
    for (int t = 0; t < n_readers; ++t) {
      rd.emplace_back([&, t] {
        size_t i = static_cast<size_t>(t) * 29;
        while (!halt.load(std::memory_order_relaxed)) {
          const size_t k = i++ % mw_core.packets.size();
          if (pr.match(mw_core.packets[k]).rule_id != mw_core.expected[k])
            pr_bad.fetch_add(1);
          pr_lookups.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    const uint64_t p0 = now_ns();
    std::thread writer([&] {
      Rng wrng{77};
      std::deque<uint32_t> backlog;
      uint32_t next_id = 600'000'000;
      while (!halt.load(std::memory_order_relaxed)) {
        Rule r = mw_base[wrng.below(mw_base.size())];
        r.id = next_id++;
        r.priority = 2'000'000 + static_cast<int32_t>(r.id & 0xFFFFF);
        if (pr.insert(r)) {
          backlog.push_back(r.id);
          pr_ops.fetch_add(1, std::memory_order_relaxed);
        }
        if (backlog.size() > 256) {
          if (pr.erase(backlog.front())) pr_ops.fetch_add(1, std::memory_order_relaxed);
          backlog.pop_front();
        }
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    halt.store(true);
    writer.join();
    for (auto& th : rd) th.join();
    const double p_secs = static_cast<double>(now_ns() - p0) / 1e9;
    const double op_rate = static_cast<double>(pr_ops.load()) / p_secs;
    mw_bad_total += pr_bad.load();
    std::printf("%-8d | %12.0f %14.0f\n", n_readers, op_rate,
                static_cast<double>(pr_lookups.load()) / p_secs);
    std::fflush(stdout);
    j.row()
        .set("section", "writer_progress")
        .set("readers", static_cast<size_t>(n_readers))
        .set("rules", mw_base.size())
        .set("updates_per_sec", op_rate)
        .set("lookups_per_sec", static_cast<double>(pr_lookups.load()) / p_secs)
        .set("mismatches", static_cast<size_t>(pr_bad.load()));
  }
  std::printf("note: %u hardware threads on this host; once saturated threads "
              "outnumber them they\ntimeshare, and the scaling rows measure "
              "CPU-share recovery (the thing\nreader-preference used to deny "
              "writers)\n",
              std::thread::hardware_concurrency());

  // (f) replicated-pipeline readers during churn: the reader side is the
  // REAL dataplane — a 2-replica TraceSource -> FlowCache -> Classifier ->
  // Sink graph on a 2-thread Click-style scheduler, all replicas fanned
  // into the churning engine — instead of a hand-rolled lookup loop. Each
  // pass is a fresh ReplicatedGraph (runs are one-shot); every merged
  // record is checked against the stable core, so this row both prices and
  // verifies the scheduler path under a saturated writer.
  std::printf("\n-- (f) replicated-pipeline readers during churn --\n");
  {
    OnlineConfig pcfg;
    pcfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
    pcfg.base.min_iset_coverage = 0.05;
    pcfg.retrain_threshold = 1.0;
    pcfg.auto_retrain = false;
    auto pr = std::make_shared<OnlineNuevoMatch>(pcfg);
    pr->build(mw_base);
    const uint64_t f_gen0 = pr->generations();

    std::atomic<bool> halt{false};
    std::atomic<uint64_t> f_ops{0};
    std::thread writer([&] {
      Rng wrng{99};
      std::deque<uint32_t> backlog;
      uint32_t next_id = 700'000'000;
      uint64_t committed = 0;
      while (!halt.load(std::memory_order_relaxed)) {
        Rule r = mw_base[wrng.below(mw_base.size())];
        r.id = next_id++;
        r.priority = 2'000'000 + static_cast<int32_t>(r.id & 0xFFFFF);
        if (pr->insert(r)) {
          backlog.push_back(r.id);
          f_ops.fetch_add(1, std::memory_order_relaxed);
        }
        if (backlog.size() > 256) {
          if (pr->erase(backlog.front()))
            f_ops.fetch_add(1, std::memory_order_relaxed);
          backlog.pop_front();
        }
        if (++committed % 4096 == 0) pr->retrain_now();  // fire-and-forget
      }
    });

    uint64_t f_pkts = 0, f_records = 0, f_bad = 0, f_passes = 0;
    const uint64_t f0 = now_ns();
    while (now_ns() - f0 < 800'000'000ull) {
      pipeline::ReplicatedGraph rg{2u, [&](uint32_t, uint32_t) {
                                     pipeline::Graph g;
                                     auto& src = g.add(
                                         std::make_unique<pipeline::TraceSource>(
                                             mw_core.packets),
                                         "src");
                                     auto& cache =
                                         g.add(std::make_unique<
                                                   pipeline::FlowCacheElement>(4096),
                                               "cache");
                                     auto cls_owned = std::make_unique<
                                         pipeline::ClassifierElement>();
                                     cls_owned->attach(pr);
                                     auto& cls = g.add(std::move(cls_owned), "cls");
                                     auto& sink = g.add(
                                         std::make_unique<pipeline::Sink>(true),
                                         "sink");
                                     g.connect(src, 0, cache);
                                     g.connect(cache, 0, cls);
                                     g.connect(cls, 0, sink);
                                     return g;
                                   }};
      pipeline::ReplicatedRunOptions ropts;
      ropts.threads = 2;
      f_pkts += rg.run(ropts);
      for (const pipeline::Sink::Record& r : rg.merged_records()) {
        ++f_records;
        if (r.index >= mw_core.expected.size() ||
            r.rule_id != mw_core.expected[r.index])
          ++f_bad;
      }
      ++f_passes;
    }
    halt.store(true);
    writer.join();
    pr->quiesce();
    const double f_secs = static_cast<double>(now_ns() - f0) / 1e9;
    const double f_mpps = static_cast<double>(f_pkts) / f_secs / 1e6;
    const double f_rate = static_cast<double>(f_ops.load()) / f_secs;
    const uint64_t f_swaps = pr->generations() - f_gen0;
    mw_bad_total += f_bad;
    std::printf("%zu passes | %8.2f Mpps | %10.0f updates/s | %llu swaps | "
                "%llu records checked\n",
                static_cast<size_t>(f_passes), f_mpps, f_rate,
                static_cast<unsigned long long>(f_swaps),
                static_cast<unsigned long long>(f_records));
    j.row()
        .set("section", "replicated_readers_churn")
        .set("replicas", size_t{2})
        .set("threads", size_t{2})
        .set("rules", mw_base.size())
        .set("mpps", f_mpps)
        .set("updates_per_sec", f_rate)
        .set("swaps", static_cast<size_t>(f_swaps))
        .set("records_checked", static_cast<size_t>(f_records))
        .set("mismatches", static_cast<size_t>(f_bad));
  }

  j.write("BENCH_updates.json");

  if (mismatches.load() != 0 || mw_bad_total != 0) {
    std::fprintf(stderr, "FAIL: lookups diverged from the linear oracle\n");
    return 1;
  }
  if (swaps == 0)
    std::printf("note: no background swap observed before the deadline "
                "(increase churn time or lower the threshold)\n");
  return 0;
}
