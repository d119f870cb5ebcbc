// Figure 8: multi-core throughput and latency on ClassBench, measured.
//
// Execution model: N independent instances on N threads. Each thread owns
// its own built engine and classifies its 1/N slice of the trace in batches
// of 128 (NuevoMatch through match_batch, baselines packet by packet), so
// both sides of every ratio use the same N cores. Throughput is the
// aggregate packets over the wall time of the slowest thread. With
// independent instances the per-thread latency ratio equals the throughput
// ratio, so one speedup column per N covers both of the paper's panels.
// N = 1 and 2; the host's hardware thread count is printed so a 2-instance
// row on a 1-core host reads as what it is.
//
// The paper's §4 alternative — one instance split across two cores, iSets
// on one and the remainder on the other — cannot use the priority floor
// and measured slower than one core here; DESIGN.md "Substitutions" has the
// numbers.
// Paper @500K: latency GM 2.7x/4.4x/2.6x, throughput GM 1.3x/2.2x/1.2x.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "classifiers/linear.hpp"

using namespace nuevomatch;
using namespace nuevomatch::bench;

namespace {

constexpr size_t kBatch = 128;
constexpr size_t kVerifySamples = 2000;

/// One instance's work: classify `in` into `out`, batch by batch.
using BatchFn = std::function<void(std::span<const Packet>, std::span<MatchResult>)>;

/// Run fns[t] over slice t of `trace` on its own thread; returns the wall
/// ns from a common start to the last thread's finish and fills `out`.
double run_instances(const std::vector<BatchFn>& fns, std::span<const Packet> trace,
                     std::vector<MatchResult>& out) {
  const size_t n = fns.size();
  const size_t per = (trace.size() + n - 1) / n;
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      const size_t lo = std::min(trace.size(), t * per);
      const size_t hi = std::min(trace.size(), lo + per);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t off = lo; off < hi; off += kBatch) {
        const size_t len = std::min(kBatch, hi - off);
        fns[t](trace.subspan(off, len), std::span<MatchResult>(out).subspan(off, len));
      }
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  const uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  return static_cast<double>(now_ns() - t0);
}

/// Aggregate Mpps, best of `reps` after one verified warm-up pass: every
/// sampled packet's answer must equal the oracle's, or the bench aborts (a
/// timed wrong answer is a bug, not a data point).
double measure_mpps(const std::vector<BatchFn>& fns, std::span<const Packet> trace,
                 const std::vector<size_t>& sample, const std::vector<int32_t>& expect,
                 int reps, const char* what) {
  std::vector<MatchResult> out(trace.size());
  run_instances(fns, trace, out);
  for (size_t k = 0; k < sample.size(); ++k) {
    if (out[sample[k]].rule_id != expect[k]) {
      std::fprintf(stderr, "%s: packet %zu answered rule %d, oracle %d\n", what,
                   sample[k], out[sample[k]].rule_id, expect[k]);
      std::abort();
    }
  }
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, run_instances(fns, trace, out));
  int64_t sink = 0;
  for (const MatchResult& m : out) sink += m.rule_id;
  g_sink = sink;
  return static_cast<double>(trace.size()) * 1e3 / best;
}

}  // namespace

int main() {
  const Scale s = bench_scale();
  print_header("Figure 8: ClassBench multi-core, N independent instances (measured)",
               "paper Fig. 8 (@500K lat GM 2.7/4.4/2.6; tput GM 1.3/2.2/1.2)");
  std::printf("host: %u hardware threads; batches of %zu; best of %d\n",
              std::thread::hardware_concurrency(), kBatch, s.reps);

  const std::vector<std::string> baselines{"cutsplit", "neurocuts", "tuplemerge"};
  constexpr size_t kMaxInstances = 2;
  std::printf("%-8s %-10s | %-26s | %-26s\n", "ruleset", "baseline",
              "N=1 Mpps nm / base  x", "N=2 Mpps nm / base  x");

  // speedup[b][n-1]: nm/baseline throughput ratios at N = n.
  std::vector<std::vector<std::vector<double>>> speedup(
      baselines.size(), std::vector<std::vector<double>>(kMaxInstances));
  for (const auto& [app, variant] : s.suite) {
    const RuleSet rules = generate_classbench(app, variant, s.large_n, 1);
    const auto trace = uniform_trace(rules, s);
    LinearSearch oracle;
    oracle.build(rules);
    std::vector<size_t> sample;
    std::vector<int32_t> expect;
    const size_t stride = std::max<size_t>(1, trace.size() / kVerifySamples);
    for (size_t i = 0; i < trace.size(); i += stride) {
      sample.push_back(i);
      expect.push_back(oracle.match(trace[i]).rule_id);
    }

    for (size_t b = 0; b < baselines.size(); ++b) {
      std::vector<std::unique_ptr<Classifier>> bases;
      std::vector<std::unique_ptr<NuevoMatch>> nms;
      for (size_t i = 0; i < kMaxInstances; ++i) {
        bases.push_back(make_baseline(baselines[b], s));
        bases.back()->build(rules);
        nms.push_back(make_nm(baselines[b], s));
        nms.back()->build(rules);
      }
      std::printf("%-8s %-10s |", ruleset_name(app, variant).c_str(),
                  baselines[b].c_str());
      for (size_t n = 1; n <= kMaxInstances; ++n) {
        std::vector<BatchFn> nm_fns, base_fns;
        for (size_t i = 0; i < n; ++i) {
          const NuevoMatch* nm = nms[i].get();
          nm_fns.emplace_back([nm](std::span<const Packet> in, std::span<MatchResult> out) {
            nm->match_batch(in, out);
          });
          const Classifier* base = bases[i].get();
          base_fns.emplace_back(
              [base](std::span<const Packet> in, std::span<MatchResult> out) {
                for (size_t k = 0; k < in.size(); ++k) out[k] = base->match(in[k]);
              });
        }
        const double nm_mpps =
            measure_mpps(nm_fns, trace, sample, expect, s.reps, "nuevomatch");
        const double base_mpps =
            measure_mpps(base_fns, trace, sample, expect, s.reps, baselines[b].c_str());
        speedup[b][n - 1].push_back(nm_mpps / base_mpps);
        std::printf(" %6.2f / %6.2f %6.2fx |", nm_mpps, base_mpps, nm_mpps / base_mpps);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  std::printf("\nGM speedup over      |      N=1 |      N=2\n");
  for (size_t b = 0; b < baselines.size(); ++b) {
    std::printf("%-20s | %7.2fx | %7.2fx\n", baselines[b].c_str(),
                geometric_mean(speedup[b][0]), geometric_mean(speedup[b][1]));
  }
  return 0;
}
