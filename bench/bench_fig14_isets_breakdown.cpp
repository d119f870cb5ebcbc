// Figure 14: coverage and execution-time breakdown (remainder / secondary
// search / validation / inference) as the number of iSets grows from 0 to 6.
// Paper: coverage saturates by 2 iSets; extra iSets add compute without
// remainder savings — 1-2 iSets is the sweet spot with a cs remainder.
// The iSet-only time runs NuevoMatch's lookup composition with an empty
// remainder stage, so it includes the cross-iSet floor exactly as served.
// The phase columns time the remainder on every packet; the served column
// times nm.match, which skips the remainder for iSet hits whose
// needs_remainder bit is clear (the skip column: share of iSet rules so).
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "bench_common.hpp"

using namespace nuevomatch;
using namespace nuevomatch::bench;

namespace {
/// A remainder stage that never matches: the composition runs the iSets only.
struct NoRemainder {
  [[nodiscard]] MatchResult match_with_floor(const Packet&, int32_t) const noexcept {
    return MatchResult{};
  }
};
}  // namespace

int main() {
  const Scale s = bench_scale();
  print_header("Figure 14: breakdown vs number of iSets (cs remainder)",
               "paper Fig. 14 (coverage saturates ~2 iSets; breakdown per phase)");

  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, s.large_n, 1);
  const auto trace = uniform_trace(rules, s);

  std::printf("%-6s %9s %6s | %10s %10s %10s %10s | %10s %10s\n", "iSets", "coverage",
              "skip", "remainder", "inference", "search", "validate", "total ns",
              "served ns");
  for (int k = 0; k <= 6; ++k) {
    NuevoMatchConfig cfg;
    cfg.remainder_factory = [&s] { return make_baseline("cutsplit", s); };
    cfg.max_isets = k;
    cfg.min_iset_coverage = 0.01;  // let every iSet in: the sweep IS the experiment
    NuevoMatch nm{cfg};
    nm.build(rules);

    // Phase timings via the staged iSet API.
    const double t_rem = measure_ns_per_packet_fn(
        [&](const Packet& p) {
          return nm.remainder().match(p).rule_id;
        },
        trace, s.reps);
    const double t_inf = measure_ns_per_packet_fn(
        [&](const Packet& p) {
          int64_t acc = 0;
          for (const auto& is : nm.isets())
            acc += static_cast<int64_t>(is.predict(p[is.field()]).index);
          return acc;
        },
        trace, s.reps);
    const double t_inf_search = measure_ns_per_packet_fn(
        [&](const Packet& p) {
          int64_t acc = 0;
          for (const auto& is : nm.isets()) {
            const uint32_t v = p[is.field()];
            acc += is.search(v, is.predict(v));
          }
          return acc;
        },
        trace, s.reps);
    const double t_full_isets = measure_ns_per_packet_fn(
        [&](const Packet& p) {
          return nm.match_with_floor(p, std::numeric_limits<int32_t>::max(), NoRemainder{})
              .rule_id;
        },
        trace, s.reps);
    const double t_served = measure_ns_per_packet_fn(
        [&](const Packet& p) { return nm.match(p).rule_id; }, trace, s.reps);
    const double t_search = std::max(0.0, t_inf_search - t_inf);
    const double t_validate = std::max(0.0, t_full_isets - t_inf_search);
    std::printf("%-6d %8.1f%% %5.1f%% | %10.1f %10.1f %10.1f %10.1f | %10.1f %10.1f\n", k,
                nm.coverage() * 100.0, nm.remainder_skip_fraction() * 100.0, t_rem, t_inf,
                t_search, t_validate, t_rem + t_full_isets, t_served);
    std::fflush(stdout);
  }
  std::printf("\npaper: zero iSets = cs alone; diminishing returns beyond 2 iSets\n");
  return 0;
}
