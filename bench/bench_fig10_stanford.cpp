// Figure 10: NuevoMatch vs TupleMerge on the four Stanford-backbone
// forwarding tables (~183K single-field rules each), single-core throughput
// and per-packet time. The paper's 7.5x latency figure projects a two-core
// split (iSets and remainder on separate cores); that split measured slower
// than one core and is not modelled here (DESIGN.md "Substitutions").
#include <cstdio>

#include "bench_common.hpp"
#include "classbench/stanford.hpp"

using namespace nuevomatch;
using namespace nuevomatch::bench;

int main() {
  const Scale s = bench_scale();
  // RQ-RMI training is fast enough to run the real dataset size even in
  // quick mode; the memory-wall contrast with tm only appears once the tm
  // tables outgrow L2, which needs the full 183K rules.
  const size_t n = kStanfordRules;
  print_header("Figure 10: Stanford backbone, nm(tm) vs tm",
               "paper Fig. 10 (3.5x throughput over tm)");
  std::printf("%-8s %9s | %10s %10s %8s | %10s %10s | %9s\n", "router", "rules",
              "tm Mpps", "nm Mpps", "tput x", "tm ns/pkt", "nm ns/pkt", "coverage");

  std::vector<double> tput_speedups;
  for (int router = 1; router <= 4; ++router) {
    const RuleSet rules = generate_stanford_like(router, n, 2020);
    const auto trace = uniform_trace(rules, s, 7);

    TupleMerge tm;
    tm.build(rules);
    const double t_tm = measure_ns_per_packet(tm, trace, s.reps);

    auto nm = make_nm("tuplemerge", s);
    nm->build(rules);
    const double t_nm = measure_ns_per_packet(*nm, trace, s.reps);

    const double tput_x = t_tm / t_nm;
    tput_speedups.push_back(tput_x);
    std::printf("%-8d %9zu | %10.2f %10.2f %7.2fx | %10.1f %10.1f | %8.1f%%\n", router,
                rules.size(), mpps(t_tm), mpps(t_nm), tput_x, t_tm, t_nm,
                nm->coverage() * 100.0);
    std::fflush(stdout);
  }
  std::printf("GM: throughput %.2fx   (paper: 3.5x)\n", geometric_mean(tput_speedups));
  return 0;
}
