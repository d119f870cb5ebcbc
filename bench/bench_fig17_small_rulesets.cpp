// Figure 17 (appendix) / §5.2 "Small rule-sets": on 1K and 10K rules the
// baselines already fit in L1/L2, so NuevoMatch shows little throughput gain
// (<= 1x is expected). The paper's latency column projects a two-core split
// (iSets and remainder on separate cores); that split measured slower than
// one core and is not modelled here (DESIGN.md "Substitutions").
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace nuevomatch;
using namespace nuevomatch::bench;

int main() {
  const Scale s = bench_scale();
  print_header("Figure 17: small rule-sets (1K / 10K), nm vs cs and tm",
               "paper Fig. 17 (tput <=1x)");

  std::printf("%-8s %7s | %10s %10s\n", "ruleset", "n", "tput nm/cs", "tput nm/tm");
  std::vector<double> t_cs, t_tm;
  for (size_t n : {size_t{1'000}, size_t{10'000}}) {
    for (const auto& [app, variant] : s.suite) {
      const RuleSet rules = generate_classbench(app, variant, n, 1);
      const auto trace = uniform_trace(rules, s, 3);

      // Prints the nm/baseline throughput ratio, or "no-iSets" when the
      // rule-set falls back to the baseline.
      auto report = [&](const char* bname, std::vector<double>& tv) {
        auto base = make_baseline(bname, s);
        base->build(rules);
        const double tb = measure_ns_per_packet(*base, trace, s.reps);
        auto nm = make_nm(bname, s);
        nm->build(rules);
        if (nm->isets().empty()) {
          std::printf("  no-iSets");
          return;
        }
        const double tput = tb / measure_ns_per_packet(*nm, trace, s.reps);
        tv.push_back(tput);
        std::printf(" %9.2fx", tput);
      };
      std::printf("%-8s %7zu |", ruleset_name(app, variant).c_str(), n);
      report("cutsplit", t_cs);
      report("tuplemerge", t_tm);
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  if (!t_cs.empty()) {
    std::printf("GM: tput nm/cs %.2fx nm/tm %.2fx\n", geometric_mean(t_cs),
                geometric_mean(t_tm));
  }
  std::printf("\npaper: same-or-lower throughput;\n"
              "rule-sets without qualifying iSets fall back to the baseline\n");
  return 0;
}
