// The repository benchmark. Usually started through perfbench/run.py,
// which builds it first:
//
//   perfbench --workload acl100k-uniform|pipeline-zipf|churn-zipf
//             --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//
// Prints a stamp, human-readable report lines (prefixed "# "), and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 2 without a result when verification against LinearSearch fails,
// 1 with a result when a timed decision or an update failed.
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "rqrmi/kernel.hpp"
#include "rqrmi/nn.hpp"
#include "workloads.hpp"

#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif
#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS "unknown"
#endif

namespace {

using perfbench::note;
using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload acl100k-uniform|pipeline-zipf|"
               "churn-zipf --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR] "
               "[--git SHA] [--src-digest HEX]\n",
               why);
  std::exit(64);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--git") {
      o.git = v;
    } else if (a == "--src-digest") {
      o.src_digest = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  note("stamp: cpu=\"%s\" nproc=%u simd_ceiling=%s compiler=\"%s\" flags=\"%s\" git=%s "
       "src_digest=%s workload=%s seed=%llu seconds=%g trace=%d smoke=%d",
       cpu_model().c_str(), nproc(),
       nuevomatch::rqrmi::to_string(nuevomatch::rqrmi::dispatch_ceiling()).c_str(),
       PB_COMPILER, PB_CXX_FLAGS, o.git.c_str(), o.src_digest.c_str(), o.workload.c_str(),
       static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0, o.smoke ? 1 : 0);
  std::fflush(stdout);

  perfbench::Result res;
  try {
    if (o.workload == "acl100k-uniform") {
      res = perfbench::run_acl_uniform(o);
    } else if (o.workload == "pipeline-zipf") {
      res = perfbench::run_pipeline_zipf(o);
    } else if (o.workload == "churn-zipf") {
      res = perfbench::run_churn_zipf(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  note("fail_ratio %.17g (%llu failed of %llu attempted: wrong decisions + rejected updates)",
       res.attempted() == 0 ? 0.0
                            : static_cast<double>(res.failed()) /
                                  static_cast<double>(res.attempted()),
       static_cast<unsigned long long>(res.failed()),
       static_cast<unsigned long long>(res.attempted()));
  std::printf("%s\n", res.json().c_str());
  return res.failed() == 0 ? 0 : 1;
}
