// The benchmark's three workloads (see perfbench/README.md for why each
// exists and what it should move).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// NuevoMatch + TupleMerge remainder over ClassBench ACL1, uniform traffic,
/// no cache: match_batch on 32-packet bursts, then per-key match().
Result run_acl_uniform(const Options& o);
/// PcapSource -> FlowCache(65536) -> Classifier -> Dispatch -> Sink as a
/// 2-replica ReplicatedGraph on 2 scheduler threads, zipf traffic.
Result run_pipeline_zipf(const Options& o);
/// TraceSource -> FlowCache(8192) -> Classifier -> Sink on one thread while
/// an open-loop writer commits update bursts and retrains swap in.
Result run_churn_zipf(const Options& o);

}  // namespace perfbench
