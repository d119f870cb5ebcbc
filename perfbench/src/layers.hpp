// Layer-level probes shared by the workloads: the staged replay that splits
// NuevoMatch::match_batch into its public stages, and the open-loop update
// writer.
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "nuevomatch/online.hpp"

namespace perfbench {

/// NuevoMatch::match_batch next to the same bursts pushed through its
/// public stages one call at a time (IsetIndex::predict_batch and
/// search_batch per iSet, validate per packet, then the remainder with the
/// iSet floor), with a span around each stage.
struct ReplayStats {
  double whole_ns = 0;   ///< untraced match_batch, ns/packet over all passes
  double staged_ns = 0;  ///< traced staged path, ns/packet over all passes
  double infer_ns = 0, search_ns = 0, validate_ns = 0, remainder_ns = 0;  ///< self ns/packet
  double hit_ratio = 0;  ///< packets with a validated iSet hit / packets
  double admitted = 0;   ///< mean remainder tables whose best priority beats the floor
  double tables = 0;     ///< remainder tables
  double win_ratio = 0;  ///< remainder answer beat the iSet answer / remainder probes
  uint64_t checked = 0;  ///< staged answers compared with match_batch's
  uint64_t wrong = 0;
};

/// Alternates untraced and traced passes over `pkts` (32-packet bursts)
/// until `deadline`.
ReplayStats engine_replay(const nuevomatch::NuevoMatch& nm, std::span<const Packet> pkts,
                          uint64_t deadline, Tracer& tr);

/// What the update writer (below) measured.
struct WriterStats {
  std::vector<double> update_us;     ///< commit end minus its due time
  std::vector<double> slice_p50_us;  ///< per Writer::run_until call, the p50 of its update_us
  std::vector<double> commit_us;     ///< duration of the insert_batch/erase_batch call
  std::vector<double> late_us;       ///< call start minus its due time
  std::vector<double> retrain_s;     ///< retrain first seen pending -> generation swap
  uint64_t offered = 0, accepted = 0, swaps = 0;
  double churn_rules = 0;  ///< mean churn-delta size seen at insert commits
};
/// Beside lookups (churn-zipf): 100 commits/s, about one retrain swap per
/// 0.8 s on 50k rules.
inline constexpr uint64_t kChurnPeriodNs = 10'000'000;
/// With no lookups running (writer slices, traced write phases): 1000
/// commits/s, so the p99 rests on ~100 commits per second of writing rather
/// than on a few host hiccups.
inline constexpr uint64_t kWriteOnlyPeriodNs = 1'000'000;
inline constexpr size_t kUpdateBurst = 64;
inline constexpr size_t kEraseLag = 2;

/// The update writer (open loop). Every `period_ns` a commit is due,
/// alternating an insert_batch of 64 fresh copies of random base rules and
/// an erase_batch of the copies inserted kEraseLag bursts earlier. A copy
/// keeps its rule's ranges, takes a fresh id and a priority one worse than
/// the original's, so it never changes a decision.
///
/// It runs in slices: each run_until call restarts the schedule (the first
/// commit due one period after the call) and carries the alternation and
/// the live copies over from the slice before. Slices between read passes
/// spread the commits over the whole run, as the read passes are.
class Writer {
 public:
  Writer(nuevomatch::OnlineNuevoMatch& engine, std::span<const Rule> rules, uint64_t seed,
         uint64_t period_ns);
  void run_until(uint64_t deadline);
  [[nodiscard]] WriterStats stats() const;

 private:
  nuevomatch::OnlineNuevoMatch& engine_;
  std::span<const Rule> rules_;
  uint64_t period_ns_;
  nuevomatch::Rng rng_;
  uint32_t next_id_ = 0x4000'0000u;         // far above the dense base-rule ids
  std::deque<std::vector<uint32_t>> live_;  // ids per insert burst, oldest first
  uint64_t commits_due_ = 0;                // inserts are the odd ones
  uint64_t last_gen_;
  uint64_t pending_since_ = 0;
  double churn_sum_ = 0;
  uint64_t churn_samples_ = 0;
  WriterStats w_;
};

/// One slice of a fresh Writer, until `deadline`.
WriterStats run_writer(nuevomatch::OnlineNuevoMatch& engine, std::span<const Rule> rules,
                       uint64_t seed, uint64_t period_ns, uint64_t deadline);
/// One forced retrain, timed from the request to the swap, added to `w`.
void timed_retrain(nuevomatch::OnlineNuevoMatch& engine, WriterStats& w);

}  // namespace perfbench
