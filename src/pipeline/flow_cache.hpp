// Sharded exact-match flow cache — the dataplane front-end that absorbs
// traffic skew before the classifier (the OVS EMC role the paper models in
// §5.2). Promoted out of examples/ovs_cache_accel.cpp and made
// UPDATE-COHERENT and DEPENDENCY-AWARE: every cached decision is stamped
// with the classifier's coherence stamp (OnlineNuevoMatch::
// coherence_stamp()), read BEFORE the decision was computed, plus the
// decision's PRIORITY BAND (OnlineNuevoMatch::coherence_band); a lookup
// serves an entry only while no commit that could have changed decisions in
// that band has bumped past the stored stamp (coherence_band_mark(band) <=
// stamp). A commit in another band — the common case under focused churn —
// leaves the entry serving, which is what keeps the hit rate up during
// sustained updates (the OVS megaflow property: keep entries whose matched
// rule provably didn't change). RVH (PAPERS.md) motivates exactly this: an
// update-native fast path is worthless if a front-end cache keeps serving
// pre-update answers — or re-classifying answers no update could have
// changed.
//
// Shape: set-associative (kWays per set) over hash-sharded fixed-size
// arrays — no allocation after construction, eviction is a bounded
// round-robin within one set, and the full five-tuple key is compared on
// every probe (a hash-only key could alias two flows onto one decision; the
// pipeline's oracle differential would catch it, so we store the tuple).
// Shards take one small mutex each so several pipeline threads can share
// one cache. The scalar lookup()/insert() pay one uncontended lock per
// PROBE; the burst forms lookup_burst()/insert_burst() group a burst's
// lanes by shard and take each touched shard's lock ONCE — but re-check the
// band marks per shard hold, never hoisted over the burst, so a commit
// landing mid-burst still invalidates at packet granularity (the coherence
// contract is per probe, and amortizing the locking must not weaken it).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"

namespace nuevomatch {

class OnlineNuevoMatch;

namespace pipeline {

/// A cached classification decision (what Dispatch routes on).
struct Decision {
  int32_t rule_id = MatchResult::kNoMatch;
  int32_t priority = 0;
  int32_t action = -1;  ///< resolved rule action; -1 = miss / unknown
};

class FlowCache {
 public:
  static constexpr size_t kWays = 4;
  /// Burst-probe width (mirrors pipeline::kBurstSize; lane masks are u32).
  static constexpr size_t kBurstLanes = 32;
  /// Largest shard count: burst probes group lanes into direct-indexed
  /// per-shard masks, and the touched-shard set is one 64-bit word.
  static constexpr size_t kMaxShards = 64;

  /// `capacity` is rounded up to shards * ways * power-of-two sets. Throws
  /// std::invalid_argument unless 1 <= shards <= kMaxShards.
  explicit FlowCache(size_t capacity, size_t shards = 8);

  /// Couple the cache to an online classifier: current_stamp() follows its
  /// coherence stamp, entries are banded by their decision's priority, and
  /// a mutation invalidates exactly the bands it could have changed. Null
  /// (the default) pins the stamp to a constant — a pure cache for frozen
  /// rule-sets.
  void set_stamp_source(const OnlineNuevoMatch* src) noexcept { stamp_src_ = src; }

  /// The stamp a caller must read BEFORE classifying a missed packet and
  /// pass back to insert() with the computed decision (coherence contract —
  /// see OnlineNuevoMatch::coherence_stamp()).
  [[nodiscard]] uint64_t current_stamp() const noexcept;

  /// Serve a cached decision for `p` if one exists and its band is still
  /// clean. Counts hit/miss/stale statistics (plus the retained/future
  /// sub-counts of hits — see Stats).
  [[nodiscard]] bool lookup(const Packet& p, Decision& out);

  /// Cache `d` for `p`, stamped with `stamp` (from current_stamp(), read
  /// before `d` was computed). An entry whose stamp is already obsolete is
  /// still stored — the next lookup simply rejects it — so callers never
  /// need to re-read the stamp after classifying. A fresher-stamped entry
  /// for the same flow is never downgraded (the drop is counted in
  /// Stats::insert_drops).
  void insert(const Packet& p, const Decision& d, uint64_t stamp);

  /// Burst probe: serve cached decisions for the lanes of `active` (bit i =
  /// pkts[i]), grouping lanes by shard so each touched shard's lock is
  /// taken once. Returns the hit mask; out[i] is written for every hit
  /// lane. Band marks are re-checked inside EACH shard hold — a commit
  /// landing mid-burst invalidates the not-yet-probed shards' lanes exactly
  /// as per-packet probing would. n <= kBurstLanes.
  [[nodiscard]] uint32_t lookup_burst(const Packet* pkts, uint32_t n,
                                      uint32_t active, Decision* out);

  /// Burst fill: insert ds[i] for pkts[i] for every lane in `mask`, all
  /// stamped with `stamp`, grouped by shard like lookup_burst. Semantics
  /// per lane are identical to insert(). n <= kBurstLanes.
  void insert_burst(const Packet* pkts, uint32_t n, uint32_t mask,
                    const Decision* ds, uint64_t stamp);

  /// Drop every entry (bulk reconfiguration; not needed for coherence).
  void clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;    ///< no entry for the key
    uint64_t stale = 0;     ///< entry found but its band was invalidated
    uint64_t inserts = 0;
    uint64_t evictions = 0; ///< inserts that displaced a live entry
    /// Sub-counts of `hits` (telemetry, not part of the denominator):
    /// `retained` hits were served from entries that SURVIVED at least one
    /// commit (entry stamp older than the probe's stamp view) — the
    /// dependency-aware win; `future` hits were served from entries FRESHER
    /// than the probe's stamp view (a concurrent reader refilled the flow
    /// after a commit this probe hasn't observed — the band marks prove the
    /// entry current regardless; the pre-band cache miscounted these as
    /// plain misses).
    uint64_t retained = 0;
    uint64_t future = 0;
    /// insert() calls dropped because a fresher-stamped entry for the same
    /// flow was already cached (previously a silent early return).
    uint64_t insert_drops = 0;
    /// The one probe-outcome denominator: every lookup is exactly one of
    /// hit / miss / stale. Bench and report() both derive from this.
    [[nodiscard]] uint64_t lookups() const noexcept {
      return hits + misses + stale;
    }
    [[nodiscard]] double hit_rate() const noexcept {
      const uint64_t total = lookups();
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
    /// Interval delta (bench sections subtract a baseline snapshot).
    [[nodiscard]] Stats operator-(const Stats& b) const noexcept {
      return Stats{hits - b.hits,           misses - b.misses,
                   stale - b.stale,         inserts - b.inserts,
                   evictions - b.evictions, retained - b.retained,
                   future - b.future,       insert_drops - b.insert_drops};
    }
    /// Sum across caches (telemetry joins every replica's cache).
    Stats& operator+=(const Stats& b) noexcept {
      hits += b.hits;
      misses += b.misses;
      stale += b.stale;
      inserts += b.inserts;
      evictions += b.evictions;
      retained += b.retained;
      future += b.future;
      insert_drops += b.insert_drops;
      return *this;
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Live (non-empty) entries currently resident, summed across shards.
  /// Takes each shard's lock once; a point-in-time occupancy, not a rate.
  [[nodiscard]] size_t size() const;

  [[nodiscard]] size_t capacity() const noexcept;
  [[nodiscard]] size_t shards() const noexcept { return shards_.size(); }

 private:
  struct Entry {
    std::array<uint32_t, kNumFields> key{};
    Decision d;
    uint64_t stamp = kEmpty;
    uint8_t band = 0;  ///< coherence band of `d` (catch-all for misses)
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<Entry> entries;  // sets * kWays
    std::vector<uint8_t> hand;   // per-set round-robin victim cursor
    uint64_t hits = 0, misses = 0, stale = 0, inserts = 0, evictions = 0;
    uint64_t retained = 0, future = 0, insert_drops = 0;
  };

  [[nodiscard]] static uint64_t hash(const Packet& p) noexcept {
    uint64_t h = 14695981039346656037ull;  // FNV-1a over the five fields
    for (const uint32_t v : p.field) {
      h ^= v;
      h *= 1099511628211ull;
    }
    // Finalize: FNV's low bits are weak, and we index sets with them.
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return h;
  }

  /// The band `d` lives in (catch-all for misses; 0 with no stamp source).
  [[nodiscard]] uint8_t band_of(const Decision& d) const noexcept;
  /// Last-invalidation mark for `band` (0 with no stamp source — every
  /// entry is then permanently clean, matching the frozen-rule-set use).
  [[nodiscard]] uint64_t band_mark(uint8_t band) const noexcept;

  /// Scalar probe/fill bodies, run with the shard lock held.
  [[nodiscard]] bool probe_locked(Shard& sh, size_t set, const Packet& p,
                                  uint64_t now, Decision& out);
  void fill_locked(Shard& sh, size_t set, const Packet& p, const Decision& d,
                   uint64_t stamp, uint8_t band);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t sets_per_shard_;  // power of two
  const OnlineNuevoMatch* stamp_src_ = nullptr;
};

}  // namespace pipeline
}  // namespace nuevomatch
