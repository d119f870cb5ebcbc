#include "pipeline/flow_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/failpoint.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/element.hpp"

namespace nuevomatch::pipeline {

FlowCache::FlowCache(size_t capacity)
    : sets_(std::bit_ceil(std::max<size_t>(1, (capacity + kWays - 1) / kWays))),
      entries_(sets_ * kWays),
      hand_(sets_, 0) {}

uint64_t FlowCache::current_stamp() const noexcept {
  return stamp_src_ != nullptr ? stamp_src_->coherence_stamp() : 0;
}

uint8_t FlowCache::band_of(const Decision& d) const noexcept {
  if (stamp_src_ == nullptr) return 0;
  // A miss has no priority; it lives in the catch-all band, which inserts
  // mark (a miss can become a hit) and erases never do (it cannot stop
  // being a miss by removing a rule).
  if (d.rule_id == MatchResult::kNoMatch)
    return static_cast<uint8_t>(OnlineNuevoMatch::kCoherenceCatchAll);
  return static_cast<uint8_t>(stamp_src_->coherence_band(d.priority));
}

uint64_t FlowCache::band_mark(uint8_t band) const noexcept {
  // No stamp source: marks are pinned to 0, so every entry is permanently
  // clean — the frozen-rule-set mode.
  return stamp_src_ != nullptr ? stamp_src_->coherence_band_mark(band) : 0;
}

bool FlowCache::probe(size_t set, const Packet& p, uint64_t now, Decision& out) {
  Entry* base = entries_.data() + set * kWays;
  for (size_t w = 0; w < kWays; ++w) {
    Entry& e = base[w];
    if (e.stamp == kEmpty || e.key != p.field) continue;
    if (band_mark(e.band) > e.stamp) {
      // A commit that could have changed decisions in this entry's band
      // landed after the entry was stamped: the entry is definitively dead,
      // whatever the commit was. Retire it so the way frees up.
      e.stamp = kEmpty;
      live_.store(live_.load(std::memory_order_relaxed) - 1,
                  std::memory_order_relaxed);
      publish_add(stale_, 1);
      return false;
    }
    // The band marks prove the decision current — including when the entry
    // is FRESHER than this probe's stamp view and when it is OLDER (the
    // entry survived commits in other bands — the dependency-aware
    // retention this cache exists for).
    out = e.d;
    publish_add(hits_, 1);
    if (e.stamp < now) {
      publish_add(retained_, 1);
    } else if (e.stamp > now) {
      publish_add(future_, 1);
    }
    return true;
  }
  publish_add(misses_, 1);
  return false;
}

void FlowCache::fill(const Packet& p, const Decision& d, uint64_t stamp) {
  const size_t set = set_of(p);
  Entry* base = entries_.data() + set * kWays;
  Entry* victim = nullptr;
  for (size_t w = 0; w < kWays; ++w) {
    Entry& e = base[w];
    if (e.key == p.field && e.stamp != kEmpty) {
      // The flow is already cached. Never replace a fresher-stamped entry
      // with an older-stamped one: that would downgrade a valid entry into
      // one a same-band commit may already have invalidated.
      if (e.stamp > stamp) {
        publish_add(insert_drops_, 1);
        return;
      }
      victim = &e;  // re-stamp the existing entry for this flow
      break;
    }
    if (victim == nullptr && e.stamp == kEmpty) victim = &e;
  }
  if (victim == nullptr) {
    victim = base + hand_[set];
    hand_[set] = static_cast<uint8_t>((hand_[set] + 1) % kWays);
    publish_add(evictions_, 1);
  } else if (victim->stamp == kEmpty) {
    live_.store(live_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
  victim->key = p.field;
  victim->d = d;
  victim->stamp = stamp;
  victim->band = band_of(d);
  publish_add(inserts_, 1);
}

bool FlowCache::lookup(const Packet& p, Decision& out) {
  // The stamp view is only hit-accounting context (retained/future); the
  // serve/retire verdict comes from the per-band marks inside probe().
  return probe(set_of(p), p, current_stamp(), out);
}

void FlowCache::insert(const Packet& p, const Decision& d, uint64_t stamp) {
  if (failpoint::should_fire(failpoint::kPipelineCacheInsert))
    throw std::runtime_error("injected: pipeline.cache.insert");
  if (stamp == kEmpty) return;  // reserved sentinel; unreachable in practice
  fill(p, d, stamp);
}

namespace {
/// The lanes of `mask` below min(n, kBurstLanes).
uint32_t burst_lanes(uint32_t n, uint32_t mask) noexcept {
  return n >= FlowCache::kBurstLanes ? mask : mask & ((1u << n) - 1);
}
}  // namespace

uint32_t FlowCache::lookup_burst(const Packet* pkts, uint32_t n,
                                 uint32_t active, Decision* out) {
  // One stamp view per burst is enough for hit accounting; the band marks
  // are still read per lane inside probe().
  const uint64_t now = current_stamp();
  const uint32_t lanes = burst_lanes(n, active);
  // Pass 1: hash every lane and start loading its set's lines, so the
  // lanes' cache misses overlap instead of each probe waiting for its own.
  std::array<size_t, kBurstLanes> set{};
  for (uint32_t m = lanes; m != 0; m &= m - 1) {
    const auto i = static_cast<uint32_t>(std::countr_zero(m));
    set[i] = set_of(pkts[i]);
    // A probe reads every way's key and stamp. The set is not line-aligned,
    // so touch each 64-byte step and its last byte.
    const auto* ways = reinterpret_cast<const char*>(entries_.data() + set[i] * kWays);
    for (size_t off = 0; off < kWays * sizeof(Entry); off += 64) __builtin_prefetch(ways + off);
    __builtin_prefetch(ways + kWays * sizeof(Entry) - 1);
  }
  // Pass 2: probe in lane order — the per-lane lookup() exactly.
  uint32_t hit_mask = 0;
  for (uint32_t m = lanes; m != 0; m &= m - 1) {
    const auto i = static_cast<uint32_t>(std::countr_zero(m));
    if (probe(set[i], pkts[i], now, out[i])) hit_mask |= 1u << i;
  }
  return hit_mask;
}

void FlowCache::insert_burst(const Packet* pkts, uint32_t n, uint32_t mask,
                             const Decision* ds, uint64_t stamp) {
  if (mask != 0 && failpoint::should_fire(failpoint::kPipelineCacheInsert))
    throw std::runtime_error("injected: pipeline.cache.insert");
  if (stamp == kEmpty) return;
  for (uint32_t m = burst_lanes(n, mask); m != 0; m &= m - 1) {
    const auto i = static_cast<uint32_t>(std::countr_zero(m));
    fill(pkts[i], ds[i], stamp);
  }
}

void FlowCache::clear() {
  for (Entry& e : entries_) e.stamp = kEmpty;
  for (uint8_t& hd : hand_) hd = 0;
  live_.store(0, std::memory_order_relaxed);
}

FlowCache::Stats FlowCache::stats() const noexcept {
  constexpr auto r = std::memory_order_relaxed;
  return Stats{hits_.load(r),     misses_.load(r),    stale_.load(r),
               inserts_.load(r),  evictions_.load(r), retained_.load(r),
               future_.load(r),   insert_drops_.load(r)};
}

}  // namespace nuevomatch::pipeline
