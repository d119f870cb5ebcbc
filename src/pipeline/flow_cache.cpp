#include "pipeline/flow_cache.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "common/failpoint.hpp"
#include "nuevomatch/online.hpp"

namespace nuevomatch::pipeline {

FlowCache::FlowCache(size_t capacity, size_t shards) {
  if (shards == 0 || shards > kMaxShards)
    throw std::invalid_argument("FlowCache shard count must be 1.." +
                                std::to_string(kMaxShards));
  if (capacity < shards * kWays) capacity = shards * kWays;
  sets_per_shard_ = std::bit_ceil((capacity / shards + kWays - 1) / kWays);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->entries.resize(sets_per_shard_ * kWays);
    sh->hand.resize(sets_per_shard_, 0);
    shards_.push_back(std::move(sh));
  }
}

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

bool FlowCache::probe_locked(Shard& sh, size_t set, const Packet& p,
                             uint64_t now, Decision& out) {
  Entry* base = sh.entries.data() + set * kWays;
  for (size_t w = 0; w < kWays; ++w) {
    Entry& e = base[w];
    if (e.stamp == kEmpty || e.key != p.field) continue;
    if (band_mark(e.band) > e.stamp) {
      // A commit that could have changed decisions in this entry's band
      // landed after the entry was stamped: the entry is definitively dead,
      // whatever the commit was. Retire it so the way frees up.
      e.stamp = kEmpty;
      ++sh.stale;
      return false;
    }
    // The band marks prove the decision current — including when the entry
    // is FRESHER than our own stamp view (a concurrent reader refilled the
    // flow after a commit we haven't observed; pre-band code miscounted
    // that as a miss) and when it is OLDER (the entry survived commits in
    // other bands — the dependency-aware retention this cache exists for).
    out = e.d;
    ++sh.hits;
    if (e.stamp < now) {
      ++sh.retained;
    } else if (e.stamp > now) {
      ++sh.future;
    }
    return true;
  }
  ++sh.misses;
  return false;
}

void FlowCache::fill_locked(Shard& sh, size_t set, const Packet& p,
                            const Decision& d, uint64_t stamp, uint8_t band) {
  Entry* base = sh.entries.data() + set * kWays;
  Entry* victim = nullptr;
  for (size_t w = 0; w < kWays; ++w) {
    Entry& e = base[w];
    if (e.key == p.field && e.stamp != kEmpty) {
      // The flow is already cached. Never replace a fresher-stamped entry
      // with an older-stamped one: a reader whose burst-level stamp read
      // predates a concurrent refill would otherwise downgrade a valid
      // entry into one a same-band commit already invalidated.
      if (e.stamp > stamp) {
        ++sh.insert_drops;
        return;
      }
      victim = &e;  // re-stamp the existing entry for this flow
      break;
    }
    if (victim == nullptr && e.stamp == kEmpty) victim = &e;
  }
  if (victim == nullptr) {
    victim = base + sh.hand[set];
    sh.hand[set] = static_cast<uint8_t>((sh.hand[set] + 1) % kWays);
    ++sh.evictions;
  }
  victim->key = p.field;
  victim->d = d;
  victim->stamp = stamp;
  victim->band = band;
  ++sh.inserts;
}

bool FlowCache::lookup(const Packet& p, Decision& out) {
  const uint64_t h = hash(p);
  Shard& sh = *shards_[h % shards_.size()];
  const size_t set = (h / shards_.size()) & (sets_per_shard_ - 1);
  // The stamp view is only hit-accounting context (retained/future); the
  // serve/retire verdict comes from the per-band marks inside the lock.
  const uint64_t now = current_stamp();
  std::lock_guard lk{sh.mu};
  return probe_locked(sh, set, p, now, out);
}

void FlowCache::insert(const Packet& p, const Decision& d, uint64_t stamp) {
  if (failpoint::should_fire(failpoint::kPipelineCacheInsert))
    throw std::runtime_error("injected: pipeline.cache.insert");
  if (stamp == kEmpty) return;  // reserved sentinel; unreachable in practice
  const uint64_t h = hash(p);
  Shard& sh = *shards_[h % shards_.size()];
  const size_t set = (h / shards_.size()) & (sets_per_shard_ - 1);
  const uint8_t band = band_of(d);
  std::lock_guard lk{sh.mu};
  fill_locked(sh, set, p, d, stamp, band);
}

uint32_t FlowCache::lookup_burst(const Packet* pkts, uint32_t n,
                                 uint32_t active, Decision* out) {
  if (n > kBurstLanes) n = kBurstLanes;
  const uint32_t lanes = n == kBurstLanes ? active : active & ((1u << n) - 1);
  uint32_t hit_mask = 0;
  std::array<uint32_t, kBurstLanes> set_of;
  // One pass buckets the lanes into per-shard masks, then each touched
  // shard's lock is taken ONCE and the scalar probe body runs for its
  // lanes. The band marks (and the stamp view for hit accounting) are read
  // fresh per shard hold — NOT hoisted over the burst — so a commit landing
  // mid-burst invalidates the lanes of every not-yet-probed shard exactly
  // as per-packet probing would.
  std::array<uint32_t, kMaxShards> shard_mask{};
  uint64_t touched = 0;
  for (uint32_t m = lanes; m != 0; m &= m - 1) {
    const auto i = static_cast<uint32_t>(std::countr_zero(m));
    const uint64_t h = hash(pkts[i]);
    const auto s = static_cast<uint32_t>(h % shards_.size());
    set_of[i] =
        static_cast<uint32_t>((h / shards_.size()) & (sets_per_shard_ - 1));
    shard_mask[s] |= 1u << i;
    touched |= uint64_t{1} << s;
  }
  for (; touched != 0; touched &= touched - 1) {
    const auto s = static_cast<uint32_t>(std::countr_zero(touched));
    Shard& sh = *shards_[s];
    const uint64_t now = current_stamp();
    std::lock_guard lk{sh.mu};
    for (uint32_t m = shard_mask[s]; m != 0; m &= m - 1) {
      const auto i = static_cast<uint32_t>(std::countr_zero(m));
      if (probe_locked(sh, set_of[i], pkts[i], now, out[i]))
        hit_mask |= 1u << i;
    }
  }
  return hit_mask;
}

void FlowCache::insert_burst(const Packet* pkts, uint32_t n, uint32_t mask,
                             const Decision* ds, uint64_t stamp) {
  if (mask != 0 && failpoint::should_fire(failpoint::kPipelineCacheInsert))
    throw std::runtime_error("injected: pipeline.cache.insert");
  if (stamp == kEmpty) return;
  if (n > kBurstLanes) n = kBurstLanes;
  const uint32_t lanes = n == kBurstLanes ? mask : mask & ((1u << n) - 1);
  std::array<uint32_t, kBurstLanes> set_of;
  std::array<uint8_t, kBurstLanes> band;
  std::array<uint32_t, kMaxShards> shard_mask{};
  uint64_t touched = 0;
  for (uint32_t m = lanes; m != 0; m &= m - 1) {
    const auto i = static_cast<uint32_t>(std::countr_zero(m));
    const uint64_t h = hash(pkts[i]);
    const auto s = static_cast<uint32_t>(h % shards_.size());
    set_of[i] =
        static_cast<uint32_t>((h / shards_.size()) & (sets_per_shard_ - 1));
    band[i] = band_of(ds[i]);
    shard_mask[s] |= 1u << i;
    touched |= uint64_t{1} << s;
  }
  for (; touched != 0; touched &= touched - 1) {
    const auto s = static_cast<uint32_t>(std::countr_zero(touched));
    Shard& sh = *shards_[s];
    std::lock_guard lk{sh.mu};
    for (uint32_t m = shard_mask[s]; m != 0; m &= m - 1) {
      const auto i = static_cast<uint32_t>(std::countr_zero(m));
      fill_locked(sh, set_of[i], pkts[i], ds[i], stamp, band[i]);
    }
  }
}

void FlowCache::clear() {
  for (auto& sh : shards_) {
    std::lock_guard lk{sh->mu};
    for (Entry& e : sh->entries) e.stamp = kEmpty;
    for (uint8_t& hd : sh->hand) hd = 0;
  }
}

FlowCache::Stats FlowCache::stats() const {
  Stats s;
  for (const auto& sh : shards_) {
    std::lock_guard lk{sh->mu};
    s.hits += sh->hits;
    s.misses += sh->misses;
    s.stale += sh->stale;
    s.inserts += sh->inserts;
    s.evictions += sh->evictions;
    s.retained += sh->retained;
    s.future += sh->future;
    s.insert_drops += sh->insert_drops;
  }
  return s;
}

size_t FlowCache::size() const {
  size_t live = 0;
  for (const auto& sh : shards_) {
    std::lock_guard lk{sh->mu};
    for (const Entry& e : sh->entries)
      if (e.stamp != kEmpty) ++live;
  }
  return live;
}

size_t FlowCache::capacity() const noexcept {
  return shards_.size() * sets_per_shard_ * kWays;
}

}  // namespace nuevomatch::pipeline
