#include "tuplemerge/tuple_table.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/prefix.hpp"

namespace nuevomatch {

namespace {

uint64_t hash_key(const std::array<uint32_t, kNumFields>& key) noexcept {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (uint32_t v : key) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
  }
  return h;
}

/// Overflow is folded into the flat layout once it exceeds this fraction of
/// the table (or this many entries on small tables). Folding costs O(table)
/// but runs once per kOverflowSlack..n/32 inserts, keeping inserts O(1)
/// amortized while the linear-scan region stays a few cache lines.
constexpr size_t kOverflowSlack = 16;

size_t bucket_count_for(size_t entries) noexcept {
  size_t want = 16;
  while (want < entries * 2) want <<= 1;  // target load ~0.5
  return want;
}

}  // namespace

int field_bits(int f) noexcept {
  switch (f) {
    case kSrcIp:
    case kDstIp: return 32;
    case kSrcPort:
    case kDstPort: return 16;
    default: return 8;
  }
}

uint32_t mask_field(uint32_t v, int field, uint8_t len) noexcept {
  const int bits = field_bits(field);
  if (len == 0) return 0;
  if (len >= bits) return v;
  return v & (~0u << (bits - len));
}

TupleMask tuple_of(const Rule& r) noexcept {
  TupleMask t;
  for (int f = 0; f < kNumFields; ++f) {
    const Range& rg = r.field[static_cast<size_t>(f)];
    const int bits = field_bits(f);
    if (rg.is_exact()) {
      t.len[static_cast<size_t>(f)] = static_cast<uint8_t>(bits);
    } else if (bits == 32) {
      const auto len = range_to_prefix_len(rg);
      t.len[static_cast<size_t>(f)] = static_cast<uint8_t>(len.value_or(0));
    } else {
      // Non-exact port/proto ranges are verified at candidate check.
      t.len[static_cast<size_t>(f)] = 0;
    }
  }
  return t;
}

TupleTable::TupleTable(TupleMask mask)
    : mask_(mask), heads_(16, 0), counts_(16, 0) {}

std::array<uint32_t, kNumFields> TupleTable::key_of(const Rule& r) const noexcept {
  std::array<uint32_t, kNumFields> key{};
  for (int f = 0; f < kNumFields; ++f)
    key[static_cast<size_t>(f)] =
        mask_field(r.field[static_cast<size_t>(f)].lo, f, mask_.len[static_cast<size_t>(f)]);
  return key;
}

size_t TupleTable::bucket_of(const std::array<uint32_t, kNumFields>& key) const noexcept {
  return hash_key(key) & (heads_.size() - 1);
}

void TupleTable::rebuild(std::vector<Entry> live) {
  n_entries_ = live.size();
  n_dead_ = 0;
  overflow_.clear();
  const size_t n_buckets = bucket_count_for(live.size());
  heads_.assign(n_buckets, 0);
  counts_.assign(n_buckets, 0);

  // Group by bucket, order by rank inside each bucket so probes can
  // terminate at the first entry that cannot beat the current best.
  std::vector<std::pair<uint32_t, uint32_t>> order;  // (bucket, index in live)
  order.reserve(live.size());
  for (uint32_t i = 0; i < live.size(); ++i)
    order.emplace_back(static_cast<uint32_t>(bucket_of(live[i].key)), i);
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return live[a.second].rank < live[b.second].rank;
  });
  entries_.clear();
  entries_.reserve(live.size());
  for (const auto& [bucket, idx] : order) {
    if (counts_[bucket] == 0) heads_[bucket] = static_cast<uint32_t>(entries_.size());
    ++counts_[bucket];
    entries_.push_back(live[idx]);
  }
  recompute_stats();
}

void TupleTable::compact() {
  std::vector<Entry> live = all_entries();
  rebuild(std::move(live));
}

void TupleTable::insert(const Rule& r, uint32_t rule_pos) {
  Entry e;
  e.key = key_of(r);
  e.rule_pos = rule_pos;
  e.rank = rule_rank(r.priority, r.id);
  overflow_.push_back(e);
  ++n_entries_;
  best_rank_ = std::min(best_rank_, e.rank);
  // Same-key multiplicity for the split trigger: count key twins.
  size_t twins = 1;
  const size_t b = bucket_of(e.key);
  for (uint32_t i = heads_[b], c = 0; c < counts_[b]; ++i, ++c)
    if (entries_[i].rule_pos != kDead && entries_[i].key == e.key) ++twins;
  for (const Entry& o : overflow_)
    if (o.rule_pos != rule_pos && o.key == e.key) ++twins;
  max_chain_ = std::max(max_chain_, twins);

  if (overflow_.size() > std::max(kOverflowSlack, n_entries_ / 32)) compact();
}

bool TupleTable::erase(uint32_t rule_pos, const Rule& r) {
  const auto key = key_of(r);
  const size_t b = bucket_of(key);
  for (uint32_t i = heads_[b], c = 0; c < counts_[b]; ++i, ++c) {
    Entry& e = entries_[i];
    if (e.rule_pos == rule_pos && e.key == key) {
      e.rule_pos = kDead;
      --n_entries_;
      ++n_dead_;
      if (n_dead_ > n_entries_ / 2) compact();
      recompute_stats();
      return true;
    }
  }
  for (size_t i = 0; i < overflow_.size(); ++i) {
    if (overflow_[i].rule_pos == rule_pos && overflow_[i].key == key) {
      overflow_.erase(overflow_.begin() + static_cast<long>(i));
      --n_entries_;
      recompute_stats();
      return true;
    }
  }
  return false;
}

void TupleTable::probe_best(const Packet& p, std::span<const Rule> rules,
                            std::span<const uint8_t> alive,
                            uint64_t& best) const noexcept {
  std::array<uint32_t, kNumFields> key{};
  for (int f = 0; f < kNumFields; ++f)
    key[static_cast<size_t>(f)] = mask_field(p[f], f, mask_.len[static_cast<size_t>(f)]);
  const size_t b = bucket_of(key);
  for (uint32_t i = heads_[b], c = 0; c < counts_[b]; ++i, ++c) {
    const Entry& e = entries_[i];
    if (e.rank >= best) break;  // bucket sorted by rank
    if (e.rule_pos == kDead || e.key != key) continue;
    if (alive[e.rule_pos] && rules[e.rule_pos].matches(p)) best = e.rank;
  }
  for (const Entry& e : overflow_) {
    if (e.rank >= best || e.key != key) continue;
    if (alive[e.rule_pos] && rules[e.rule_pos].matches(p)) best = e.rank;
  }
}

void TupleTable::recompute_stats() noexcept {
  max_chain_ = 0;
  best_rank_ = std::numeric_limits<uint64_t>::max();
  std::unordered_map<uint64_t, size_t> per_key;
  const auto account = [&](const Entry& e) {
    if (e.rule_pos == kDead) return;
    best_rank_ = std::min(best_rank_, e.rank);
    max_chain_ = std::max(max_chain_, ++per_key[hash_key(e.key)]);
  };
  for (const Entry& e : entries_) account(e);
  for (const Entry& e : overflow_) account(e);
}

std::vector<TupleTable::Entry> TupleTable::extract_tuple(const TupleMask& t,
                                                         std::span<const Rule> rules) {
  std::vector<Entry> moved;
  for (Entry& e : entries_) {
    if (e.rule_pos != kDead && tuple_of(rules[e.rule_pos]) == t) {
      moved.push_back(e);
      e.rule_pos = kDead;
      --n_entries_;
      ++n_dead_;
    }
  }
  for (size_t i = overflow_.size(); i-- > 0;) {
    if (tuple_of(rules[overflow_[i].rule_pos]) == t) {
      moved.push_back(overflow_[i]);
      overflow_.erase(overflow_.begin() + static_cast<long>(i));
      --n_entries_;
    }
  }
  recompute_stats();
  return moved;
}

std::vector<TupleTable::Entry> TupleTable::all_entries() const {
  std::vector<Entry> out;
  out.reserve(n_entries_);
  for (const Entry& e : entries_) {
    if (e.rule_pos != kDead) out.push_back(e);
  }
  for (const Entry& e : overflow_) out.push_back(e);
  return out;
}

size_t TupleTable::memory_bytes() const noexcept {
  return (entries_.size() + overflow_.size()) * sizeof(Entry) +
         heads_.size() * (sizeof(uint32_t) + sizeof(uint32_t));
}

}  // namespace nuevomatch
