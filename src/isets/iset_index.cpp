#include "isets/iset_index.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "common/mem.hpp"
#include "rqrmi/arch.hpp"
#include "rqrmi/kernel.hpp"

#if NM_X86_KERNELS
#include <immintrin.h>
#endif

namespace nuevomatch {

namespace {

#if NM_X86_KERNELS
/// count_leq over 8 lanes per step (paper Section 4: field values are packed
/// so the secondary search walks whole cache lines). Unsigned compare via
/// sign-bit bias; lanes are counted with popcount.
__attribute__((target("avx2"))) size_t count_leq_avx2(const uint32_t* begin, size_t count,
                                                       uint32_t v) noexcept {
  const __m256i bias = _mm256_set1_epi32(static_cast<int32_t>(0x80000000u));
  const __m256i vv =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int32_t>(v)), bias);
  size_t n = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(begin + i));
    const __m256i x = _mm256_xor_si256(raw, bias);
    const __m256i gt = _mm256_cmpgt_epi32(x, vv);
    const auto gt_mask =
        static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(gt)));
    n += 8 - static_cast<size_t>(__builtin_popcount(gt_mask));
    if (gt_mask != 0) return n;  // sorted: nothing after can be <= v
  }
  for (; i < count; ++i) {
    if (begin[i] > v) break;
    ++n;
  }
  return n;
}
#endif

size_t count_leq_serial(const uint32_t* begin, size_t count, uint32_t v) noexcept {
  return static_cast<size_t>(std::upper_bound(begin, begin + count, v) - begin);
}

/// The search path's count_leq: the AVX2 kernel when the RQ-RMI batch
/// kernels' rule picks it — the NM_SIMD_MAX-capped ceiling is kAvx and the
/// CPU has AVX2 — decided once.
size_t count_leq_default(const uint32_t* begin, size_t count, uint32_t v) noexcept {
#if NM_X86_KERNELS
  static const bool avx2 =
      rqrmi::batch_level(rqrmi::dispatch_ceiling()) == rqrmi::SimdLevel::kAvx;
  if (avx2) return count_leq_avx2(begin, count, v);
#endif
  return count_leq_serial(begin, count, v);
}

}  // namespace

size_t count_leq(const uint32_t* begin, size_t count, uint32_t v,
                 rqrmi::SimdLevel level) noexcept {
#if NM_X86_KERNELS
  if (rqrmi::batch_level(level) == rqrmi::SimdLevel::kAvx)
    return count_leq_avx2(begin, count, v);
#endif
  return count_leq_serial(begin, count, v);
}

void IsetIndex::index_rules() {
  domain_ = kFieldDomain[static_cast<size_t>(field_)];
  inv_domain_ = rqrmi::normalize_reciprocal(domain_);
  live_ = rules_.size();
  lo_.resize(rules_.size());
  hi_.resize(rules_.size());
  prio_.resize(rules_.size());
  id_.resize(rules_.size());
  shape_.resize(rules_.size());
  alive_.assign(rules_.size(), 1);
  pos_by_id_.clear();
  pos_by_id_.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    const Range& r = rules_[i].field[static_cast<size_t>(field_)];
    lo_[i] = r.lo;
    hi_[i] = r.hi;
    prio_[i] = rules_[i].priority;
    id_[i] = rules_[i].id;
    bool wild = true;
    for (int f = 0; f < kNumFields; ++f)
      if (f != field_ && !rules_[i].is_wildcard(f)) wild = false;
    shape_[i] = wild ? kWildRest : 0;
    pos_by_id_.emplace(rules_[i].id, static_cast<uint32_t>(i));
    if (i > 0 && lo_[i] <= hi_[i - 1])
      throw std::invalid_argument{"IsetIndex: rules must be disjoint and sorted in field"};
  }
}

void IsetIndex::build(int field, std::vector<Rule> rules, const rqrmi::RqRmiConfig& cfg) {
  field_ = field;
  rules_ = std::move(rules);
  index_rules();
  std::vector<rqrmi::KeyInterval> intervals;
  intervals.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    intervals.push_back(rqrmi::KeyInterval{
        rqrmi::normalize_key_exact(lo_[i], domain_),
        rqrmi::normalize_key_exact(static_cast<uint64_t>(hi_[i]) + 1, domain_),
        static_cast<uint32_t>(i)});
  }
  model_.build(std::move(intervals), cfg);
}

void IsetIndex::restore(int field, std::vector<Rule> rules, rqrmi::RqRmi model) {
  if (model.num_intervals() != rules.size())
    throw std::invalid_argument{"IsetIndex::restore: model/rule count mismatch"};
  field_ = field;
  rules_ = std::move(rules);
  index_rules();
  model_ = std::move(model);
}

rqrmi::Prediction IsetIndex::predict(uint32_t v, rqrmi::SimdLevel level) const noexcept {
  return model_.lookup(rqrmi::normalize_key_mul(v, inv_domain_), level);
}

void IsetIndex::predict_batch(std::span<const uint32_t> values,
                              std::span<rqrmi::Prediction> out,
                              rqrmi::SimdLevel level) const noexcept {
  constexpr size_t kChunk = 64;
  float keys[kChunk];
  for (size_t base = 0; base < values.size(); base += kChunk) {
    const size_t m = std::min(kChunk, values.size() - base);
    for (size_t t = 0; t < m; ++t)
      keys[t] = rqrmi::normalize_key_mul(values[base + t], inv_domain_);
    model_.lookup_batch(std::span<const float>{keys, m}, out.subspan(base, m), level);
  }
}

int32_t IsetIndex::search(uint32_t v, const rqrmi::Prediction& pred) const noexcept {
  if (lo_.empty()) return -1;
  const auto n = static_cast<int64_t>(lo_.size());
  const int64_t first =
      std::max<int64_t>(0, static_cast<int64_t>(pred.index) - pred.search_error);
  const int64_t last =
      std::min<int64_t>(n - 1, static_cast<int64_t>(pred.index) + pred.search_error);
  if (first > last) return -1;
  // Last position in the window with lo <= v (ranges are disjoint & sorted,
  // so it is the only one that can contain v).
  const size_t leq = count_leq_default(lo_.data() + first,
                                       static_cast<size_t>(last - first + 1), v);
  if (leq == 0) return -1;
  const size_t pos = static_cast<size_t>(first) + leq - 1;
  if (hi_[pos] < v) return -1;
  // Start the loads validate() makes, so they overlap with the searches of
  // other iSets and packets instead of waiting behind them. A 52-byte Rule
  // can straddle two cache lines: touch its first and last byte.
  __builtin_prefetch(prio_.data() + pos);
  __builtin_prefetch(alive_.data() + pos);
  __builtin_prefetch(shape_.data() + pos);
  const auto* body = reinterpret_cast<const char*>(rules_.data() + pos);
  __builtin_prefetch(body);
  __builtin_prefetch(body + sizeof(Rule) - 1);
  return static_cast<int32_t>(pos);
}

void IsetIndex::search_batch(std::span<const uint32_t> values,
                             std::span<const rqrmi::Prediction> preds,
                             std::span<int32_t> out) const noexcept {
  for (size_t i = 0; i < values.size(); ++i) out[i] = search(values[i], preds[i]);
}

MatchResult IsetIndex::validate(int32_t pos, const Packet& p,
                                int32_t priority_floor) const noexcept {
  if (pos < 0) return MatchResult{};
  const auto i = static_cast<size_t>(pos);
  // Packed metadata first: a candidate that cannot beat the floor, or whose
  // other fields are wildcards, never needs its rule body fetched.
  if (prio_[i] >= priority_floor || alive_load(i) == 0) return MatchResult{};
  if ((shape_[i] & kWildRest) != 0)
    return MatchResult{static_cast<int32_t>(id_[i]), prio_[i]};
  const Rule& r = rules_[i];
  if (!r.matches(p)) return MatchResult{};
  return MatchResult{static_cast<int32_t>(r.id), r.priority};
}

MatchResult IsetIndex::lookup(const Packet& p, int32_t priority_floor) const noexcept {
  const uint32_t v = p[field_];
  return validate(search(v, predict(v)), p, priority_floor);
}

bool IsetIndex::erase(uint32_t rule_id) noexcept {
  const auto it = pos_by_id_.find(rule_id);
  if (it == pos_by_id_.end() || alive_load(it->second) == 0) return false;
  alive_store(it->second, 0);
  --live_;
  return true;
}

namespace {

/// (priority, id) packed so that unsigned key order is MatchResult::beats
/// order: a smaller key outranks a larger one.
uint64_t rank_key(int32_t priority, uint32_t id) noexcept {
  return (static_cast<uint64_t>(static_cast<uint32_t>(priority) ^ 0x80000000u) << 32) | id;
}

bool boxes_overlap(const Rule& a, const Rule& b) noexcept {
  for (size_t f = 0; f < kNumFields; ++f)
    if (!a.field[f].overlaps(b.field[f])) return false;
  return true;
}

struct Ranked {
  uint64_t key;
  uint32_t pos;
};

/// Positions 0..n-1 ordered by rank_key, best first: an LSD radix sort, one
/// byte per pass, skipping the bytes on which every key agrees.
std::vector<Ranked> rank_order(const std::vector<int32_t>& prio,
                               const std::vector<uint32_t>& id) {
  const size_t n = prio.size();
  std::vector<Ranked> a(n), tmp(n);
  std::array<std::array<uint32_t, 256>, 8> hist{};
  for (size_t i = 0; i < n; ++i) {
    a[i] = Ranked{rank_key(prio[i], id[i]), static_cast<uint32_t>(i)};
    for (size_t b = 0; b < 8; ++b) ++hist[b][(a[i].key >> (8 * b)) & 0xFF];
  }
  for (size_t b = 0; b < 8; ++b) {
    auto& h = hist[b];
    if (h[(a[0].key >> (8 * b)) & 0xFF] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : h) sum += std::exchange(c, sum);
    for (const Ranked& r : a) tmp[h[(r.key >> (8 * b)) & 0xFF]++] = r;
    a.swap(tmp);
  }
  return a;
}

/// Smallest overlap range worth a rank order: narrower ranges are scanned
/// directly.
constexpr size_t kNarrowRange = 64;

}  // namespace

std::pair<size_t, size_t> IsetIndex::overlap_range(const Rule& r) const noexcept {
  // The ranges are disjoint and sorted, so both ends ascend and the rules
  // overlapping r in this field are one contiguous run.
  const Range& f = r.field[static_cast<size_t>(field_)];
  const auto first = static_cast<size_t>(
      std::partition_point(hi_.begin(), hi_.end(), [&](uint32_t h) { return h < f.lo; }) -
      hi_.begin());
  const auto last =
      static_cast<size_t>(std::upper_bound(lo_.begin(), lo_.end(), f.hi) - lo_.begin());
  return {first, std::max(first, last)};
}

void IsetIndex::mark_range(const Rule& r, size_t first, size_t last) noexcept {
  const uint64_t key = rank_key(r.priority, r.id);
  for (size_t i = first; i < last; ++i) {
    if ((shape_[i] & kNeedsRemainder) == 0 && key < rank_key(prio_[i], id_[i]) &&
        boxes_overlap(rules_[i], r))
      shape_[i] |= kNeedsRemainder;
  }
}

void IsetIndex::mark_remainder(std::span<const Rule> remainder) {
  for (uint8_t& s : shape_) s &= static_cast<uint8_t>(~kNeedsRemainder);
  std::vector<Ranked> by_rank;
  for (const Rule& r : remainder) {
    const auto [first, last] = overlap_range(r);
    if (last - first > kNarrowRange) {
      if (by_rank.empty()) by_rank = rank_order(prio_, id_);
      const uint64_t key = rank_key(r.priority, r.id);
      const auto worse = std::partition_point(
          by_rank.begin(), by_rank.end(), [&](const Ranked& w) { return w.key <= key; });
      if (static_cast<size_t>(by_rank.end() - worse) < last - first) {
        for (auto it = worse; it != by_rank.end(); ++it) {
          uint8_t& s = shape_[it->pos];
          if ((s & kNeedsRemainder) == 0 && boxes_overlap(rules_[it->pos], r))
            s |= kNeedsRemainder;
        }
        continue;
      }
    }
    mark_range(r, first, last);
  }
}

void IsetIndex::mark_remainder_rule(const Rule& r) noexcept {
  const auto [first, last] = overlap_range(r);
  mark_range(r, first, last);
}

size_t IsetIndex::rule_storage_bytes() const noexcept {
  return lo_.size() * sizeof(uint32_t) + hi_.size() * sizeof(uint32_t) +
         prio_.size() * sizeof(int32_t) + id_.size() * sizeof(uint32_t) +
         shape_.size() + rules_.size() * sizeof(Rule) + alive_.size() +
         map_overhead_bytes(pos_by_id_);
}

}  // namespace nuevomatch
