#include "isets/iset_index.hpp"

#include <algorithm>
#include <stdexcept>

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
  wild_rest_.resize(rules_.size());
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
    wild_rest_[i] = wild ? 1 : 0;
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
  __builtin_prefetch(wild_rest_.data() + pos);
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
  if (wild_rest_[i])
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

size_t IsetIndex::rule_storage_bytes() const noexcept {
  return lo_.size() * sizeof(uint32_t) + hi_.size() * sizeof(uint32_t) +
         prio_.size() * sizeof(int32_t) + id_.size() * sizeof(uint32_t) +
         wild_rest_.size() + rules_.size() * sizeof(Rule) + alive_.size() +
         map_overhead_bytes(pos_by_id_);
}

}  // namespace nuevomatch
