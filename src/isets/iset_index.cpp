#include "isets/iset_index.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
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
/// sign-bit bias; lanes are counted with popcount. The partial last chunk is
/// a masked load: masked-off lanes are neither read nor counted.
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
  const size_t rest = count - i;
  if (rest == 0) return n;
  const __m256i live = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int32_t>(rest)),
                                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i raw = _mm256_maskload_epi32(reinterpret_cast<const int*>(begin + i), live);
  const __m256i gt = _mm256_and_si256(_mm256_cmpgt_epi32(_mm256_xor_si256(raw, bias), vv), live);
  const auto gt_mask = static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(gt)));
  return n + rest - static_cast<size_t>(__builtin_popcount(gt_mask));
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

void IsetIndex::index_rules(std::span<const Rule> rules) {
  domain_ = kFieldDomain[static_cast<size_t>(field_)];
  inv_domain_ = rqrmi::normalize_reciprocal(domain_);
  live_ = rules.size();
  lo_.resize(rules.size());
  slots_.assign(rules.size(), Slot{});
  pos_by_id_.clear();
  pos_by_id_.reserve(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    const Range& r = rules[i].field[static_cast<size_t>(field_)];
    if (i > 0 && r.lo <= slots_[i - 1].rule.field[static_cast<size_t>(field_)].hi)
      throw std::invalid_argument{"IsetIndex: rules must be disjoint and sorted in field"};
    lo_[i] = r.lo;
    bool wild = true;
    for (int f = 0; f < kNumFields; ++f)
      if (f != field_ && !rules[i].is_wildcard(f)) wild = false;
    slots_[i].rule = rules[i];
    slots_[i].shape = wild ? kWildRest : 0;
    pos_by_id_.emplace(rules[i].id, static_cast<uint32_t>(i));
  }
}

void IsetIndex::build(int field, std::vector<Rule> rules, const rqrmi::RqRmiConfig& cfg) {
  field_ = field;
  index_rules(rules);
  std::vector<rqrmi::KeyInterval> intervals;
  intervals.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Range& r = slots_[i].rule.field[static_cast<size_t>(field_)];
    intervals.push_back(rqrmi::KeyInterval{
        rqrmi::normalize_key_exact(r.lo, domain_),
        rqrmi::normalize_key_exact(static_cast<uint64_t>(r.hi) + 1, domain_),
        static_cast<uint32_t>(i)});
  }
  model_.build(std::move(intervals), cfg);
}

void IsetIndex::restore(int field, std::vector<Rule> rules, rqrmi::RqRmi model) {
  if (model.num_intervals() != rules.size())
    throw std::invalid_argument{"IsetIndex::restore: model/rule count mismatch"};
  field_ = field;
  index_rules(rules);
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
  // so it is the only one that can contain v). Whether its range reaches v
  // is validate()'s first check on the slot, so nothing here waits for the
  // slot: start its load and let it overlap with the searches of other
  // iSets and packets.
  const size_t leq = count_leq_default(lo_.data() + first,
                                       static_cast<size_t>(last - first + 1), v);
  if (leq == 0) return -1;
  const size_t pos = static_cast<size_t>(first) + leq - 1;
  __builtin_prefetch(slots_.data() + pos);
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
  const Slot& s = slots_[static_cast<size_t>(pos)];
  const Rule& r = s.rule;
  if (r.priority >= priority_floor || alive_load(s) == 0) return MatchResult{};
  // search() checked lo <= v only: a value in the gap after this range
  // lands here too.
  if (r.field[static_cast<size_t>(field_)].hi < p[field_]) return MatchResult{};
  if ((s.shape & kWildRest) == 0 && !r.matches(p)) return MatchResult{};
  return MatchResult{static_cast<int32_t>(r.id), r.priority};
}

MatchResult IsetIndex::lookup(const Packet& p, int32_t priority_floor) const noexcept {
  const uint32_t v = p[field_];
  return validate(search(v, predict(v)), p, priority_floor);
}

bool IsetIndex::erase(uint32_t rule_id) noexcept {
  const auto it = pos_by_id_.find(rule_id);
  if (it == pos_by_id_.end() || alive_load(slots_[it->second]) == 0) return false;
  alive_store(slots_[it->second], 0);
  --live_;
  return true;
}

namespace {

/// (priority, id) packed so that unsigned key order is MatchResult::beats
/// order: a smaller key outranks a larger one.
uint64_t rank_key(const Rule& r) noexcept {
  return (static_cast<uint64_t>(static_cast<uint32_t>(r.priority) ^ 0x80000000u) << 32) | r.id;
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

/// Positions 0..n-1 ordered by key_of(position), smallest first: an LSD
/// radix sort, one byte per pass, skipping the bytes on which every key
/// agrees.
template <class KeyOf>
std::vector<Ranked> rank_order(size_t n, KeyOf key_of) {
  std::vector<Ranked> a(n), tmp(n);
  std::array<std::array<uint32_t, 256>, 8> hist{};
  for (size_t i = 0; i < n; ++i) {
    a[i] = Ranked{key_of(i), static_cast<uint32_t>(i)};
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

/// Largest candidate set a remainder rule scans on its own; a rule whose
/// both sets are larger joins the shared pass.
constexpr size_t kNarrowRange = 64;

}  // namespace

std::pair<size_t, size_t> IsetIndex::overlap_range(const Rule& r) const noexcept {
  // The ranges are disjoint and sorted, so both ends ascend and the rules
  // overlapping r in this field are one contiguous run: every range that
  // starts in (f.lo, f.hi], plus the one starting at or before f.lo if it
  // reaches f.lo.
  const auto fi = static_cast<size_t>(field_);
  const Range& f = r.field[fi];
  const auto last =
      static_cast<size_t>(std::upper_bound(lo_.begin(), lo_.end(), f.hi) - lo_.begin());
  auto first = static_cast<size_t>(
      std::upper_bound(lo_.begin(), lo_.begin() + static_cast<std::ptrdiff_t>(last), f.lo) -
      lo_.begin());
  if (first > 0 && slots_[first - 1].rule.field[fi].hi >= f.lo) --first;
  return {first, last};
}

void IsetIndex::mark_range(const Rule& r, size_t first, size_t last) noexcept {
  const uint64_t key = rank_key(r);
  for (size_t i = first; i < last; ++i) {
    Slot& s = slots_[i];
    if ((s.shape & kNeedsRemainder) == 0 && key < rank_key(s.rule) && boxes_overlap(s.rule, r))
      s.shape |= kNeedsRemainder;
  }
}

void IsetIndex::mark_remainder(std::span<const Rule> remainder) {
  for (Slot& s : slots_) s.shape &= static_cast<uint8_t>(~kNeedsRemainder);
  std::vector<Ranked> by_rank;
  struct Wide {
    uint64_t key;
    size_t first, last;  // overlap range
    const Rule* rule;
  };
  std::vector<Wide> wide;
  for (const Rule& r : remainder) {
    const auto [first, last] = overlap_range(r);
    if (last - first <= kNarrowRange) {
      mark_range(r, first, last);
      continue;
    }
    if (by_rank.empty())
      by_rank = rank_order(slots_.size(), [&](size_t i) { return rank_key(slots_[i].rule); });
    const uint64_t key = rank_key(r);
    const auto worse = std::partition_point(
        by_rank.begin(), by_rank.end(), [&](const Ranked& w) { return w.key <= key; });
    if (static_cast<size_t>(by_rank.end() - worse) > kNarrowRange) {
      wide.push_back(Wide{key, first, last, &r});
      continue;
    }
    for (auto it = worse; it != by_rank.end(); ++it) {
      Slot& s = slots_[it->pos];
      if ((s.shape & kNeedsRemainder) == 0 && boxes_overlap(s.rule, r))
        s.shape |= kNeedsRemainder;
    }
  }
  if (wide.empty()) return;
  // One pass over the slots for the wide rules, each of which would
  // otherwise scan a large set of its own. At slot i the active rules are
  // those whose overlap range holds i, best first, so the test of a slot
  // ends at the first rule that does not outrank it or the first that
  // marks it.
  std::sort(wide.begin(), wide.end(),
            [](const Wide& a, const Wide& b) { return a.first < b.first; });
  std::vector<const Wide*> active;
  size_t next = 0;
  size_t expiry = SIZE_MAX;  // smallest `last` among the active rules
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i >= expiry) {
      std::erase_if(active, [&](const Wide* w) { return w->last <= i; });
      expiry = SIZE_MAX;
      for (const Wide* w : active) expiry = std::min(expiry, w->last);
    }
    if (active.empty()) {  // skip to the next rule's range
      if (next == wide.size()) break;
      i = std::max(i, wide[next].first);
    }
    for (; next < wide.size() && wide[next].first <= i; ++next) {
      const Wide* w = &wide[next];
      active.insert(std::upper_bound(active.begin(), active.end(), w,
                                     [](const Wide* a, const Wide* b) { return a->key < b->key; }),
                    w);
      expiry = std::min(expiry, w->last);
    }
    Slot& s = slots_[i];
    if ((s.shape & kNeedsRemainder) != 0) continue;
    const uint64_t key = rank_key(s.rule);
    for (const Wide* w : active) {
      if (w->key >= key) break;
      if (boxes_overlap(s.rule, *w->rule)) {
        s.shape |= kNeedsRemainder;
        break;
      }
    }
  }
}

void IsetIndex::mark_remainder_rule(const Rule& r) noexcept {
  const auto [first, last] = overlap_range(r);
  mark_range(r, first, last);
}

size_t IsetIndex::rule_storage_bytes() const noexcept {
  return lo_.size() * sizeof(uint32_t) + slots_.size() * sizeof(Slot) +
         map_overhead_bytes(pos_by_id_);
}

}  // namespace nuevomatch
