#include "rqrmi/kernel.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "rqrmi/arch.hpp"
#include "rqrmi/model.hpp"

#if NM_X86_KERNELS
#include <immintrin.h>
#endif

namespace nuevomatch::rqrmi {

// ---------------------------------------------------------------------------
// AlignedFloats
// ---------------------------------------------------------------------------

void AlignedFloats::resize(size_t n) {
  if (n == 0) {
    clear();
    return;
  }
  p_.reset(static_cast<float*>(
      ::operator new[](n * sizeof(float), std::align_val_t{64})));
  n_ = n;
}

void AlignedFloats::assign(const float* src, size_t n) {
  resize(n);
  if (n > 0) std::memcpy(p_.get(), src, n * sizeof(float));
}

// ---------------------------------------------------------------------------
// FlatArena
// ---------------------------------------------------------------------------

void FlatArena::clear() {
  stages_.clear();
  data_.clear();
  leaf_errors_.clear();
  n_values_ = 0;
  n_scale_ = 0.0f;
}

void FlatArena::build(const std::vector<std::vector<Submodel>>& stages,
                      const std::vector<uint32_t>& leaf_errors, size_t n_values) {
  clear();
  if (stages.empty()) return;

  // Lay blocks out back to back, each starting on a fresh cache line so a
  // gather base pointer never straddles two blocks' lines.
  constexpr size_t kLineFloats = 16;
  size_t off = 0;
  const auto block = [&off](size_t count) {
    const size_t o = off;
    off += (count + kLineFloats - 1) / kLineFloats * kLineFloats;
    return o;
  };
  stages_.resize(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    const auto width = static_cast<uint32_t>(stages[s].size());
    Stage& st = stages_[s];
    st.width = width;
    const size_t wide = static_cast<size_t>(kHiddenWidth) * width;
    st.w1 = block(wide);
    st.b1 = block(wide);
    st.w2 = block(wide);
    st.b2 = block(width);
  }
  data_.resize(off);
  std::memset(data_.data(), 0, off * sizeof(float));
  for (size_t s = 0; s < stages.size(); ++s) {
    const Stage& st = stages_[s];
    float* d = data_.data();
    for (size_t j = 0; j < stages[s].size(); ++j) {
      const Submodel& m = stages[s][j];
      for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
        d[st.w1 + k * st.width + j] = m.w1[k];
        d[st.b1 + k * st.width + j] = m.b1[k];
        d[st.w2 + k * st.width + j] = m.w2[k];
      }
      d[st.b2 + j] = m.b2;
    }
  }
  leaf_errors_.assign(stages.back().size(), 0);
  for (size_t i = 0; i < leaf_errors.size() && i < leaf_errors_.size(); ++i)
    leaf_errors_[i] = leaf_errors[i];
  n_values_ = static_cast<uint32_t>(n_values);
  n_scale_ = static_cast<float>(n_values);
}

size_t FlatArena::memory_bytes() const noexcept {
  return data_.size() * sizeof(float) + leaf_errors_.size() * sizeof(uint32_t) +
         stages_.size() * sizeof(Stage);
}

// ---------------------------------------------------------------------------
// Kernels. Every lane reproduces the scalar serial arithmetic exactly:
// acc = b2; for k: z = w1[k]*x + b1[k]; relu; acc += w2[k]*z — in that order,
// mul and add unfused (the library builds with -ffp-contract=off, and the
// SIMD bodies use separate mul/add intrinsics under targets without FMA).
// ---------------------------------------------------------------------------

namespace {

Prediction lookup_one_flat(const FlatArena& a, float x) noexcept {
  const float* d = a.data();
  const size_t n_stages = a.num_stages();
  uint32_t j = 0;
  uint32_t leaf = 0;
  for (size_t s = 0; s < n_stages; ++s) {
    const FlatArena::Stage& st = a.stage(s);
    float acc = d[st.b2 + j];
    for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
      const float z = d[st.w1 + k * st.width + j] * x + d[st.b1 + k * st.width + j];
      if (z > 0.0f) acc += d[st.w2 + k * st.width + j] * z;
    }
    const float y = clamp_unit(acc);
    if (s + 1 < n_stages) {
      const uint32_t width = a.stage(s + 1).width;
      j = static_cast<uint32_t>(y * static_cast<float>(width));
      if (j >= width) j = width - 1;
      leaf = j;
    } else {
      auto idx = static_cast<uint32_t>(y * a.n_scale());
      if (idx >= a.n_values()) idx = a.n_values() - 1;
      return Prediction{idx, a.leaf_errors()[leaf]};
    }
  }
  return Prediction{};
}

void batch_scalar(const FlatArena& a, const float* keys, size_t n,
                  Prediction* out) noexcept {
  for (size_t i = 0; i < n; ++i) out[i] = lookup_one_flat(a, keys[i]);
}

#if NM_X86_KERNELS

/// 4 lanes per iteration. SSE2 has no gather; per-lane weight fetches are
/// assembled with setr from scalar loads (still one stage walk for 4 keys,
/// and the transposed layout keeps the 4 loads of one neuron on one line for
/// narrow stages). Processes floor(n/4)*4 keys; returns the count handled.
__attribute__((target("sse2"))) size_t batch_sse2(const FlatArena& a,
                                                  const float* keys, size_t n,
                                                  Prediction* out) noexcept {
  const float* d = a.data();
  const size_t n_stages = a.num_stages();
  const __m128 zero = _mm_setzero_ps();
  const __m128 one_below = _mm_set1_ps(kOneBelow);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 x = _mm_loadu_ps(keys + i);
    uint32_t j[4] = {0, 0, 0, 0};
    uint32_t leaf[4] = {0, 0, 0, 0};
    for (size_t s = 0; s < n_stages; ++s) {
      const FlatArena::Stage& st = a.stage(s);
      __m128 acc;
      if (st.width == 1) {
        acc = _mm_set1_ps(d[st.b2]);
        for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
          __m128 z = _mm_add_ps(_mm_mul_ps(_mm_set1_ps(d[st.w1 + k]), x),
                                _mm_set1_ps(d[st.b1 + k]));
          z = _mm_max_ps(z, zero);
          acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(d[st.w2 + k]), z));
        }
      } else {
        acc = _mm_setr_ps(d[st.b2 + j[0]], d[st.b2 + j[1]], d[st.b2 + j[2]],
                          d[st.b2 + j[3]]);
        for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
          const size_t w1o = st.w1 + k * st.width;
          const size_t b1o = st.b1 + k * st.width;
          const size_t w2o = st.w2 + k * st.width;
          const __m128 w1 = _mm_setr_ps(d[w1o + j[0]], d[w1o + j[1]],
                                        d[w1o + j[2]], d[w1o + j[3]]);
          const __m128 b1 = _mm_setr_ps(d[b1o + j[0]], d[b1o + j[1]],
                                        d[b1o + j[2]], d[b1o + j[3]]);
          __m128 z = _mm_add_ps(_mm_mul_ps(w1, x), b1);
          z = _mm_max_ps(z, zero);
          const __m128 w2 = _mm_setr_ps(d[w2o + j[0]], d[w2o + j[1]],
                                        d[w2o + j[2]], d[w2o + j[3]]);
          acc = _mm_add_ps(acc, _mm_mul_ps(w2, z));
        }
      }
      const __m128 y = _mm_min_ps(_mm_max_ps(acc, zero), one_below);
      alignas(16) int32_t lane[4];
      if (s + 1 < n_stages) {
        const uint32_t width = a.stage(s + 1).width;
        const __m128i nj =
            _mm_cvttps_epi32(_mm_mul_ps(y, _mm_set1_ps(static_cast<float>(width))));
        _mm_store_si128(reinterpret_cast<__m128i*>(lane), nj);
        for (int t = 0; t < 4; ++t) {
          uint32_t v = static_cast<uint32_t>(lane[t]);
          if (v >= width) v = width - 1;
          j[t] = v;
          leaf[t] = v;
        }
      } else {
        const __m128i idx = _mm_cvttps_epi32(_mm_mul_ps(y, _mm_set1_ps(a.n_scale())));
        _mm_store_si128(reinterpret_cast<__m128i*>(lane), idx);
        for (int t = 0; t < 4; ++t) {
          uint32_t v = static_cast<uint32_t>(lane[t]);
          if (v >= a.n_values()) v = a.n_values() - 1;
          out[i + static_cast<size_t>(t)] =
              Prediction{v, a.leaf_errors()[leaf[t]]};
        }
      }
    }
  }
  return i;
}

/// Lanes [0, width) set: the load mask of a stage's row of `width` floats.
__attribute__((target("avx2"))) inline __m256i lanes_below(uint32_t width) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int32_t>(width)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// 8 lanes per group: per-lane submodel selection via AVX2 gathers over the
/// transposed blocks. A stage of at most 8 submodels fits one register per
/// row, so it is read with one masked load per row and each lane picks its
/// submodel's weight with an in-register permute instead of a gather: the
/// same floats, so the same arithmetic. The main loop interleaves TWO
/// independent 8-lane groups (16 keys per iteration): the stage walk of one
/// group is a serial dependency chain (gathers -> arithmetic -> routing ->
/// next stage's gathers), so a second in-flight chain roughly doubles the
/// ILP without changing any lane's arithmetic. Processes floor(n/8)*8 keys;
/// returns the count handled. After the last routing step `j` IS the leaf
/// index, so the error table is gathered with it directly.
__attribute__((target("avx2"))) size_t batch_avx2(const FlatArena& a,
                                                   const float* keys, size_t n,
                                                   Prediction* out) noexcept {
  const float* d = a.data();
  const size_t n_stages = a.num_stages();
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one_below = _mm256_set1_ps(kOneBelow);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 xA = _mm256_loadu_ps(keys + i);
    const __m256 xB = _mm256_loadu_ps(keys + i + 8);
    __m256i jA = _mm256_setzero_si256();
    __m256i jB = _mm256_setzero_si256();
    for (size_t s = 0; s < n_stages; ++s) {
      const FlatArena::Stage& st = a.stage(s);
      __m256 accA;
      __m256 accB;
      if (st.width == 1) {
        accA = _mm256_set1_ps(d[st.b2]);
        accB = accA;
        for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
          const __m256 w1 = _mm256_set1_ps(d[st.w1 + k]);
          const __m256 b1 = _mm256_set1_ps(d[st.b1 + k]);
          const __m256 w2 = _mm256_set1_ps(d[st.w2 + k]);
          __m256 zA = _mm256_add_ps(_mm256_mul_ps(w1, xA), b1);
          __m256 zB = _mm256_add_ps(_mm256_mul_ps(w1, xB), b1);
          zA = _mm256_max_ps(zA, zero);
          zB = _mm256_max_ps(zB, zero);
          accA = _mm256_add_ps(accA, _mm256_mul_ps(w2, zA));
          accB = _mm256_add_ps(accB, _mm256_mul_ps(w2, zB));
        }
      } else if (st.width <= 8) {
        const __m256i row = lanes_below(st.width);
        const __m256 b2 = _mm256_maskload_ps(d + st.b2, row);
        accA = _mm256_permutevar8x32_ps(b2, jA);
        accB = _mm256_permutevar8x32_ps(b2, jB);
        for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
          const __m256 w1 = _mm256_maskload_ps(d + st.w1 + k * st.width, row);
          const __m256 b1 = _mm256_maskload_ps(d + st.b1 + k * st.width, row);
          const __m256 w2 = _mm256_maskload_ps(d + st.w2 + k * st.width, row);
          __m256 zA = _mm256_add_ps(_mm256_mul_ps(_mm256_permutevar8x32_ps(w1, jA), xA),
                                    _mm256_permutevar8x32_ps(b1, jA));
          __m256 zB = _mm256_add_ps(_mm256_mul_ps(_mm256_permutevar8x32_ps(w1, jB), xB),
                                    _mm256_permutevar8x32_ps(b1, jB));
          zA = _mm256_max_ps(zA, zero);
          zB = _mm256_max_ps(zB, zero);
          accA = _mm256_add_ps(accA, _mm256_mul_ps(_mm256_permutevar8x32_ps(w2, jA), zA));
          accB = _mm256_add_ps(accB, _mm256_mul_ps(_mm256_permutevar8x32_ps(w2, jB), zB));
        }
      } else {
        accA = _mm256_i32gather_ps(d + st.b2, jA, 4);
        accB = _mm256_i32gather_ps(d + st.b2, jB, 4);
        for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
          const __m256 w1A = _mm256_i32gather_ps(d + st.w1 + k * st.width, jA, 4);
          const __m256 w1B = _mm256_i32gather_ps(d + st.w1 + k * st.width, jB, 4);
          const __m256 b1A = _mm256_i32gather_ps(d + st.b1 + k * st.width, jA, 4);
          const __m256 b1B = _mm256_i32gather_ps(d + st.b1 + k * st.width, jB, 4);
          __m256 zA = _mm256_add_ps(_mm256_mul_ps(w1A, xA), b1A);
          __m256 zB = _mm256_add_ps(_mm256_mul_ps(w1B, xB), b1B);
          zA = _mm256_max_ps(zA, zero);
          zB = _mm256_max_ps(zB, zero);
          const __m256 w2A = _mm256_i32gather_ps(d + st.w2 + k * st.width, jA, 4);
          const __m256 w2B = _mm256_i32gather_ps(d + st.w2 + k * st.width, jB, 4);
          accA = _mm256_add_ps(accA, _mm256_mul_ps(w2A, zA));
          accB = _mm256_add_ps(accB, _mm256_mul_ps(w2B, zB));
        }
      }
      const __m256 yA = _mm256_min_ps(_mm256_max_ps(accA, zero), one_below);
      const __m256 yB = _mm256_min_ps(_mm256_max_ps(accB, zero), one_below);
      if (s + 1 < n_stages) {
        const uint32_t width = a.stage(s + 1).width;
        const __m256 w = _mm256_set1_ps(static_cast<float>(width));
        const __m256i cap = _mm256_set1_epi32(static_cast<int32_t>(width) - 1);
        jA = _mm256_min_epi32(_mm256_cvttps_epi32(_mm256_mul_ps(yA, w)), cap);
        jB = _mm256_min_epi32(_mm256_cvttps_epi32(_mm256_mul_ps(yB, w)), cap);
      } else {
        const __m256 ns = _mm256_set1_ps(a.n_scale());
        const __m256i cap = _mm256_set1_epi32(static_cast<int32_t>(a.n_values()) - 1);
        const __m256i idxA = _mm256_min_epi32(_mm256_cvttps_epi32(_mm256_mul_ps(yA, ns)), cap);
        const __m256i idxB = _mm256_min_epi32(_mm256_cvttps_epi32(_mm256_mul_ps(yB, ns)), cap);
        const auto* errs = reinterpret_cast<const int32_t*>(a.leaf_errors());
        const __m256i errA = _mm256_i32gather_epi32(errs, jA, 4);
        const __m256i errB = _mm256_i32gather_epi32(errs, jB, 4);
        alignas(32) int32_t idx_lane[16];
        alignas(32) int32_t err_lane[16];
        _mm256_store_si256(reinterpret_cast<__m256i*>(idx_lane), idxA);
        _mm256_store_si256(reinterpret_cast<__m256i*>(idx_lane + 8), idxB);
        _mm256_store_si256(reinterpret_cast<__m256i*>(err_lane), errA);
        _mm256_store_si256(reinterpret_cast<__m256i*>(err_lane + 8), errB);
        for (int t = 0; t < 16; ++t)
          out[i + static_cast<size_t>(t)] =
              Prediction{static_cast<uint32_t>(idx_lane[t]),
                         static_cast<uint32_t>(err_lane[t])};
      }
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(keys + i);
    __m256i j = _mm256_setzero_si256();
    for (size_t s = 0; s < n_stages; ++s) {
      const FlatArena::Stage& st = a.stage(s);
      __m256 acc;
      if (st.width == 1) {
        acc = _mm256_set1_ps(d[st.b2]);
        for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
          __m256 z = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(d[st.w1 + k]), x),
                                   _mm256_set1_ps(d[st.b1 + k]));
          z = _mm256_max_ps(z, zero);
          acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(d[st.w2 + k]), z));
        }
      } else if (st.width <= 8) {
        const __m256i row = lanes_below(st.width);
        acc = _mm256_permutevar8x32_ps(_mm256_maskload_ps(d + st.b2, row), j);
        for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
          const __m256 w1 =
              _mm256_permutevar8x32_ps(_mm256_maskload_ps(d + st.w1 + k * st.width, row), j);
          const __m256 b1 =
              _mm256_permutevar8x32_ps(_mm256_maskload_ps(d + st.b1 + k * st.width, row), j);
          __m256 z = _mm256_add_ps(_mm256_mul_ps(w1, x), b1);
          z = _mm256_max_ps(z, zero);
          const __m256 w2 =
              _mm256_permutevar8x32_ps(_mm256_maskload_ps(d + st.w2 + k * st.width, row), j);
          acc = _mm256_add_ps(acc, _mm256_mul_ps(w2, z));
        }
      } else {
        acc = _mm256_i32gather_ps(d + st.b2, j, 4);
        for (size_t k = 0; k < static_cast<size_t>(kHiddenWidth); ++k) {
          const __m256 w1 = _mm256_i32gather_ps(d + st.w1 + k * st.width, j, 4);
          const __m256 b1 = _mm256_i32gather_ps(d + st.b1 + k * st.width, j, 4);
          __m256 z = _mm256_add_ps(_mm256_mul_ps(w1, x), b1);
          z = _mm256_max_ps(z, zero);
          const __m256 w2 = _mm256_i32gather_ps(d + st.w2 + k * st.width, j, 4);
          acc = _mm256_add_ps(acc, _mm256_mul_ps(w2, z));
        }
      }
      const __m256 y = _mm256_min_ps(_mm256_max_ps(acc, zero), one_below);
      if (s + 1 < n_stages) {
        const uint32_t width = a.stage(s + 1).width;
        j = _mm256_min_epi32(
            _mm256_cvttps_epi32(
                _mm256_mul_ps(y, _mm256_set1_ps(static_cast<float>(width)))),
            _mm256_set1_epi32(static_cast<int32_t>(width) - 1));
      } else {
        __m256i idx = _mm256_cvttps_epi32(_mm256_mul_ps(y, _mm256_set1_ps(a.n_scale())));
        idx = _mm256_min_epi32(
            idx, _mm256_set1_epi32(static_cast<int32_t>(a.n_values()) - 1));
        const __m256i err = _mm256_i32gather_epi32(
            reinterpret_cast<const int32_t*>(a.leaf_errors()), j, 4);
        alignas(32) int32_t idx_lane[8];
        alignas(32) int32_t err_lane[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(idx_lane), idx);
        _mm256_store_si256(reinterpret_cast<__m256i*>(err_lane), err);
        for (int t = 0; t < 8; ++t)
          out[i + static_cast<size_t>(t)] =
              Prediction{static_cast<uint32_t>(idx_lane[t]),
                         static_cast<uint32_t>(err_lane[t])};
      }
    }
  }
  return i;
}

#endif  // NM_X86_KERNELS

/// Parse the NM_SIMD_MAX environment cap once. An unrecognized value caps to
/// serial and warns: the variable exists to *restrict* dispatch (CI coverage
/// of the narrow paths), so a typo must never silently un-cap it.
SimdLevel env_cap() noexcept {
  const char* env = std::getenv("NM_SIMD_MAX");
  if (env == nullptr) return SimdLevel::kAvx;
  const std::string v{env};
  if (v == "serial") return SimdLevel::kSerial;
  if (v == "sse") return SimdLevel::kSse;
  if (v == "avx") return SimdLevel::kAvx;
  std::fprintf(stderr,
               "nuevomatch: unknown NM_SIMD_MAX value \"%s\" "
               "(expected serial|sse|avx); capping dispatch to serial\n",
               env);
  return SimdLevel::kSerial;
}

// __builtin_cpu_supports requires literal arguments; one helper per feature.
bool cpu_has_sse2() noexcept {
#if NM_X86_KERNELS
  return __builtin_cpu_supports("sse2");
#else
  return false;
#endif
}
bool cpu_has_avx() noexcept {
#if NM_X86_KERNELS
  return __builtin_cpu_supports("avx");
#else
  return false;
#endif
}
bool cpu_has_avx2() noexcept {
#if NM_X86_KERNELS
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool cpu_supports(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kSerial: return true;
    case SimdLevel::kSse: return cpu_has_sse2();
    case SimdLevel::kAvx: return cpu_has_avx();
  }
  return false;
}

SimdLevel dispatch_ceiling() noexcept {
  static const SimdLevel cached = [] {
    const SimdLevel cap = env_cap();
    SimdLevel best = SimdLevel::kSerial;
    if (cap >= SimdLevel::kSse && cpu_supports(SimdLevel::kSse))
      best = SimdLevel::kSse;
    if (cap >= SimdLevel::kAvx && cpu_supports(SimdLevel::kAvx))
      best = SimdLevel::kAvx;
    return best;
  }();
  return cached;
}

SimdLevel batch_level(SimdLevel requested) noexcept {
#if NM_X86_KERNELS
  if (requested == SimdLevel::kAvx && cpu_has_avx2()) return SimdLevel::kAvx;
  if (requested >= SimdLevel::kSse && cpu_has_sse2()) return SimdLevel::kSse;
#endif
  (void)requested;
  return SimdLevel::kSerial;
}

void lookup_batch(const FlatArena& arena, std::span<const float> keys,
                  Prediction* out, SimdLevel level) noexcept {
  size_t done = 0;
  const size_t n = keys.size();
#if NM_X86_KERNELS
  // kAvx requests the gather kernel (needs AVX2); AVX-only CPUs degrade to
  // SSE2 lanes (see batch_level). Results are identical at every level by
  // the kernel contract.
  switch (batch_level(level)) {
    case SimdLevel::kAvx:
      done = batch_avx2(arena, keys.data(), n, out);
      break;
    case SimdLevel::kSse:
      done = batch_sse2(arena, keys.data(), n, out);
      break;
    case SimdLevel::kSerial:
      break;
  }
#endif
  batch_scalar(arena, keys.data() + done, n - done, out + done);
}

}  // namespace nuevomatch::rqrmi
