// Batched inference differential tests (DESIGN.md "Batched inference
// engine"): lookup_batch must return byte-identical Predictions to the
// per-key scalar reference lookup(key, kSerial) at EVERY SIMD level,
// for every batch shape — including ragged tails — and the flat arena must
// be rebuilt transparently by the serializer's load path.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "rqrmi/kernel.hpp"
#include "rqrmi/model.hpp"
#include "serialize/serialize.hpp"

namespace nuevomatch::rqrmi {
namespace {

std::vector<KeyInterval> make_intervals(size_t n, uint64_t seed) {
  Rng rng{seed};
  std::vector<KeyInterval> ivs;
  double x = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = (0.5 + rng.next_double()) / static_cast<double>(n);
    ivs.push_back(KeyInterval{x, x + w * 0.8, static_cast<uint32_t>(i)});
    x += w;
  }
  for (auto& iv : ivs) {
    iv.lo /= x;
    iv.hi /= x;
  }
  return ivs;
}

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> out{SimdLevel::kSerial};
  if (simd_level_available(SimdLevel::kSse)) out.push_back(SimdLevel::kSse);
  if (simd_level_available(SimdLevel::kAvx)) out.push_back(SimdLevel::kAvx);
  return out;
}

/// Keys stressing the whole routing space: uniform, plus bucket-boundary
/// neighbourhoods where a one-ulp difference would flip the routed submodel.
std::vector<float> make_keys(size_t n, uint64_t seed) {
  Rng rng{seed};
  std::vector<float> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      // Near k/256 bucket edges of the widest stage.
      const double edge = static_cast<double>(rng.below(256)) / 256.0;
      keys.push_back(std::nextafter(static_cast<float>(edge),
                                    (i % 2 != 0) ? 2.0f : -2.0f));
    } else {
      keys.push_back(static_cast<float>(rng.next_double()));
    }
    if (keys.back() < 0.0f) keys.back() = 0.0f;
    if (keys.back() >= 1.0f) keys.back() = kOneBelow;
  }
  return keys;
}

void expect_batch_equals_scalar(const RqRmi& model, std::span<const float> keys,
                                const char* ctx) {
  std::vector<Prediction> want(keys.size());
  for (size_t i = 0; i < keys.size(); ++i)
    want[i] = model.lookup(keys[i], SimdLevel::kSerial);
  for (const SimdLevel level : available_levels()) {
    std::vector<Prediction> got(keys.size(), Prediction{0xDEAD, 0xDEAD});
    model.lookup_batch(keys, got, level);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(got[i].index, want[i].index)
          << ctx << " level=" << to_string(level) << " key[" << i
          << "]=" << keys[i];
      ASSERT_EQ(got[i].search_error, want[i].search_error)
          << ctx << " level=" << to_string(level) << " key[" << i
          << "]=" << keys[i];
    }
  }
}

struct ModelCase {
  size_t n;
  std::vector<uint32_t> widths;
  uint64_t seed;
};

class BatchDifferential : public ::testing::TestWithParam<ModelCase> {};

TEST_P(BatchDifferential, BatchMatchesScalarLookup) {
  const ModelCase& c = GetParam();
  RqRmiConfig cfg;
  cfg.stage_widths = c.widths;
  RqRmi model;
  model.build(make_intervals(c.n, c.seed), cfg);
  ASSERT_TRUE(model.trained());
  const auto keys = make_keys(4096, c.seed ^ 0xBEEF);
  expect_batch_equals_scalar(model, keys, "full");
}

TEST_P(BatchDifferential, RaggedTailSizes) {
  const ModelCase& c = GetParam();
  RqRmiConfig cfg;
  cfg.stage_widths = c.widths;
  RqRmi model;
  model.build(make_intervals(c.n, c.seed), cfg);
  const auto keys = make_keys(40, c.seed ^ 0xACE);
  // Every size 1..40 covers: below one SSE group, between SSE and AVX group
  // sizes, exact multiples, multiples plus ragged tails, and every tail of
  // the AVX2 kernel's 16-key loop (its 8-key loop, then scalar lanes).
  for (size_t len = 1; len <= keys.size(); ++len) {
    expect_batch_equals_scalar(
        model, std::span<const float>{keys.data(), len},
        ("len=" + std::to_string(len)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BatchDifferential,
    ::testing::Values(ModelCase{200, {1, 4}, 11}, ModelCase{1500, {1, 4, 16}, 12},
                      ModelCase{5000, {1, 4, 128}, 13},
                      ModelCase{20000, {1, 8, 256}, 14},
                      ModelCase{1, {1, 4}, 15}, ModelCase{3, {1, 4}, 16},
                      // The AVX2 kernel reads a stage of <= 8 submodels with
                      // masked loads and permutes, a wider one with gathers:
                      // widths on both sides of that boundary, as middle and
                      // last stage, and 6 (whose last row ends mid-line).
                      ModelCase{600, {1, 8}, 17}, ModelCase{600, {1, 9}, 18},
                      ModelCase{600, {1, 16}, 19}, ModelCase{3000, {1, 6, 9}, 20},
                      ModelCase{3000, {1, 8, 16}, 21}, ModelCase{3000, {1, 9, 8}, 22},
                      ModelCase{3000, {1, 16, 8}, 23}));

TEST(BatchLookup, TrivialModelYieldsEmptyPredictions) {
  RqRmi model;
  model.build({}, default_config(0));
  const std::vector<float> keys{0.1f, 0.5f, 0.9f};
  std::vector<Prediction> out(keys.size(), Prediction{7, 7});
  model.lookup_batch(keys, out);
  for (const Prediction& p : out) {
    EXPECT_EQ(p.index, 0u);
    EXPECT_EQ(p.search_error, 0u);
  }
}

TEST(BatchLookup, ArenaRebuiltBySerializerLoadPath) {
  RqRmiConfig cfg;
  cfg.stage_widths = {1, 4, 16};
  RqRmi model;
  model.build(make_intervals(2000, 21), cfg);
  const auto bytes = serialize::save_model(model);
  const auto loaded = serialize::load_model(bytes);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_FALSE(loaded->arena().empty());
  const auto keys = make_keys(513, 22);
  expect_batch_equals_scalar(*loaded, keys, "loaded");
  // Loaded-model batch predictions equal original-model batch predictions.
  std::vector<Prediction> a(keys.size());
  std::vector<Prediction> b(keys.size());
  model.lookup_batch(keys, a);
  loaded->lookup_batch(keys, b);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].search_error, b[i].search_error);
  }
}

TEST(BatchLookup, DispatchCeilingIsAvailable) {
  EXPECT_TRUE(simd_level_available(dispatch_ceiling()));
  EXPECT_TRUE(cpu_supports(SimdLevel::kSerial));
}

TEST(BatchLookup, ArenaAccountsMemory) {
  RqRmiConfig cfg;
  cfg.stage_widths = {1, 4};
  RqRmi model;
  model.build(make_intervals(100, 31), cfg);
  EXPECT_GT(model.arena_bytes(), 0u);
  // Transposed copy holds the same 25 floats per submodel plus padding and
  // the leaf table; it must stay the same order of magnitude as the packed
  // representation (cache-residency argument, paper Figure 1).
  EXPECT_LT(model.arena_bytes(), 16 * model.memory_bytes() + 4096);
}

}  // namespace
}  // namespace nuevomatch::rqrmi
