// Batched lookup (paper §5.1): match_batch must be observationally identical
// to per-packet match() on every workload — prefetching and pipelining are
// allowed to change timing only, never results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <thread>

#include "classbench/generator.hpp"
#include "common/rng.hpp"
#include "cutsplit/cutsplit.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "nuevomatch/online.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

struct BatchCase {
  AppClass app;
  size_t n;
  bool tm;  // remainder engine
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const BatchCase& c) {
    return os << ruleset_name(c.app, 1) << "_n" << c.n << (c.tm ? "_tm" : "_cs") << "_s"
              << c.seed;
  }
};

class BatchEquivalence : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchEquivalence, BatchEqualsScalarMatch) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, 1, c.n, c.seed);
  NuevoMatchConfig cfg;
  if (c.tm) {
    cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
    cfg.min_iset_coverage = 0.05;
  } else {
    cfg.remainder_factory = [] { return std::make_unique<CutSplit>(); };
    cfg.min_iset_coverage = 0.25;
  }
  NuevoMatch nm(cfg);
  nm.build(rules);

  TraceConfig tc;
  tc.n_packets = 4096 + 7;  // deliberately not a tile multiple
  tc.seed = c.seed ^ 0xAB;
  const auto trace = generate_trace(rules, tc);
  std::vector<MatchResult> batched(trace.size());
  nm.match_batch(trace, batched);
  for (size_t i = 0; i < trace.size(); ++i) {
    const MatchResult want = nm.match(trace[i]);
    ASSERT_EQ(batched[i].rule_id, want.rule_id) << "packet " << i;
    ASSERT_EQ(batched[i].priority, want.priority) << "packet " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchEquivalence,
                         ::testing::Values(BatchCase{AppClass::kAcl, 3000, true, 1},
                                           BatchCase{AppClass::kAcl, 3000, false, 2},
                                           BatchCase{AppClass::kFw, 5000, true, 3},
                                           BatchCase{AppClass::kIpc, 5000, false, 4},
                                           BatchCase{AppClass::kAcl, 20000, true, 5}));

// The batch pipeline handles ragged tails at every layer (AVX2 groups of 8,
// SSE2 groups of 4, scalar tail, partial final tile): every trace length
// 1..17 plus a just-past-one-tile length must equal per-packet match().
TEST(Batch, RaggedTraceLengthsEqualScalarMatch) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 2000, 6);
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<CutSplit>(); };
  NuevoMatch nm(cfg);
  nm.build(rules);

  TraceConfig tc;
  tc.n_packets = 64 + 17;
  tc.seed = 77;
  const auto trace = generate_trace(rules, tc);
  for (size_t len = 1; len <= 17; ++len) {
    std::vector<MatchResult> out(len);
    nm.match_batch(std::span<const Packet>{trace.data(), len}, out);
    for (size_t i = 0; i < len; ++i) {
      const MatchResult want = nm.match(trace[i]);
      ASSERT_EQ(out[i].rule_id, want.rule_id) << "len " << len << " packet " << i;
    }
  }
  std::vector<MatchResult> out(trace.size());
  nm.match_batch(trace, out);
  for (size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(out[i].rule_id, nm.match(trace[i]).rule_id) << "packet " << i;
}

// Staged batch API consistency: predict_batch/search_batch must agree with
// the scalar staged calls element-for-element (the batch pipeline's building
// blocks, exercised directly).
TEST(Batch, StagedBatchApiEqualsScalarStages) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 4000, 8);
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<CutSplit>(); };
  NuevoMatch nm(cfg);
  nm.build(rules);
  ASSERT_FALSE(nm.isets().empty());

  TraceConfig tc;
  tc.n_packets = 257;
  tc.seed = 21;
  const auto trace = generate_trace(rules, tc);
  for (const IsetIndex& is : nm.isets()) {
    std::vector<uint32_t> vals(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) vals[i] = trace[i][is.field()];
    std::vector<rqrmi::Prediction> preds(vals.size());
    is.predict_batch(vals, preds);
    std::vector<int32_t> pos(vals.size());
    is.search_batch(vals, preds, pos);
    for (size_t i = 0; i < vals.size(); ++i) {
      const rqrmi::Prediction want = is.predict(vals[i], rqrmi::SimdLevel::kSerial);
      ASSERT_EQ(preds[i].index, want.index) << "packet " << i;
      ASSERT_EQ(preds[i].search_error, want.search_error) << "packet " << i;
      ASSERT_EQ(pos[i], is.search(vals[i], preds[i])) << "packet " << i;
    }
  }
}

// Batch==scalar equivalence through a generation swap: take an epoch-pinned
// view of the live generation + update layer, run Pin::match_batch and
// per-key Pin::match against the SAME pin, and demand identical results —
// while a writer thread pushes absorption over the retrain threshold so
// background swaps (and copy-on-write layer commits) land between pins.
// Per-batch generation pinning is exactly the property under test: the
// pinned view must be immune to concurrent commits and swaps (layers are
// immutable, reclamation waits for the pin), and successive pins must
// observe new generations. Unlike the PR 3 rwlock pin, the writer never
// stalls while a pin is held — the updater thread needs no yield window.
TEST(Batch, BatchEqualsScalarOnPinnedGenerationAcrossSwap) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 1500, 11);
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.retrain_threshold = 0.01;
  OnlineNuevoMatch online{cfg};
  online.build(rules);
  const uint64_t gen0 = online.generations();

  TraceConfig tc;
  tc.n_packets = 1024;
  tc.seed = 12;
  const auto trace = generate_trace(rules, tc);

  std::atomic<bool> run{true};
  std::thread updater([&] {
    Rng rng{13};
    uint32_t next_id = 700'000;
    while (run.load(std::memory_order_relaxed)) {
      Rule r = rules[rng.below(rules.size())];
      r.id = next_id++;
      r.priority = 2'000'000 + static_cast<int32_t>(next_id);
      online.insert(r);
    }
  });

  uint64_t last_gen = gen0;
  int gen_changes = 0;
  size_t off = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((gen_changes < 2 || online.generations() == gen0) &&
         std::chrono::steady_clock::now() < deadline) {
    const OnlineNuevoMatch::Pin pin = online.pin();
    if (pin.generation() != last_gen) {
      ++gen_changes;
      last_gen = pin.generation();
    }
    const size_t len = std::min<size_t>(128, trace.size() - off);
    const std::span<const Packet> batch{trace.data() + off, len};
    std::vector<MatchResult> out(len);
    pin.match_batch(batch, out);  // full view: frozen index + update layer
    for (size_t i = 0; i < len; ++i) {
      const MatchResult want = pin.match(batch[i]);
      ASSERT_EQ(out[i].rule_id, want.rule_id)
          << "generation " << pin.generation() << " packet " << i;
      ASSERT_EQ(out[i].priority, want.priority)
          << "generation " << pin.generation() << " packet " << i;
    }
    off = (off + len) % trace.size();
  }
  run.store(false);
  updater.join();
  online.quiesce();
  EXPECT_GE(gen_changes, 1) << "no swap was ever observed: the straddle was "
                               "never exercised";
}

TEST(Batch, EmptyAndTinyInputs) {
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  NuevoMatch nm(cfg);
  nm.build(generate_classbench(AppClass::kAcl, 1, 500, 9));
  nm.match_batch({}, {});  // no packets: must be a no-op

  TraceConfig tc;
  tc.n_packets = 3;  // below one tile
  tc.seed = 10;
  const auto trace = generate_trace(generate_classbench(AppClass::kAcl, 1, 500, 9), tc);
  std::vector<MatchResult> out(trace.size());
  nm.match_batch(trace, out);
  for (size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(out[i].rule_id, nm.match(trace[i]).rule_id);
}

}  // namespace
}  // namespace nuevomatch
