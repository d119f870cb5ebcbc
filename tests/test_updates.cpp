// Rule updates (paper §3.9): deletions tombstone iSet rules, additions land
// in the remainder, matching-set changes are delete+insert, and periodic
// rebuild() restores the trained state. Results must stay oracle-exact
// through arbitrary update sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "classbench/generator.hpp"
#include "classifiers/linear.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "cutsplit/cutsplit.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "nuevomatch/online.hpp"
#include "oracle_check.hpp"
#include "serialize/serialize.hpp"
#include "trace/trace.hpp"
#include "trace/verification.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

NuevoMatch make_nm() {
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.min_iset_coverage = 0.05;
  return NuevoMatch{cfg};
}

void expect_equal_on_trace(Classifier& a, Classifier& b, const RuleSet& rules,
                           uint64_t seed) {
  TraceConfig tc;
  tc.n_packets = 2500;
  tc.seed = seed;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(a.match(p).rule_id, b.match(p).rule_id) << to_string(p);
}

TEST(Updates, DeletionsStayExact) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 3000, 1);
  NuevoMatch nm = make_nm();
  LinearSearch oracle;
  nm.build(rules);
  oracle.build(rules);
  Rng rng{2};
  for (int i = 0; i < 300; ++i) {
    const auto victim = static_cast<uint32_t>(rng.below(rules.size()));
    EXPECT_EQ(nm.erase(victim), oracle.erase(victim)) << "victim " << victim;
  }
  expect_equal_on_trace(nm, oracle, rules, 3);
}

TEST(Updates, InsertionsGoToRemainderAndStayExact) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 2000, 4);
  NuevoMatch nm = make_nm();
  LinearSearch oracle;
  nm.build(rules);
  oracle.build(rules);
  const size_t rem_before = nm.remainder_size();
  RuleSet extra = generate_classbench(AppClass::kFw, 2, 200, 5);
  for (size_t i = 0; i < extra.size(); ++i) {
    extra[i].id = static_cast<uint32_t>(100'000 + i);
    extra[i].priority = -static_cast<int32_t>(i) - 1;  // new rules on top
    ASSERT_TRUE(nm.insert(extra[i]));
    ASSERT_TRUE(oracle.insert(extra[i]));
  }
  EXPECT_EQ(nm.remainder_size(), rem_before + extra.size());
  RuleSet all = rules;
  all.insert(all.end(), extra.begin(), extra.end());
  expect_equal_on_trace(nm, oracle, all, 6);
}

TEST(Updates, MatchingSetChangeIsDeletePlusInsert) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 1500, 7);
  NuevoMatch nm = make_nm();
  LinearSearch oracle;
  nm.build(rules);
  oracle.build(rules);
  // Narrow rule 10's dst port (a matching-set change, §3.9 type iii).
  Rule changed = rules[10];
  changed.field[kDstPort] = Range{80, 80};
  ASSERT_TRUE(nm.erase(10));
  ASSERT_TRUE(nm.insert(changed));
  ASSERT_TRUE(oracle.erase(10));
  ASSERT_TRUE(oracle.insert(changed));
  expect_equal_on_trace(nm, oracle, rules, 8);
}

TEST(Updates, PressureTracksMigratedFraction) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 1000, 9);
  NuevoMatch nm = make_nm();
  nm.build(rules);
  EXPECT_DOUBLE_EQ(nm.update_pressure(), 0.0);
  Rule r = rules[0];
  r.id = 50'000;
  nm.insert(r);
  EXPECT_NEAR(nm.update_pressure(), 1.0 / 1000.0, 1e-9);
}

TEST(Updates, RebuildResetsPressureAndStaysExact) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 2000, 10);
  NuevoMatch nm = make_nm();
  LinearSearch oracle;
  nm.build(rules);
  oracle.build(rules);
  Rng rng{11};
  for (int i = 0; i < 100; ++i) {
    Rule r = rules[rng.below(rules.size())];
    r.id = static_cast<uint32_t>(200'000 + i);
    r.priority = 100'000 + i;  // lowest priority: purely additive
    nm.insert(r);
    oracle.insert(r);
  }
  EXPECT_GT(nm.update_pressure(), 0.0);
  nm.rebuild();  // the paper's periodic retraining
  EXPECT_DOUBLE_EQ(nm.update_pressure(), 0.0);
  expect_equal_on_trace(nm, oracle, rules, 12);
}

TEST(Updates, EraseUnknownIdFails) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 300, 13);
  NuevoMatch nm = make_nm();
  nm.build(rules);
  EXPECT_FALSE(nm.erase(0xDEAD0000));
  EXPECT_EQ(nm.size(), rules.size());
}

TEST(Updates, DuplicateIdInsertFails) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 400, 15);
  NuevoMatch nm = make_nm();
  nm.build(rules);
  EXPECT_FALSE(nm.insert(rules[5])) << "ids are unique across the rule-set";
  EXPECT_EQ(nm.size(), rules.size());
}

TEST(Updates, ActionChangeNeedsNoStructuralUpdate) {
  // §3.9 type (i): the action lives in the value array; rule bodies are
  // shared. Verify lookup is unaffected by action rewrite.
  RuleSet rules = generate_classbench(AppClass::kAcl, 3, 500, 14);
  NuevoMatch nm = make_nm();
  nm.build(rules);
  TraceConfig tc;
  tc.n_packets = 300;
  const auto before = generate_trace(rules, tc);
  std::vector<int32_t> ids;
  for (const Packet& p : before) ids.push_back(nm.match(p).rule_id);
  for (Rule& r : rules) r.action ^= 0x7;  // rewrite actions only
  size_t i = 0;
  for (const Packet& p : before) EXPECT_EQ(nm.match(p).rule_id, ids[i++]);
}

// ---------------------------------------------------------------------------
// OnlineNuevoMatch: the concurrent update subsystem (remainder absorption +
// background retrain + RCU generation swap). Stable-core methodology: churn
// only ever adds/removes rules with strictly *worse* priority than every
// base rule, and verification packets are pre-filtered to ones that hit a
// base rule — so their expected answer is invariant under churn and every
// lookup can be checked against a static linear-search oracle while updates
// and retrains race it.
// ---------------------------------------------------------------------------

OnlineConfig make_online_cfg(double threshold = 0.05, bool auto_retrain = true) {
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.retrain_threshold = threshold;
  cfg.auto_retrain = auto_retrain;
  return cfg;
}

// Priority INT32_MAX is the miss's priority, so no engine could ever return
// such a rule: every insert path refuses it, as it refuses a duplicate id.
TEST(Updates, MissSentinelPriorityInsertFails) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 400, 16);
  Rule r = rules[0];
  r.id = 90'000;
  r.priority = std::numeric_limits<int32_t>::max();
  NuevoMatch nm = make_nm();
  nm.build(rules);
  EXPECT_FALSE(nm.insert(r));
  EXPECT_EQ(nm.size(), rules.size());

  OnlineNuevoMatch online{make_online_cfg(/*threshold=*/1.0, /*auto_retrain=*/false)};
  online.build(rules);
  EXPECT_FALSE(online.insert(r));
  EXPECT_EQ(online.insert_batch({&r, 1}), 0u);
  EXPECT_EQ(online.size(), rules.size());
  EXPECT_EQ(online.health().churn_rules, 0u);
}

TEST(OnlineUpdates, InsertThenMatchIsImmediatelyVisible) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 1500, 21);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0)};  // no auto retrain
  nm.build(rules);

  // A top-priority rule matching one specific packet.
  Packet p;
  for (int f = 0; f < kNumFields; ++f) p.field[static_cast<size_t>(f)] = 1u;
  Rule r;
  for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = Range{1, 1};
  r.id = 77'000;
  r.priority = -100;
  ASSERT_TRUE(nm.insert(r));
  EXPECT_EQ(nm.match(p).rule_id, 77'000);
  EXPECT_GT(nm.absorption(), 0.0);
}

TEST(OnlineUpdates, RemoveThenMatchDropsRule) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 1500, 22);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0)};
  LinearSearch oracle;
  nm.build(rules);
  oracle.build(rules);
  const StableCore core = make_stable_core(rules, 1500, 23);
  ASSERT_FALSE(core.packets.empty());
  // Erase the rule answering the first core packet; both must agree after.
  const auto victim = static_cast<uint32_t>(core.expected[0]);
  ASSERT_TRUE(nm.erase(victim));
  ASSERT_TRUE(oracle.erase(victim));
  for (size_t i = 0; i < core.packets.size(); ++i) {
    ASSERT_EQ(nm.match(core.packets[i]).rule_id, oracle.match(core.packets[i]).rule_id)
        << "packet " << i;
  }
}

TEST(OnlineUpdates, RetrainSwapUnderConcurrentLookups) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 2500, 24);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/0.02)};
  nm.build(rules);
  const uint64_t gen0 = nm.generations();
  const StableCore core = make_stable_core(rules, 2500, 25);
  ASSERT_GT(core.packets.size(), 100u);

  // Readers hammer the stable core while the updater pushes absorption past
  // the threshold; the auto-triggered background retrain swaps generations
  // underneath them.
  std::atomic<bool> run{true};
  std::atomic<uint64_t> lookups{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      size_t i = 0;
      while (run.load(std::memory_order_relaxed)) {
        const size_t k = i++ % core.packets.size();
        if (nm.match(core.packets[k]).rule_id != core.expected[k])
          mismatches.fetch_add(1);
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng{26};
  for (int i = 0; i < 200; ++i) {  // 200/2500 = 8% absorption >> 2% threshold
    Rule r = rules[rng.below(rules.size())];
    r.id = static_cast<uint32_t>(300'000 + i);
    r.priority = 500'000 + i;  // strictly worse than every base rule
    ASSERT_TRUE(nm.insert(r));
  }
  nm.quiesce();
  run.store(false);
  for (auto& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0) << "lookups diverged during retrain/swap";
  EXPECT_GT(nm.generations(), gen0) << "background retrain never swapped";
  EXPECT_LT(nm.absorption(), 0.02) << "swap should reset absorption";
  EXPECT_GT(lookups.load(), 0u);

  // Batched path agrees with the scalar path post-swap.
  std::vector<MatchResult> out(core.packets.size());
  nm.match_batch(core.packets, out);
  for (size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i].rule_id, core.expected[i]) << "batch packet " << i;
}

TEST(OnlineUpdates, JournalReplayPreservesUpdatesDuringRetrain) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 2000, 27);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0, /*auto=*/false)};
  nm.build(rules);
  const StableCore core = make_stable_core(rules, 1000, 28);
  ASSERT_FALSE(core.packets.empty());

  // Kick a manual retrain, then race updates against it. Wherever each
  // update lands relative to the snapshot — before it, in the journal, or
  // after the swap — the final state must contain all of them.
  nm.retrain_now();
  Packet hit;
  for (int f = 0; f < kNumFields; ++f) hit.field[static_cast<size_t>(f)] = 3u;
  Rule add;
  for (int f = 0; f < kNumFields; ++f) add.field[static_cast<size_t>(f)] = Range{3, 3};
  add.id = 400'000;
  add.priority = -200;
  ASSERT_TRUE(nm.insert(add));
  const auto victim = static_cast<uint32_t>(core.expected[0]);
  ASSERT_TRUE(nm.erase(victim));
  nm.quiesce();

  EXPECT_EQ(nm.match(hit).rule_id, 400'000) << "insert lost across the swap";
  LinearSearch oracle;
  oracle.build(rules);
  ASSERT_TRUE(oracle.erase(victim));
  for (size_t i = 0; i < core.packets.size(); ++i) {
    ASSERT_EQ(nm.match(core.packets[i]).rule_id, oracle.match(core.packets[i]).rule_id)
        << "erase lost across the swap, packet " << i;
  }
}

// A retrain's journal replays inserts into the fresh generation's base
// remainder through NuevoMatch::insert, after the build computed the
// remainder skip bits. Each insert here outranks an iSet rule whose bit was
// clear, so the replay must set that bit: the answers stay exact against
// LinearSearch, and the new generation still skips for the other hits.
TEST(OnlineUpdates, RetrainReplayKeepsTheRemainderSkipExact) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 4000, 37);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0, /*auto=*/false)};
  nm.build(rules);
  std::vector<Rule> targets;
  {
    const auto pin = nm.pin();
    ASSERT_FALSE(pin.nm().isets().empty());
    const IsetIndex& is = pin.nm().isets()[0];
    for (size_t i = 0; i < is.size() && targets.size() < 400; i += 3)
      if (!is.needs_remainder(i)) targets.push_back(is.rule(i));
  }
  ASSERT_FALSE(targets.empty());

  // Count the replay loop's steps without failing any (never reaches nth).
  failpoint::Scoped count_replay{failpoint::kOnlineReplay,
                                 failpoint::Trigger::nth(uint64_t{1} << 60)};
  RuleSet inserted;
  uint32_t next_id = 500'000;
  size_t t = 0;
  for (int attempt = 0; attempt < 20 && failpoint::evaluations(failpoint::kOnlineReplay) == 0;
       ++attempt) {
    nm.retrain_now();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (nm.health().retrain_pending && t < targets.size() &&
           std::chrono::steady_clock::now() < deadline) {
      Rule late = targets[t++];
      for (size_t f = 0; f < kNumFields; ++f) late.field[f].hi = late.field[f].lo;
      late.priority -= 1;
      late.id = next_id++;
      ASSERT_TRUE(nm.insert(late));
      inserted.push_back(late);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    nm.quiesce();
  }
  ASSERT_GT(failpoint::evaluations(failpoint::kOnlineReplay), 0u)
      << "no insert landed in a retrain's journal";
  EXPECT_GT(nm.pin().nm().remainder_skip_fraction(), 0.0);

  RuleSet live = rules;
  live.insert(live.end(), inserted.begin(), inserted.end());
  LinearSearch oracle;
  oracle.build(live);
  std::vector<Packet> probes;
  for (const Rule& r : inserted) {
    Packet p;
    for (size_t f = 0; f < kNumFields; ++f) p.field[f] = r.field[f].lo;
    probes.push_back(p);
  }
  TraceConfig tc;
  tc.n_packets = 4000;
  tc.seed = 38;
  const auto trace = generate_trace(rules, tc);
  probes.insert(probes.end(), trace.begin(), trace.end());
  std::vector<MatchResult> batched(probes.size());
  nm.match_batch(probes, batched);
  for (size_t i = 0; i < probes.size(); ++i) {
    const int32_t want = oracle.match(probes[i]).rule_id;
    ASSERT_EQ(nm.match(probes[i]).rule_id, want) << to_string(probes[i]);
    ASSERT_EQ(batched[i].rule_id, want) << to_string(probes[i]);
  }
}

TEST(OnlineUpdates, SerializeRoundTripAfterEraseThenReinsertSameId) {
  // Regression: an id erased from an iSet and reinserted (the §3.9
  // matching-set change) lives in the remainder while its tombstone stays
  // in the iSet array. The checkpoint must keep exactly the live copy —
  // neither resurrect the dead one nor drop the reincarnation.
  const RuleSet rules = generate_classbench(AppClass::kAcl, 3, 1500, 33);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0)};
  nm.build(rules);

  size_t changed = 0;
  for (uint32_t id = 0; id < 50; ++id) {
    Rule moved = rules[id];
    ASSERT_TRUE(nm.erase(id));
    moved.field[kDstPort] = full_range(kDstPort);
    if (nm.insert(moved)) ++changed;  // same id, new matching set
  }
  ASSERT_EQ(changed, 50u);
  ASSERT_EQ(nm.size(), rules.size());

  const auto bytes = serialize::save_online(nm);
  auto back = serialize::load_online(bytes, make_online_cfg(/*threshold=*/1.0));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->size(), rules.size()) << "reinserted rules were dropped";

  RuleSet logical = rules;  // the post-update rule-set, for trace generation
  for (uint32_t id = 0; id < 50; ++id)
    logical[id].field[kDstPort] = full_range(kDstPort);
  TraceConfig tc;
  tc.n_packets = 3000;
  tc.seed = 34;
  for (const Packet& p : generate_trace(logical, tc))
    ASSERT_EQ(back->match(p).rule_id, nm.match(p).rule_id) << to_string(p);

  // The loaded copy must stay updatable on those ids: exactly one live
  // incarnation each.
  EXPECT_TRUE(back->erase(3));
  EXPECT_FALSE(back->erase(3));
}

TEST(OnlineUpdates, SerializeRoundTripCarriesUpdateOps) {
  // v3: the online frame carries the applied-op counter, so churn
  // accounting survives a checkpoint (test_serialize covers frames that
  // carry several counters).
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 900, 51);
  const OnlineConfig cfg = make_online_cfg(/*threshold=*/1.0);
  OnlineNuevoMatch nm{cfg};
  nm.build(rules);

  Rng rng{52};
  for (int i = 0; i < 60; ++i) {
    Rule r = rules[rng.below(rules.size())];
    r.id = static_cast<uint32_t>(800'000 + i);
    r.priority = 900'000 + i;
    ASSERT_TRUE(nm.insert(r));
  }
  for (uint32_t id = 0; id < 20; ++id) ASSERT_TRUE(nm.erase(id));
  ASSERT_EQ(nm.update_ops(), 80u);

  const auto bytes = serialize::save_online(nm);
  auto back = serialize::load_online(bytes, cfg);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->update_ops(), 80u);

  // The loaded counter keeps counting from the checkpoint.
  ASSERT_TRUE(back->erase(20));
  EXPECT_EQ(back->update_ops(), 81u);

  // And the classifier behind the frame still answers identically.
  ASSERT_TRUE(nm.erase(20));
  TraceConfig tc;
  tc.n_packets = 2000;
  tc.seed = 53;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(back->match(p).rule_id, nm.match(p).rule_id) << to_string(p);
}

// Regression for the reader-preference starvation bench_updates §(d)
// documented in PR 3: saturated readers on the old rwlock drove writers to
// ~0 updates/s. With epoch-pinned readers there is no reader-side lock to
// prefer, so a writer must complete a fixed op budget while every reader
// spins flat-out (no duty cycle, no yields). Bounded-wait: the main thread
// waits on a deadline instead of joining blindly, so a starved writer fails
// the test instead of hanging it.
TEST(OnlineUpdates, WritersProgressUnderSaturatedReaders) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 2000, 61);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0, /*auto=*/false)};
  nm.build(rules);
  const StableCore core = make_stable_core(rules, 1500, 62);
  ASSERT_GT(core.packets.size(), 50u);

  constexpr size_t kOps = 3000;
  std::atomic<bool> stop{false};
  std::atomic<bool> abort_writer{false};
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> mismatches{0};
  // The writer starts only once every reader has finished a lookup, so the
  // writer's ops really do run under saturated readers.
  constexpr int kReaders = 3;
  std::latch readers_ran{kReaders};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t) * 17;
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {  // fully saturated
        const size_t k = i++ % core.packets.size();
        if (nm.match(core.packets[k]).rule_id != core.expected[k])
          mismatches.fetch_add(1);
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (first) {
          readers_ran.count_down();
          first = false;
        }
      }
    });
  }

  std::atomic<size_t> done_ops{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  std::thread writer([&] {
    readers_ran.wait();
    Rng rng{63};
    std::vector<uint32_t> live;
    for (size_t i = 0; i < kOps && !abort_writer.load(); ++i) {
      if (live.size() > 128) {
        if (nm.erase(live.front())) done_ops.fetch_add(1);
        live.erase(live.begin());
        continue;
      }
      Rule r = rules[rng.below(rules.size())];
      r.id = 700'000 + static_cast<uint32_t>(i);
      r.priority = 2'000'000 + static_cast<int32_t>(i);
      if (nm.insert(r)) {
        live.push_back(r.id);
        done_ops.fetch_add(1);
      }
    }
    std::lock_guard lk{done_mu};
    done = true;
    done_cv.notify_all();
  });

  {
    std::unique_lock lk{done_mu};
    const bool finished =
        done_cv.wait_for(lk, std::chrono::seconds(60), [&] { return done; });
    EXPECT_TRUE(finished) << "writer starved: only " << done_ops.load() << "/"
                          << kOps << " ops under saturated readers";
  }
  abort_writer.store(true);
  writer.join();
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(done_ops.load(), kOps);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(lookups.load(), 0u) << "readers never ran";
}

// Batched writer commits: one lock hold + one copy-on-write publication per
// burst must be observationally identical to the per-op loop — same
// accept/reject decisions (duplicates skipped, unknown ids skipped), same
// final answers vs the linear oracle, batch-atomic visibility afterwards.
TEST(OnlineUpdates, BatchCommitsMatchScalarSemantics) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 1800, 71);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0, /*auto=*/false)};
  LinearSearch oracle;
  nm.build(rules);
  oracle.build(rules);

  // Burst of inserts, with one in-burst duplicate and one duplicate of a
  // base rule: exactly those two must be rejected.
  std::vector<Rule> burst;
  Rng rng{72};
  for (int i = 0; i < 96; ++i) {
    Rule r = rules[rng.below(rules.size())];
    r.id = 810'000 + static_cast<uint32_t>(i);
    r.priority = -1000 - i;  // beats every base rule: visible in answers
    burst.push_back(r);
  }
  burst.push_back(burst[3]);   // in-burst duplicate id
  burst.push_back(rules[10]);  // duplicate of a live base id
  EXPECT_EQ(nm.insert_batch(burst), 96u);
  for (int i = 0; i < 96; ++i) ASSERT_TRUE(oracle.insert(burst[static_cast<size_t>(i)]));
  EXPECT_EQ(nm.size(), rules.size() + 96);

  expect_equal_on_trace(nm, oracle, rules, 73);

  // Burst of erases spanning all three residences — churn rules (just
  // inserted), iSet rules and base-remainder rules — plus unknown ids.
  std::vector<uint32_t> ids;
  for (int i = 0; i < 40; ++i) ids.push_back(810'000 + static_cast<uint32_t>(i));
  for (uint32_t id = 0; id < 30; ++id) ids.push_back(id);  // base rules
  ids.push_back(0xDEAD0000);  // unknown
  ids.push_back(810'000);     // already erased above → reject
  EXPECT_EQ(nm.erase_batch(ids), 70u);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(oracle.erase(810'000 + static_cast<uint32_t>(i)));
  for (uint32_t id = 0; id < 30; ++id) ASSERT_TRUE(oracle.erase(id));
  EXPECT_EQ(nm.size(), rules.size() + 96 - 70);

  expect_equal_on_trace(nm, oracle, rules, 74);

  // And the journal/telemetry accounting matches the accepted ops.
  EXPECT_EQ(nm.update_ops(), 96u + 70u);
}

// Retrain cost control: iSets whose rule arrays are unchanged since the
// last swap reuse the trained model + certified error bounds instead of
// retraining. Remainder-only churn (inserts + churn erases, never touching
// an iSet rule) must reuse EVERY iSet; erasing an iSet rule must disqualify
// exactly the owning iSet at the next retrain.
TEST(OnlineUpdates, RetrainReusesModelsForUnchangedIsets) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 2500, 81);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0, /*auto=*/false)};
  nm.build(rules);
  const size_t n_isets = [&] {
    size_t n = 0;
    nm.with_stable_view([&](const NuevoMatch& v) { n = v.isets().size(); });
    return n;
  }();
  ASSERT_GT(n_isets, 0u);

  // Remainder-only churn: worse-priority inserts land in the update layer.
  Rng rng{82};
  for (int i = 0; i < 120; ++i) {
    Rule r = rules[rng.below(rules.size())];
    r.id = 900'000 + static_cast<uint32_t>(i);
    r.priority = 2'000'000 + i;
    ASSERT_TRUE(nm.insert(r));
  }
  nm.retrain_now();
  nm.quiesce();
  EXPECT_EQ(nm.last_retrain_reused_isets(), n_isets)
      << "remainder-only churn must retrain no iSet";

  // Verify the reused models still answer exactly.
  const StableCore core = make_stable_core(rules, 1500, 83);
  for (size_t i = 0; i < core.packets.size(); ++i)
    ASSERT_EQ(nm.match(core.packets[i]).rule_id, core.expected[i]) << "packet " << i;

  // Now tombstone one iSet rule: the next retrain's snapshot drops it, so
  // at least one iSet array changes and reuse must drop below full.
  uint32_t iset_victim = 0;
  bool found = false;
  nm.with_stable_view([&](const NuevoMatch& v) {
    for (const IsetIndex& is : v.isets()) {
      for (size_t i = 0; i < is.size(); ++i) {
        if (is.alive(i)) {
          iset_victim = is.rule(i).id;
          found = true;
          return;
        }
      }
    }
  });
  ASSERT_TRUE(found);
  ASSERT_TRUE(nm.erase(iset_victim));
  nm.retrain_now();
  nm.quiesce();
  EXPECT_LT(nm.last_retrain_reused_isets(), n_isets)
      << "a changed iSet array must not reuse its model";
}

// The offline build-with-reuse primitive the online path rides on: identical
// rule-set → every iSet model reused, answers unchanged.
TEST(Updates, BuildWithReuseIsExactOnIdenticalArrays) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 2000, 84);
  NuevoMatch a = make_nm();
  a.build(rules);
  ASSERT_FALSE(a.isets().empty());

  NuevoMatch b = make_nm();
  b.build(rules, &a);
  EXPECT_EQ(b.reused_isets(), a.isets().size());
  expect_equal_on_trace(a, b, rules, 85);

  // Without a donor, nothing is reused.
  NuevoMatch c = make_nm();
  c.build(rules);
  EXPECT_EQ(c.reused_isets(), 0u);
}

TEST(OnlineUpdates, SerializeRoundTripWithPendingRemainderRules) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 2, 1800, 29);
  OnlineNuevoMatch nm{make_online_cfg(/*threshold=*/1.0)};  // keep updates pending
  nm.build(rules);

  Rng rng{30};
  for (int i = 0; i < 40; ++i) {  // pending inserts → remainder absorption
    Rule r = rules[rng.below(rules.size())];
    r.id = static_cast<uint32_t>(600'000 + i);
    r.priority = 700'000 + i;
    ASSERT_TRUE(nm.insert(r));
  }
  for (uint32_t id = 0; id < 30; ++id) ASSERT_TRUE(nm.erase(id));  // tombstones
  const double pressure = nm.absorption();
  ASSERT_GT(pressure, 0.0);

  const auto bytes = serialize::save_online(nm);
  ASSERT_FALSE(bytes.empty());
  auto back = serialize::load_online(bytes, make_online_cfg(/*threshold=*/1.0));
  ASSERT_NE(back, nullptr);

  EXPECT_EQ(back->size(), nm.size());
  EXPECT_DOUBLE_EQ(back->absorption(), pressure) << "pressure must survive";
  TraceConfig tc;
  tc.n_packets = 3000;
  tc.seed = 31;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(back->match(p).rule_id, nm.match(p).rule_id) << to_string(p);
}

// Erases of every kind of live rule — iSet rules and base-remainder rules
// (both in-place tombstones in the live generation) and churn rules (the
// copy-on-write delta) — against LinearSearch, per key and batched. Rule
// bodies are shared across the three places with tied priorities, so
// answers hinge on the id tie-break: churn copies with a smaller id beat
// their base twin, copies with a larger id lose to it until it is erased.
TEST(OnlineUpdates, EraseAcrossIsetsBaseRemainderAndChurnMatchesLinearSearch) {
  constexpr uint32_t kIdShift = 50'000;  // leaves room for smaller churn ids
  RuleSet rules =
      testing_support::with_tied_priorities(generate_classbench(AppClass::kAcl, 1, 3000, 90),
                                            40, 91);
  for (Rule& r : rules) r.id += kIdShift;
  OnlineNuevoMatch online{make_online_cfg(/*threshold=*/1.0, /*auto_retrain=*/false)};
  online.build(rules);
  LinearSearch oracle;
  oracle.build(rules);

  std::vector<uint32_t> iset_ids;
  std::vector<Rule> base;
  {
    const auto pin = online.pin();
    for (const IsetIndex& is : pin.nm().isets())
      for (size_t i = 0; i < is.size(); ++i) iset_ids.push_back(is.rule(i).id);
    base = pin.nm().remainder_rules();
  }
  ASSERT_GE(iset_ids.size(), 60u);
  ASSERT_GE(base.size(), 60u);

  // Churn: twins of base-remainder and iSet rules at the same priority.
  Rng rng{92};
  std::vector<uint32_t> churn_ids;
  for (uint32_t k = 0; k < 120; ++k) {
    Rule twin = base[rng.below(base.size())];
    if (k % 3 == 0) {
      const uint32_t id = iset_ids[rng.below(iset_ids.size())];
      twin = *std::find_if(rules.begin(), rules.end(),
                           [&](const Rule& r) { return r.id == id; });
    }
    twin.id = k % 2 == 0 ? k : 200'000 + k;  // wins / loses the tie
    ASSERT_TRUE(online.insert(twin));
    ASSERT_TRUE(oracle.insert(twin));
    churn_ids.push_back(twin.id);
  }

  TraceConfig tc;
  tc.n_packets = 3000;
  tc.seed = 93;
  const auto trace = generate_trace(rules, tc);
  const auto expect_oracle = [&](const char* when) {
    std::vector<MatchResult> batched(trace.size());
    online.match_batch(trace, batched);
    for (size_t i = 0; i < trace.size(); ++i) {
      const MatchResult want = oracle.match(trace[i]);
      ASSERT_EQ(online.match(trace[i]).rule_id, want.rule_id)
          << when << ": " << to_string(trace[i]);
      ASSERT_EQ(batched[i].rule_id, want.rule_id) << when << " (batched)";
    }
    EXPECT_EQ(online.size(), oracle.size()) << when;
  };
  expect_oracle("after churn inserts");

  // 40 of each, iSet and base erases alternating with churn erases, part
  // through erase_batch (one commit) and part one by one.
  std::vector<uint32_t> victims;
  for (size_t k = 0; k < 40; ++k) {
    victims.push_back(iset_ids[(k * 7919) % iset_ids.size()]);
    victims.push_back(base[(k * 104729) % base.size()].id);
    victims.push_back(churn_ids[k * 3 % churn_ids.size()]);
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  const size_t half = victims.size() / 2;
  EXPECT_EQ(online.erase_batch(std::span(victims).first(half)), half);
  for (size_t k = half; k < victims.size(); ++k) ASSERT_TRUE(online.erase(victims[k]));
  for (const uint32_t id : victims) ASSERT_TRUE(oracle.erase(id));
  expect_oracle("after erases");
  // A second erase of any of them is refused.
  for (const uint32_t id : victims) EXPECT_FALSE(online.erase(id)) << id;

  // Erase the rest of the churn: the published delta is then empty (never
  // null), and the engine answers from the frozen index alone.
  std::vector<uint32_t> rest;
  for (const uint32_t id : churn_ids) {
    if (!std::binary_search(victims.begin(), victims.end(), id)) rest.push_back(id);
  }
  ASSERT_FALSE(rest.empty());
  EXPECT_EQ(online.erase_batch(rest), rest.size());
  for (const uint32_t id : rest) ASSERT_TRUE(oracle.erase(id));
  EXPECT_EQ(online.health().churn_rules, 0u);
  EXPECT_EQ(online.memory_bytes(), online.pin().nm().memory_bytes());
  expect_oracle("after every churn erase");

  // The base-remainder erases left the live remainder engine in place (no
  // rebuild): the generation did not change, and the next retrain compacts.
  EXPECT_EQ(online.generations(), 1u);
  online.retrain_now();
  online.quiesce();
  EXPECT_EQ(online.generations(), 2u);
  expect_oracle("after retrain");
}

// Only TupleMerge (and TupleSpaceSearch) remainders have reader-safe
// tombstones; any other remainder is refused up front, by the constructor
// and by adopt().
TEST(OnlineUpdates, ConstructorRejectsNonTupleMergeRemainder) {
  OnlineConfig cfg = make_online_cfg();
  cfg.base.remainder_factory = [] { return std::make_unique<CutSplit>(); };
  EXPECT_THROW(OnlineNuevoMatch{cfg}, std::invalid_argument);

  cfg.base.remainder_factory = [] { return std::make_unique<TupleSpaceSearch>(); };
  EXPECT_NO_THROW(OnlineNuevoMatch{cfg});

  NuevoMatchConfig ncfg = make_online_cfg().base;
  ncfg.remainder_factory = [] { return std::make_unique<CutSplit>(); };
  NuevoMatch cut{ncfg};
  cut.build(generate_classbench(AppClass::kAcl, 1, 300, 94));
  OnlineNuevoMatch online{make_online_cfg()};
  EXPECT_THROW(online.adopt(std::move(cut)), std::invalid_argument);
  EXPECT_EQ(online.generations(), 0u);  // nothing was installed
}

}  // namespace
}  // namespace nuevomatch
