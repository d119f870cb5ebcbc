// Failpoint framework tests: trigger semantics (always / first:N / nth:N,
// on the evaluation count and on a caller's item number), spec-string and
// env arming, counters, the RAII Scoped helper, the cheap disarmed gate —
// and the one failpoint whose graceful-degradation contract lives below
// the engine: epoch.grow, which must turn chunk-allocation failure into the
// pre-growth spin, never a crash.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "nuevomatch/epoch.hpp"

namespace nuevomatch {
namespace {

using failpoint::Trigger;

// Registered (and therefore run) FIRST in this binary: NM_FAILPOINTS is
// parsed once, before the first gate check, so the variable must be set
// before anything in this process evaluates a failpoint.
TEST(FailpointEnv, NmFailpointsArmsBeforeFirstEvaluation) {
  ::setenv("NM_FAILPOINTS", "env.test=first:2,env.other=always", 1);
  EXPECT_TRUE(failpoint::should_fire("env.test"));
  EXPECT_TRUE(failpoint::should_fire("env.test"));
  EXPECT_FALSE(failpoint::should_fire("env.test"));  // first:2 exhausted
  EXPECT_TRUE(failpoint::should_fire("env.other"));
  failpoint::disarm_all();
  ::unsetenv("NM_FAILPOINTS");
}

TEST(FailpointTriggers, DisarmedIsNeverAndFree) {
  failpoint::disarm_all();
  EXPECT_FALSE(failpoint::any_armed());
  EXPECT_FALSE(failpoint::should_fire("nobody.armed.this"));
  EXPECT_EQ(failpoint::evaluations("nobody.armed.this"), 0u);
}

TEST(FailpointTriggers, AlwaysFirstNthSemantics) {
  failpoint::Scoped always{"t.always", Trigger::always()};
  failpoint::Scoped first{"t.first", Trigger::first(3)};
  failpoint::Scoped nth{"t.nth", Trigger::nth(3)};
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(failpoint::should_fire("t.always")) << i;
    EXPECT_EQ(failpoint::should_fire("t.first"), i <= 3) << i;
    EXPECT_EQ(failpoint::should_fire("t.nth"), i == 3) << i;
  }
  EXPECT_EQ(failpoint::evaluations("t.always"), 5u);
  EXPECT_EQ(failpoint::fires("t.always"), 5u);
  EXPECT_EQ(failpoint::fires("t.first"), 3u);
  EXPECT_EQ(failpoint::fires("t.nth"), 1u);
}

// should_fire_at decides on the caller's item number, so a trigger fails
// the same items on every walk (pcap.parse: record K of each walk of a
// capture), however many walks came before.
TEST(FailpointTriggers, OrdinalTriggersRepeatOnEveryWalk) {
  failpoint::Scoped always{"t.at.always", Trigger::always()};
  failpoint::Scoped first{"t.at.first", Trigger::first(2)};
  failpoint::Scoped nth{"t.at.nth", Trigger::nth(3)};
  for (int walk = 0; walk < 3; ++walk) {
    for (uint64_t k = 1; k <= 5; ++k) {
      EXPECT_TRUE(failpoint::should_fire_at("t.at.always", k)) << walk << "/" << k;
      EXPECT_EQ(failpoint::should_fire_at("t.at.first", k), k <= 2) << walk << "/" << k;
      EXPECT_EQ(failpoint::should_fire_at("t.at.nth", k), k == 3) << walk << "/" << k;
    }
  }
  EXPECT_EQ(failpoint::evaluations("t.at.nth"), 15u);
  EXPECT_EQ(failpoint::fires("t.at.always"), 15u);
  EXPECT_EQ(failpoint::fires("t.at.first"), 6u);
  EXPECT_EQ(failpoint::fires("t.at.nth"), 3u);
  EXPECT_FALSE(failpoint::should_fire_at("nobody.armed.this", 1));
}

TEST(FailpointTriggers, ThreadSafeFirstNFiresExactlyN) {
  failpoint::Scoped arm{"t.race", Trigger::first(100)};
  std::atomic<uint64_t> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (failpoint::should_fire("t.race")) fired.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fired.load(), 100u)
      << "first:N must fire on exactly N evaluations across threads";
  EXPECT_EQ(failpoint::evaluations("t.race"), 4000u);
}

TEST(FailpointSpec, ParsesEveryTriggerAndSkipsMalformed) {
  failpoint::disarm_all();
  // 4 well-formed entries (a bare name means "always"); the malformed ones
  // (an unknown trigger, empty name, bad count) are skipped.
  EXPECT_EQ(failpoint::arm_from_spec("s.a=always,s.b=first:2;s.c=nth:3,"
                                     "s.d=prob:0.25:9,s.e,"
                                     "=bad,s.x=first:oops,s.y=prob:2.0"),
            4u);
  EXPECT_EQ(failpoint::armed_points().size(), 4u);
  EXPECT_TRUE(failpoint::should_fire("s.a"));
  EXPECT_TRUE(failpoint::should_fire("s.e"));
  EXPECT_TRUE(failpoint::should_fire("s.b"));
  EXPECT_FALSE(failpoint::should_fire("s.c"));  // nth:3, evaluation 1
  EXPECT_FALSE(failpoint::should_fire("s.x"));  // skipped, not armed
  // "off" disarms through the same grammar.
  EXPECT_EQ(failpoint::arm_from_spec("s.a=off"), 0u);
  EXPECT_FALSE(failpoint::should_fire("s.a"));
  EXPECT_EQ(failpoint::armed_points().size(), 3u);
  failpoint::disarm_all();
  EXPECT_FALSE(failpoint::any_armed());
}

TEST(FailpointScoped, DisarmsOnScopeExitEvenAcrossReturn) {
  {
    failpoint::Scoped arm{"t.scoped", Trigger::always()};
    EXPECT_TRUE(failpoint::should_fire("t.scoped"));
  }
  EXPECT_FALSE(failpoint::should_fire("t.scoped"));
  EXPECT_FALSE(failpoint::any_armed());
}

// The epoch.grow contract: an injected chunk-allocation failure must leave
// enter() spinning (the pre-growth behavior) rather than crashing, existing
// readers untouched, and growth must resume the moment the point is
// disarmed.
TEST(FailpointEpoch, GrowFailureDegradesToSpinThenRecovers) {
  epoch::Domain d;
  ASSERT_EQ(d.capacity(), epoch::Domain::kInitialSlots);

  failpoint::arm(failpoint::kEpochGrow, Trigger::always());
  // Saturate every pre-installed slot.
  std::vector<size_t> held;
  for (size_t i = 0; i < epoch::Domain::kInitialSlots; ++i)
    held.push_back(d.enter());
  EXPECT_EQ(d.capacity(), epoch::Domain::kInitialSlots);

  // The oversubscribed reader degrades to waiting for a free slot — and
  // proceeds the moment one frees, proving the spin is live, not a wedge.
  std::atomic<bool> entered{false};
  std::thread straggler{[&] {
    const size_t s = d.enter();
    entered.store(true, std::memory_order_release);
    d.exit(s);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(entered.load(std::memory_order_acquire))
      << "enter() must not grow while the failpoint injects alloc failure";
  EXPECT_GT(failpoint::fires(failpoint::kEpochGrow), 0u)
      << "the saturated probe rounds never reached grow()";
  d.exit(held.back());
  held.pop_back();
  straggler.join();
  EXPECT_TRUE(entered.load());
  EXPECT_EQ(d.capacity(), epoch::Domain::kInitialSlots);

  // Disarm: the next oversubscribed enter() grows for real.
  failpoint::disarm(failpoint::kEpochGrow);
  held.push_back(d.enter());  // re-saturate (the straggler released its slot)
  const size_t grown = d.enter();
  EXPECT_EQ(d.capacity(), 2 * epoch::Domain::kInitialSlots);
  d.exit(grown);
  for (const size_t s : held) d.exit(s);
}

}  // namespace
}  // namespace nuevomatch
