#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace nuevomatch {
namespace {

TEST(Range, ContainsEndpoints) {
  const Range r{10, 20};
  EXPECT_TRUE(r.contains(10));
  EXPECT_TRUE(r.contains(20));
  EXPECT_TRUE(r.contains(15));
  EXPECT_FALSE(r.contains(9));
  EXPECT_FALSE(r.contains(21));
}

TEST(Range, OverlapsIsSymmetricAndInclusive) {
  const Range a{0, 10};
  const Range b{10, 20};
  const Range c{21, 30};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c) == c.overlaps(b));
}

TEST(Range, SpanHandlesFullDomain) {
  EXPECT_EQ((Range{0, 0xFFFFFFFFu}).span(), 0x100000000ull);
  EXPECT_EQ((Range{5, 5}).span(), 1ull);
}

TEST(Range, FullRangePerField) {
  EXPECT_EQ(full_range(kSrcIp).hi, 0xFFFFFFFFu);
  EXPECT_EQ(full_range(kSrcPort).hi, 0xFFFFu);
  EXPECT_EQ(full_range(kProto).hi, 0xFFu);
}

TEST(Rule, MatchesAllFieldsConjunctively) {
  Rule r;
  r.field[kSrcIp] = {100, 200};
  r.field[kDstIp] = full_range(kDstIp);
  r.field[kSrcPort] = full_range(kSrcPort);
  r.field[kDstPort] = {80, 80};
  r.field[kProto] = {6, 6};
  Packet p{{150, 42, 1234, 80, 6}};
  EXPECT_TRUE(r.matches(p));
  p.field[kDstPort] = 81;
  EXPECT_FALSE(r.matches(p));
  p.field[kDstPort] = 80;
  p.field[kSrcIp] = 99;
  EXPECT_FALSE(r.matches(p));
}

TEST(Rule, WildcardDetection) {
  Rule r;
  for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  EXPECT_TRUE(r.is_wildcard(kSrcIp));
  r.field[kSrcIp] = {0, 10};
  EXPECT_FALSE(r.is_wildcard(kSrcIp));
}

TEST(MatchResult, BeatsPrefersLowerPriorityValue) {
  const MatchResult a{1, 5};
  const MatchResult b{2, 7};
  EXPECT_TRUE(a.beats(b));
  EXPECT_FALSE(b.beats(a));
}

TEST(MatchResult, BeatsBreaksTiesById) {
  const MatchResult a{1, 5};
  const MatchResult b{2, 5};
  EXPECT_TRUE(a.beats(b));
  EXPECT_FALSE(b.beats(a));
}

TEST(MatchResult, MissNeverBeats) {
  const MatchResult miss;
  const MatchResult hit{0, 100};
  EXPECT_FALSE(miss.beats(hit));
  EXPECT_TRUE(hit.beats(miss));
  EXPECT_FALSE(miss.beats(miss));
  EXPECT_FALSE(miss.hit());
}

TEST(RuleSet, CanonicalizeAssignsDenseIdsAndPriorities) {
  RuleSet rules(5);
  canonicalize(rules);
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].id, i);
    EXPECT_EQ(rules[i].priority, static_cast<int32_t>(i));
  }
}

TEST(RuleSet, ValidateAcceptsCanonical) {
  RuleSet rules(3);
  for (auto& r : rules)
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  canonicalize(rules);
  EXPECT_EQ(validate_ruleset(rules), "");
}

// Each case breaks one rule of a canonical two-rule set.
TEST(RuleSet, ValidateRejectsMalformed) {
  const std::vector<std::pair<const char*, void (*)(RuleSet&)>> cases = {
      {"inverted range", [](RuleSet& rs) { rs[0].field[kSrcIp] = {10, 5}; }},
      {"domain overflow", [](RuleSet& rs) { rs[0].field[kSrcPort] = {0, 0x10000}; }},
      {"duplicate id", [](RuleSet& rs) { rs[1].id = 0; }},
      // The miss's priority: no engine could ever return such a rule.
      {"priority INT32_MAX",
       [](RuleSet& rs) { rs[1].priority = std::numeric_limits<int32_t>::max(); }},
  };
  RuleSet valid(2);
  canonicalize(valid);
  ASSERT_EQ(validate_ruleset(valid), "");
  for (const auto& [what, mutate] : cases) {
    RuleSet rules = valid;
    mutate(rules);
    EXPECT_NE(validate_ruleset(rules), "") << what;
  }
}

TEST(ToString, RendersRuleAndPacket) {
  Rule r;
  RuleSet empty;
  canonicalize(empty);  // no-op sanity for empty set
  r.id = 3;
  r.priority = 1;
  EXPECT_NE(to_string(r).find("rule{id=3"), std::string::npos);
  Packet p{{1, 2, 3, 4, 5}};
  EXPECT_EQ(to_string(p), "pkt{1 2 3 4 5}");
  EXPECT_EQ(to_string(Range{1, 2}), "[1,2]");
}

}  // namespace
}  // namespace nuevomatch
