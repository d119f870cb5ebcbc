#include <gtest/gtest.h>

#include "classifiers/linear.hpp"

namespace nuevomatch {
namespace {

RuleSet figure2_rules() {
  // The paper's Figure 2 classifier (IP ranges abstracted to integers).
  RuleSet rules(5);
  auto set = [&](size_t i, Range dst, Range dport) {
    for (int f = 0; f < kNumFields; ++f) rules[i].field[static_cast<size_t>(f)] = full_range(f);
    rules[i].field[kDstIp] = dst;
    rules[i].field[kDstPort] = dport;
  };
  set(0, Range{0x0A0A0000, 0x0A0AFFFF}, Range{10, 18});   // R0 10.10.*.*
  set(1, Range{0x0A0A0100, 0x0A0A01FF}, Range{15, 25});   // R1 10.10.1.*
  set(2, Range{0x0A000000, 0x0AFFFFFF}, Range{5, 8});     // R2 10.*.*.*
  set(3, Range{0x0A0A0300, 0x0A0A03FF}, Range{7, 20});    // R3 10.10.3.*
  set(4, Range{0x0A0A0364, 0x0A0A0364}, Range{19, 19});   // R4 10.10.3.100
  canonicalize(rules);
  return rules;
}

TEST(Linear, ReproducesPaperFigure2) {
  LinearSearch cls;
  cls.build(figure2_rules());
  // Packet 10.10.3.100:19 matches R3 and R4; R3 has higher priority.
  const Packet p{{0, 0x0A0A0364, 0, 19, 6}};
  const MatchResult r = cls.match(p);
  EXPECT_EQ(r.rule_id, 3);
}

TEST(Linear, MissWhenNothingMatches) {
  LinearSearch cls;
  cls.build(figure2_rules());
  const Packet p{{0, 0x0B000000, 0, 19, 6}};
  EXPECT_FALSE(cls.match(p).hit());
}

TEST(Linear, FloorExcludesEqualAndWorse) {
  LinearSearch cls;
  cls.build(figure2_rules());
  const Packet p{{0, 0x0A0A0364, 0, 19, 6}};  // matches prio 3 (R3) and 4 (R4)
  EXPECT_EQ(cls.match_with_floor(p, 4).rule_id, 3);
  EXPECT_FALSE(cls.match_with_floor(p, 3).hit());
  EXPECT_FALSE(cls.match_with_floor(p, 0).hit());
}

TEST(Linear, InsertMaintainsPriorityOrder) {
  LinearSearch cls;
  cls.build(figure2_rules());
  Rule r;
  for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  r.id = 100;
  r.priority = -1;  // beats everything
  cls.insert(r);
  const Packet p{{0, 0x0A0A0364, 0, 19, 6}};
  EXPECT_EQ(cls.match(p).rule_id, 100);
}

TEST(Linear, EraseRemovesRule) {
  LinearSearch cls;
  cls.build(figure2_rules());
  EXPECT_TRUE(cls.erase(3));
  const Packet p{{0, 0x0A0A0364, 0, 19, 6}};
  EXPECT_EQ(cls.match(p).rule_id, 4);  // R4 now wins
  EXPECT_FALSE(cls.erase(3));          // second erase fails
  EXPECT_EQ(cls.size(), 4u);
}

TEST(Linear, Accounting) {
  LinearSearch cls;
  cls.build(figure2_rules());
  EXPECT_EQ(cls.size(), 5u);
  EXPECT_EQ(cls.memory_bytes(), 5 * sizeof(Rule));
  EXPECT_EQ(cls.name(), "linear");
}

TEST(Linear, EmptyClassifierMisses) {
  LinearSearch cls;
  cls.build({});
  EXPECT_FALSE(cls.match(Packet{}).hit());
}

}  // namespace
}  // namespace nuevomatch
