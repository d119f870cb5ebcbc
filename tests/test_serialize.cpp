// Serialization round-trips and failure injection. The invariants: a loaded
// model answers every query exactly as the saved one did; any corrupted,
// truncated, or mislabeled buffer loads as std::nullopt — never as a
// classifier that answers queries.
#include <gtest/gtest.h>

#include <cstdio>

#include "classbench/generator.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "serialize/bytes.hpp"
#include "serialize/serialize.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch::serialize {
namespace {

rqrmi::RqRmi trained_model(size_t n, uint64_t seed) {
  Rng rng{seed};
  std::vector<rqrmi::KeyInterval> ivs;
  double at = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double len = (0.2 + 0.8 * rng.next_double()) / static_cast<double>(2 * n);
    const double gap = 0.5 / static_cast<double>(2 * n);
    ivs.push_back(rqrmi::KeyInterval{at, at + len, static_cast<uint32_t>(i)});
    at += len + gap;
  }
  rqrmi::RqRmi model;
  rqrmi::RqRmiConfig cfg;
  cfg.stage_widths = n > 500 ? std::vector<uint32_t>{1, 4, 16} : std::vector<uint32_t>{1, 4};
  cfg.seed = seed;
  model.build(std::move(ivs), cfg);
  return model;
}

TEST(SerializeBytes, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(SerializeBytes, WriterReaderRoundTrip) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u32(0xDEADBEEFu);
  w.put_i32(-42);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_f32(1.5f);
  w.put_f64(-2.25);
  const auto bytes = std::move(w).finish();

  ByteReader r{bytes};
  ASSERT_TRUE(r.check_crc());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_f32(), 1.5f);
  EXPECT_EQ(r.get_f64(), -2.25);
  EXPECT_TRUE(r.at_end());
}

TEST(SerializeBytes, ReaderFailsSoftOnTruncation) {
  ByteWriter w;
  w.put_u32(1);
  const auto bytes = std::move(w).finish();
  ByteReader r{std::span<const uint8_t>(bytes).subspan(0, 2)};
  EXPECT_FALSE(r.check_crc());
  EXPECT_EQ(r.get_u32(), 0u);  // all reads after failure return zero
  EXPECT_FALSE(r.ok());
}

struct ModelCase {
  size_t n;
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const ModelCase& c) {
    return os << "n" << c.n << "_s" << c.seed;
  }
};

class ModelRoundTrip : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelRoundTrip, LoadedModelPredictsIdentically) {
  const auto& c = GetParam();
  const rqrmi::RqRmi original = trained_model(c.n, c.seed);
  const auto bytes = save_model(original);
  const auto loaded = load_model(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_intervals(), original.num_intervals());
  EXPECT_EQ(loaded->memory_bytes(), original.memory_bytes());
  EXPECT_EQ(loaded->max_search_error(), original.max_search_error());
  Rng rng{c.seed ^ 0xF00D};
  for (int i = 0; i < 2000; ++i) {
    const auto key = static_cast<float>(rng.next_double());
    const auto a = original.lookup(key);
    const auto b = loaded->lookup(key);
    ASSERT_EQ(a.index, b.index) << "key=" << key;
    ASSERT_EQ(a.search_error, b.search_error) << "key=" << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModelRoundTrip,
                         ::testing::Values(ModelCase{1, 1}, ModelCase{10, 2},
                                           ModelCase{300, 3}, ModelCase{2000, 4}));

TEST(ModelSerialize, EmptyModelRoundTrips) {
  rqrmi::RqRmi empty;
  const auto bytes = save_model(empty);
  const auto loaded = load_model(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->trained());
}

TEST(RulesSerialize, RoundTripPreservesEveryField) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 2, 500, 5);
  const auto bytes = save_rules(rules);
  const auto loaded = load_rules(bytes);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    for (int f = 0; f < kNumFields; ++f)
      EXPECT_EQ((*loaded)[i].field[static_cast<size_t>(f)], rules[i].field[static_cast<size_t>(f)]);
    EXPECT_EQ((*loaded)[i].priority, rules[i].priority);
    EXPECT_EQ((*loaded)[i].id, rules[i].id);
    EXPECT_EQ((*loaded)[i].action, rules[i].action);
  }
}

NuevoMatchConfig tm_config() {
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.min_iset_coverage = 0.05;
  return cfg;
}

TEST(ClassifierSerialize, RoundTripMatchesOnFullTrace) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 4000, 6);
  NuevoMatch nm{tm_config()};
  nm.build(rules);
  ASSERT_GT(nm.coverage(), 0.0);

  const auto bytes = save_classifier(nm);
  auto loaded = load_classifier(bytes, tm_config());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), nm.size());
  EXPECT_DOUBLE_EQ(loaded->coverage(), nm.coverage());
  EXPECT_EQ(loaded->max_search_error(), nm.max_search_error());

  TraceConfig tc;
  tc.n_packets = 20'000;
  tc.seed = 77;
  for (const Packet& p : generate_trace(rules, tc)) {
    const auto a = nm.match(p);
    const auto b = loaded->match(p);
    ASSERT_EQ(a.rule_id, b.rule_id);
    ASSERT_EQ(a.priority, b.priority);
  }
}

TEST(ClassifierSerialize, LoadedClassifierStillAcceptsUpdates) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 2000, 7);
  NuevoMatch nm{tm_config()};
  nm.build(rules);
  auto loaded = load_classifier(save_classifier(nm), tm_config());
  ASSERT_TRUE(loaded.has_value());
  Rule extra;
  extra.field[kDstIp] = Range{42, 42};
  for (int f : {kSrcIp, kSrcPort, kDstPort, kProto})
    extra.field[static_cast<size_t>(f)] = full_range(f);
  extra.id = static_cast<uint32_t>(rules.size());
  extra.priority = -1;  // beats everything
  ASSERT_TRUE(loaded->insert(extra));
  Packet p;
  p.field[kDstIp] = 42;
  EXPECT_EQ(loaded->match(p).rule_id, static_cast<int32_t>(extra.id));
}

// --- failure injection -------------------------------------------------------

class CorruptionSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CorruptionSweep, BitFlipNeverLoads) {
  const rqrmi::RqRmi model = trained_model(100, 11);
  auto bytes = save_model(model);
  const size_t stride = GetParam();
  for (size_t pos = 0; pos < bytes.size(); pos += stride) {
    auto bad = bytes;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(load_model(bad).has_value()) << "flip at " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, CorruptionSweep, ::testing::Values(17, 97));

TEST(Corruption, TruncationNeverLoads) {
  const rqrmi::RqRmi model = trained_model(64, 12);
  const auto bytes = save_model(model);
  for (size_t keep = 0; keep < bytes.size(); keep += 13)
    EXPECT_FALSE(load_model(std::span<const uint8_t>(bytes).subspan(0, keep)).has_value());
}

TEST(Corruption, WrongMagicRejected) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 100, 13);
  const auto rule_bytes = save_rules(rules);
  EXPECT_FALSE(load_model(rule_bytes).has_value());

  NuevoMatch nm{tm_config()};
  nm.build(rules);
  EXPECT_FALSE(load_rules(save_classifier(nm)).has_value());
}

TEST(Corruption, TrailingGarbageRejected) {
  const auto bytes = save_rules(generate_classbench(AppClass::kAcl, 3, 50, 14));
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(load_rules(padded).has_value());
}

// --- corrupt-input fuzz sweeps ----------------------------------------------
// Exhaustive, not sampled: EVERY truncated prefix and EVERY single-bit flip
// of a valid blob must come back nullopt/nullptr — never a crash, never a
// classifier built from garbage. Inputs are kept small: each prefix/flip
// pays an O(n) CRC pass, so the sweeps are O(n^2).

OnlineConfig online_cfg() {
  OnlineConfig cfg;
  cfg.base = tm_config();
  cfg.auto_retrain = false;
  return cfg;
}

std::vector<uint8_t> small_online_blob() {
  OnlineNuevoMatch online{online_cfg()};
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 60, 21);
  online.build(rules);
  return save_online(online);
}

/// Rewrite the CRC-32 trailer so a corrupted body passes check_crc() — the
/// only way to drive the structural validation behind the checksum.
void refresh_crc(std::vector<uint8_t>& b) {
  ASSERT_GE(b.size(), 4u);
  const uint32_t c = crc32(std::span<const uint8_t>(b).first(b.size() - 4));
  for (size_t i = 0; i < 4; ++i)
    b[b.size() - 4 + i] = static_cast<uint8_t>(c >> (8 * i));
}

TEST(CorruptionFuzz, ModelEveryTruncatedPrefixRejected) {
  const auto bytes = save_model(trained_model(24, 41));
  const std::span<const uint8_t> all{bytes};
  for (size_t keep = 0; keep < bytes.size(); ++keep)
    ASSERT_FALSE(load_model(all.subspan(0, keep)).has_value()) << "keep " << keep;
}

TEST(CorruptionFuzz, OnlineEveryTruncatedPrefixRejected) {
  const auto bytes = small_online_blob();
  const std::span<const uint8_t> all{bytes};
  for (size_t keep = 0; keep < bytes.size(); ++keep)
    ASSERT_EQ(load_online(all.subspan(0, keep), online_cfg()), nullptr)
        << "keep " << keep;
}

TEST(CorruptionFuzz, ModelEveryBitFlipRejected) {
  const auto bytes = save_model(trained_model(24, 42));
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = bytes;
      bad[pos] ^= static_cast<uint8_t>(1u << bit);
      // A body flip breaks the CRC; a trailer flip breaks it from the other
      // side. Either way: no model.
      ASSERT_FALSE(load_model(bad).has_value()) << "pos " << pos << " bit " << bit;
    }
  }
}

TEST(CorruptionFuzz, OnlineEveryBitFlipRejected) {
  const auto bytes = small_online_blob();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = bytes;
      bad[pos] ^= static_cast<uint8_t>(1u << bit);
      ASSERT_EQ(load_online(bad, online_cfg()), nullptr)
          << "pos " << pos << " bit " << bit;
    }
  }
}

TEST(CorruptionFuzz, ModelBitFlipBehindValidCrcNeverCrashes) {
  // With the checksum healed, the flip reaches the structural checks. A
  // payload flip (a weight, an error bound) may legitimately load — the
  // contract is: reject OR return a well-formed model, never crash or
  // allocate absurdly on a poisoned length field.
  const auto bytes = save_model(trained_model(24, 43));
  for (size_t pos = 0; pos + 4 < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = bytes;
      bad[pos] ^= static_cast<uint8_t>(1u << bit);
      refresh_crc(bad);
      const auto m = load_model(bad);
      if (m.has_value()) {
        (void)m->lookup(0.5f);
        (void)m->num_intervals();
      }
    }
  }
}

TEST(CorruptionFuzz, OnlineBitFlipBehindValidCrcNeverCrashes) {
  // Same contract for the NMOL frame. Each successful load constructs a
  // full engine (worker thread included), so sweep one rotating bit per
  // third byte instead of all eight per byte — every region of the frame is
  // still hit.
  const auto bytes = small_online_blob();
  Packet probe{};
  for (size_t pos = 0; pos + 4 < bytes.size(); pos += 3) {
    auto bad = bytes;
    bad[pos] ^= static_cast<uint8_t>(1u << ((pos * 5 + 3) % 8));
    refresh_crc(bad);
    const auto engine = load_online(bad, online_cfg());
    if (engine != nullptr) {
      (void)engine->match(probe);
      (void)engine->size();
    }
  }
}

TEST(OnlineSerialize, V3FrameWithSeveralCountersLoadsTheirSum) {
  // The NMOL header is magic(4) | version u32 | counter count u32 | that many
  // u64 applied-op counters | classifier body | CRC. save_online writes one
  // counter; frames from the former sharded journal carried one per shard,
  // and load_online must accept them, summing the counters.
  constexpr size_t kCountAt = 8;
  constexpr size_t kCountersAt = 12;
  OnlineNuevoMatch online{online_cfg()};
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 60, 22);
  online.build(rules);
  ASSERT_TRUE(online.erase(3));
  ASSERT_TRUE(online.erase(4));
  const auto bytes = save_online(online);

  const auto get_le = [&](size_t at, int n) {
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= static_cast<uint64_t>(bytes[at + i]) << (8 * i);
    return v;
  };
  ASSERT_EQ(get_le(kCountAt, 4), 1u);
  ASSERT_EQ(get_le(kCountersAt, 8), 2u);

  // Splice: count 1 -> 4, the one counter -> four counters.
  std::vector<uint8_t> spliced(bytes.begin(), bytes.begin() + kCountAt);
  const uint64_t counters[] = {5, 7, 11, 13};
  for (int i = 0; i < 4; ++i) spliced.push_back(static_cast<uint8_t>(4u >> (8 * i)));
  for (const uint64_t c : counters)
    for (int i = 0; i < 8; ++i) spliced.push_back(static_cast<uint8_t>(c >> (8 * i)));
  spliced.insert(spliced.end(), bytes.begin() + kCountersAt + 8, bytes.end());
  refresh_crc(spliced);

  const auto loaded = load_online(spliced, online_cfg());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->update_ops(), 5u + 7u + 11u + 13u);
  EXPECT_EQ(loaded->size(), online.size());
  TraceConfig tc;
  tc.n_packets = 500;
  tc.seed = 23;
  for (const Packet& p : generate_trace(rules, tc))
    ASSERT_EQ(loaded->match(p).rule_id, online.match(p).rule_id) << to_string(p);
}

TEST(ClassifierSerialize, ImageWithMoreIsetsThanTheBoundIsRejected) {
  // An NMCL image is magic(4) | version u32 | iSet count u32 | that many iSet
  // sections | remainder rules (u64 count + rules) | built_size u64 |
  // migrated u64 | CRC. A one-iSet classifier with an empty remainder gives
  // one iSet section to repeat.
  constexpr size_t kCountAt = 8;
  constexpr size_t kIsetsAt = 12;
  constexpr size_t kTail = 8 + 8 + 8 + 4;
  RuleSet rules(40);
  for (uint32_t i = 0; i < rules.size(); ++i) {
    for (int f = 0; f < kNumFields; ++f) rules[i].field[static_cast<size_t>(f)] = full_range(f);
    rules[i].field[kDstIp] = Range{i * 1000, i * 1000 + 999};
    rules[i].id = i;
    rules[i].priority = static_cast<int32_t>(i);
  }
  NuevoMatchConfig cfg = tm_config();
  cfg.max_isets = 1;
  NuevoMatch nm{cfg};
  nm.build(rules);
  ASSERT_EQ(nm.isets().size(), 1u);
  ASSERT_EQ(nm.remainder_size(), 0u);
  const auto bytes = save_classifier(nm);
  ASSERT_EQ(bytes[kCountAt], 1u);

  const auto with_isets = [&](uint32_t n) {
    std::vector<uint8_t> out(bytes.begin(), bytes.begin() + kCountAt);
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(n >> (8 * i)));
    for (uint32_t k = 0; k < n; ++k)
      out.insert(out.end(), bytes.begin() + kIsetsAt, bytes.end() - kTail);
    out.insert(out.end(), bytes.end() - kTail, bytes.end());
    refresh_crc(out);
    return out;
  };
  const auto at_bound = load_classifier(with_isets(NuevoMatch::kMaxIsets), tm_config());
  ASSERT_TRUE(at_bound.has_value()) << "the spliced image must be well formed";
  EXPECT_EQ(at_bound->isets().size(), NuevoMatch::kMaxIsets);
  EXPECT_FALSE(load_classifier(with_isets(NuevoMatch::kMaxIsets + 1), tm_config()).has_value());
}

TEST(SerializeFailpoint, LoadFailpointFailsEveryLoader) {
  const auto model_bytes = save_model(trained_model(16, 44));
  const auto rule_bytes = save_rules(generate_classbench(AppClass::kIpc, 1, 40, 45));
  NuevoMatch nm{tm_config()};
  nm.build(generate_classbench(AppClass::kAcl, 1, 60, 46));
  const auto cls_bytes = save_classifier(nm);
  const auto online_bytes = small_online_blob();
  {
    failpoint::Scoped arm{failpoint::kSerializeLoad,
                          failpoint::Trigger::always()};
    EXPECT_FALSE(load_model(model_bytes).has_value());
    EXPECT_FALSE(load_rules(rule_bytes).has_value());
    EXPECT_FALSE(load_classifier(cls_bytes, tm_config()).has_value());
    EXPECT_EQ(load_online(online_bytes, online_cfg()), nullptr);
  }
  // Disarmed, the same bytes load fine: the failpoint is injection, not
  // state corruption.
  EXPECT_TRUE(load_model(model_bytes).has_value());
  EXPECT_TRUE(load_rules(rule_bytes).has_value());
  EXPECT_TRUE(load_classifier(cls_bytes, tm_config()).has_value());
  EXPECT_NE(load_online(online_bytes, online_cfg()), nullptr);
}

TEST(Files, WriteReadRoundTrip) {
  const auto bytes = save_rules(generate_classbench(AppClass::kAcl, 1, 64, 15));
  const std::string path = ::testing::TempDir() + "/nm_serialize_test.bin";
  ASSERT_TRUE(write_file(path, bytes));
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  std::remove(path.c_str());
  EXPECT_FALSE(read_file(path + ".does-not-exist").has_value());
}

}  // namespace
}  // namespace nuevomatch::serialize
