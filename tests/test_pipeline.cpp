// The dataplane pipeline subsystem (src/pipeline): config-language parsing
// and wiring, the update-coherent FlowCache, Dispatch routing, and the
// end-to-end differential the ISSUE 5 acceptance criteria name — a pcap
// run through FlowCache -> Classifier -> sinks produces decisions
// byte-identical to a scalar oracle, with the cache enabled, live rule
// updates landing mid-stream, and ≥3 forced retrain swaps.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "classbench/generator.hpp"
#include "classbench/parser.hpp"
#include "classifiers/linear.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"
#include "trace/pcap.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using pipeline::Burst;
using pipeline::Decision;
using pipeline::FlowCache;
using pipeline::Graph;
using pipeline::kBurstSize;

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::shared_ptr<OnlineNuevoMatch> make_online(const RuleSet& rules,
                                              bool auto_retrain = false) {
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;
  cfg.auto_retrain = auto_retrain;
  cfg.retrain_threshold = 1.0;
  auto online = std::make_shared<OnlineNuevoMatch>(std::move(cfg));
  online->build(rules);
  return online;
}

// --- FlowCache --------------------------------------------------------------

TEST(FlowCacheTest, HitMissAndFullKeyCompare) {
  FlowCache cache{64, 2};
  Packet p;
  p.field = {1, 2, 3, 4, 5};
  Decision d;
  EXPECT_FALSE(cache.lookup(p, d));
  cache.insert(p, Decision{7, 7, 1}, cache.current_stamp());
  ASSERT_TRUE(cache.lookup(p, d));
  EXPECT_EQ(d.rule_id, 7);
  EXPECT_EQ(d.action, 1);

  // A different five-tuple is a miss even if it hashed onto the same set —
  // the full key is compared, never just the hash.
  Packet q = p;
  q.field[kProto] = 6;
  EXPECT_FALSE(cache.lookup(q, d));
  const FlowCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
}

TEST(FlowCacheTest, StaleEntriesDieOnCoherenceStampBump) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 400, 11);
  auto online = make_online(rules);
  FlowCache cache{256};
  cache.set_stamp_source(online.get());

  // Cache the decision for a packet that hits some base rule.
  const std::vector<Packet> pkts = representative_packets(rules, 11);
  const Packet& p = pkts[5];
  const uint64_t stamp = cache.current_stamp();
  const MatchResult before = online->match(p);
  ASSERT_TRUE(before.hit());
  cache.insert(p, Decision{before.rule_id, before.priority, 0}, stamp);
  Decision d;
  ASSERT_TRUE(cache.lookup(p, d));

  // A better rule covering everything lands: the old decision is WRONG now.
  Rule shadow;
  for (int f = 0; f < kNumFields; ++f) shadow.field[static_cast<size_t>(f)] = full_range(f);
  shadow.id = 900'000;
  shadow.priority = -1;
  ASSERT_TRUE(online->insert(shadow));

  // The commit bumped the stamp: the cached decision must NOT be served.
  EXPECT_FALSE(cache.lookup(p, d));
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(online->match(p).rule_id, 900'000);

  // Refill under the new stamp; an erase invalidates again (tombstone-only
  // erases mutate in place, with no layer publication — they must bump too).
  const uint64_t stamp2 = cache.current_stamp();
  const MatchResult after = online->match(p);
  cache.insert(p, Decision{after.rule_id, after.priority, 0}, stamp2);
  ASSERT_TRUE(cache.lookup(p, d));
  EXPECT_EQ(d.rule_id, 900'000);
  ASSERT_TRUE(online->erase(900'000));
  EXPECT_FALSE(cache.lookup(p, d));
  EXPECT_EQ(online->match(p).rule_id, before.rule_id);
}

TEST(FlowCacheTest, RetrainSwapInvalidatesConservatively) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 1, 300, 12);
  auto online = make_online(rules);
  FlowCache cache{128};
  cache.set_stamp_source(online.get());
  const Packet p = representative_packets(rules, 12)[0];
  const uint64_t stamp = cache.current_stamp();
  const MatchResult r = online->match(p);
  cache.insert(p, Decision{r.rule_id, r.priority, 0}, stamp);
  online->retrain_now();
  online->quiesce();
  Decision d;
  EXPECT_FALSE(cache.lookup(p, d));  // swap bumps the stamp
  EXPECT_EQ(online->match(p).rule_id, r.rule_id);  // ...but answers held
}

TEST(FlowCacheTest, EvictionIsBoundedToTheSet) {
  FlowCache cache{FlowCache::kWays * 2, 1};  // tiny: 2 sets, 4 ways
  for (uint32_t i = 0; i < 64; ++i) {
    Packet p;
    p.field = {i, i + 1, i + 2, i + 3, 6};
    cache.insert(p, Decision{static_cast<int32_t>(i), 0, 0}, 0);
  }
  const FlowCache::Stats s = cache.stats();
  EXPECT_EQ(s.inserts, 64u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(cache.capacity(), 8u);
}

// --- config language --------------------------------------------------------

TEST(GraphParse, DeclarationsChainsPortsAndComments) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 200, 13);
  const std::string rules_path = tmp_path("parse.rules");
  {
    std::ofstream out{rules_path};
    write_classbench(out, rules);
  }
  const std::string config =
      "# a comment\n"
      "cls :: Classifier(" + rules_path + ", manual);\n"
      "disp :: Dispatch(permit, deny);  // trailing comment\n"
      "TraceSource(" + rules_path + ", 256, zipf:1.1) -> FlowCache(1024) -> cls;\n"
      "cls -> disp;\n"
      "disp[0] -> Counter(permit) -> Sink(record);\n"
      "disp[1] -> Sink();\n";
  Graph g = Graph::parse(config);
  EXPECT_NE(g.find("cls"), nullptr);
  EXPECT_NE(g.find("disp"), nullptr);
  EXPECT_NE(g.find_kind<pipeline::FlowCacheElement>(), nullptr);
  const uint64_t n = g.run();
  EXPECT_EQ(n, 256u);
  auto* counter = g.find_kind<pipeline::Counter>();
  auto* disp = static_cast<pipeline::Dispatch*>(g.find("disp"));
  // Every generated packet matches SOME rule (actions default to 0 =>
  // port 0), so the permit counter saw every packet that hit.
  EXPECT_EQ(counter->packets(), disp->port_packets(0));
  EXPECT_EQ(disp->port_packets(0) + disp->port_packets(1), 256u);
}

TEST(GraphParse, ErrorsAreDiagnosedWithLineNumbers) {
  EXPECT_THROW((void)Graph::parse("Nope(1) -> Sink();"), std::runtime_error);
  EXPECT_THROW((void)Graph::parse("unknown_name -> Sink();"), std::runtime_error);
  EXPECT_THROW((void)Graph::parse("a :: Counter();\na -> Sink(); a -> Sink();"),
               std::runtime_error);  // port 0 connected twice
  EXPECT_THROW((void)Graph::parse("a :: Counter();\na[3] -> Sink();"),
               std::runtime_error);  // no such port
  EXPECT_THROW((void)Graph::parse("a :: Counter(x"), std::runtime_error);
  // Overlong port numbers fail as a diagnosed parse error, not an
  // out_of_range escaping from the number conversion.
  EXPECT_THROW(
      (void)Graph::parse("a :: Counter();\na[99999999999999999999] -> Sink();"),
      std::runtime_error);
  // A port selector on a chain's final element selects a port but connects
  // nothing — rejected, not silently dropped.
  EXPECT_THROW((void)Graph::parse("a :: Counter();\na -> Sink()[1];"),
               std::runtime_error);
  try {
    (void)Graph::parse("a :: Counter();\nb :: Bogus();");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

// Asserts that parsing `config` fails with a diagnostic that names `line`
// and contains `fragment`. Every parser error must carry its line number —
// a config error in a 50-line graph is useless without one.
static void expect_parse_error(const std::string& config, int line,
                               const std::string& fragment) {
  try {
    (void)Graph::parse(config);
    FAIL() << "expected parse error containing '" << fragment << "'";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pipeline config line " + std::to_string(line)),
              std::string::npos)
        << "wrong/missing line number in: " << what;
    EXPECT_NE(what.find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << what;
  }
}

TEST(GraphParse, NegativeSuiteDiagnosesEveryMalformation) {
  // Unknown element kind in a declaration and in a chain.
  expect_parse_error("bad :: Nope(1);", 1, "unknown element kind 'Nope'");
  expect_parse_error("# leading comment\nNope() -> Sink();", 2,
                     "unknown element kind 'Nope'");
  // Reference to a name that was never declared.
  expect_parse_error("a :: Counter();\nghost -> Sink();", 2,
                     "unknown element 'ghost'");
  // Malformed declarations: missing '(', unterminated argument list,
  // missing identifier, and a declaration with a dangling tail.
  expect_parse_error("a :: Counter;", 1, "expected '(' after kind 'Counter'");
  expect_parse_error("a :: Counter(x", 1, "unterminated '('");
  // The missing ';' is detected at the NEXT token, so the diagnostic
  // points at line 2 — where the parser stopped, like a compiler would.
  expect_parse_error("a :: Counter()\nb :: Counter();", 2,
                     "expected ';' or '->' after declaration");
  // Duplicate element names are caught where the SECOND declaration sits.
  expect_parse_error("a :: Counter();\na :: Counter();", 2,
                     "duplicate element name 'a'");
  // Port selector abuse: out-of-range port, overlong digits (must be a
  // diagnosed parse error, not std::out_of_range escaping the converter),
  // unterminated selector, and a selector that ends a chain (selects a
  // port but connects nothing).
  expect_parse_error("a :: Counter();\na[3] -> Sink();", 2,
                     "has no output port");
  expect_parse_error("a :: Counter();\na[99999999999999999999] -> Sink();", 2,
                     "out of range");
  expect_parse_error("a :: Counter();\na[0 -> Sink();", 2,
                     "expected ']' after port number");
  expect_parse_error("a :: Counter();\nSink()[0];", 2, "ends the chain");
  // Double-connecting one output port.
  expect_parse_error("a :: Counter();\na -> Sink();\na -> Sink();", 3,
                     "connected twice");
  // Statements that parse to nothing.
  expect_parse_error("a :: Counter();\na;", 2, "statement has no effect");
  expect_parse_error("a :: Counter();\n-> Sink();", 2,
                     "expected an identifier");
  // Removed Classifier options are unknown, not silently ignored (options
  // are checked before the rule file is read).
  expect_parse_error("a :: Counter();\nc :: Classifier(rules, parallel);", 2,
                     "unknown Classifier option");
  expect_parse_error("a :: Counter();\n\nc :: Classifier(rules, shards=4);", 3,
                     "unknown Classifier option");
  // FlowCache shard counts outside 1..64 are config errors, not a billion
  // allocated shards or a silent clamp.
  expect_parse_error("c :: FlowCache(64, 0);", 1,
                     "FlowCache shard count must be 1..64");
  expect_parse_error("a :: Counter();\nc :: FlowCache(64, 65);", 2,
                     "FlowCache shard count must be 1..64");
  // A config-built cycle is rejected at initialize() (topology, not
  // syntax, so no line number — assert the named-element message instead).
  Graph g = Graph::parse(
      "a :: Counter(a);\nb :: Counter(b);\na -> b;\nb -> a;");
  try {
    g.initialize();
    FAIL() << "expected cycle rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
  }
}

// One coherence stamp cannot cover two distinct online engines: a cache in
// such a graph would keep serving decisions one engine's updates should
// have invalidated. The wiring must be rejected, not silently incoherent.
// Two classifiers sharing ONE engine are fine.
TEST(GraphParse, OneCacheOverTwoOnlineEnginesIsRejected) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 200, 19);
  const auto build = [&](bool shared_engine) {
    Graph g;
    auto& cache = g.add(std::make_unique<pipeline::FlowCacheElement>(256), "cache");
    auto a = std::make_unique<pipeline::ClassifierElement>();
    auto b = std::make_unique<pipeline::ClassifierElement>();
    auto engine = make_online(rules);
    a->attach(engine);
    b->attach(shared_engine ? engine : make_online(rules));
    auto& ca = g.add(std::move(a), "a");
    auto& cb = g.add(std::move(b), "b");
    auto& disp = g.add(
        std::make_unique<pipeline::Dispatch>(std::vector<std::string>{"x", "y"}),
        "disp");
    g.connect(cache, 0, disp);
    g.connect(disp, 0, ca);
    g.connect(disp, 1, cb);
    g.initialize();
  };
  EXPECT_NO_THROW(build(/*shared_engine=*/true));
  EXPECT_THROW(build(/*shared_engine=*/false), std::runtime_error);
}

TEST(GraphParse, CyclesAreRejected) {
  Graph g;
  auto& a = g.add(std::make_unique<pipeline::Counter>("a"), "a");
  auto& b = g.add(std::make_unique<pipeline::Counter>("b"), "b");
  g.connect(a, 0, b);
  g.connect(b, 0, a);
  EXPECT_THROW(g.initialize(), std::runtime_error);
}

// --- Dispatch ---------------------------------------------------------------

TEST(DispatchTest, RoutesOnRuleActionWithMissToLastPort) {
  // Hand-built rules with distinct actions; trace packets aimed at each.
  RuleSet rules = generate_classbench(AppClass::kAcl, 1, 300, 14);
  for (Rule& r : rules) r.action = static_cast<int32_t>(r.id % 2);

  auto online = make_online(rules);
  std::vector<Packet> pkts = representative_packets(rules, 14);
  Packet miss;  // the generator never emits proto 255 rules covering this
  miss.field = {0, 0, 0, 0, 255};
  LinearSearch oracle;
  oracle.build(rules);
  if (!oracle.match(miss).hit()) pkts.push_back(miss);

  Graph g;
  auto& src = g.add(std::make_unique<pipeline::TraceSource>(pkts), "src");
  auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
  cls_owned->attach(online);
  cls_owned->set_actions(rules);
  auto& cls = g.add(std::move(cls_owned), "cls");
  auto& disp = g.add(
      std::make_unique<pipeline::Dispatch>(std::vector<std::string>{"a0", "a1", "other"}),
      "disp");
  auto& s0 = g.add(std::make_unique<pipeline::Sink>(true), "s0");
  auto& s1 = g.add(std::make_unique<pipeline::Sink>(true), "s1");
  auto& s2 = g.add(std::make_unique<pipeline::Sink>(true), "s2");
  g.connect(src, 0, cls);
  g.connect(cls, 0, disp);
  g.connect(disp, 0, s0);
  g.connect(disp, 1, s1);
  g.connect(disp, 2, s2);
  g.run();

  uint64_t checked = 0;
  for (const auto* sink : {&s0, &s1, &s2}) {
    const int32_t want_action = sink == &s2 ? -1 : (sink == &s1 ? 1 : 0);
    for (const auto& rec : sink->records()) {
      const MatchResult r = oracle.match(pkts[rec.index]);
      EXPECT_EQ(rec.rule_id, r.rule_id);
      if (want_action >= 0) {
        ASSERT_GE(rec.rule_id, 0);
        EXPECT_EQ(rules[static_cast<size_t>(rec.rule_id)].action, want_action);
      } else {
        EXPECT_EQ(rec.rule_id, MatchResult::kNoMatch);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, pkts.size());
}

// --- end-to-end: the acceptance differential --------------------------------

// Pcap in -> FlowCache -> Classifier -> Dispatch -> record sinks, with live
// insert/erase commits AND forced retrain swaps landing mid-stream between
// bursts. Every emitted decision must equal a scalar oracle evaluated
// against the rule-set AS OF that packet's position in the stream — with
// the cache enabled throughout, so any stale-serve after an update is an
// immediate mismatch.
TEST(PipelineEndToEnd, PcapDecisionsMatchScalarOracleThroughUpdatesAndSwaps) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 600, 15);
  const std::string rules_path = tmp_path("e2e.rules");
  {
    std::ofstream out{rules_path};
    write_classbench(out, rules);
  }
  // Re-read: the classifier and the oracle must see the identical (file-
  // round-tripped) rule-set.
  std::ifstream rin{rules_path};
  const RuleSet file_rules = parse_classbench(rin);
  ASSERT_EQ(file_rules.size(), rules.size());

  // A skewed trace so the flow cache genuinely serves hits. Packets whose
  // protocol carries no L4 ports cannot transport ports through a frame —
  // zero them so the pcap round-trip is exact (same projection the wire
  // itself would impose).
  TraceConfig tc;
  tc.kind = TraceConfig::Kind::kZipf;
  tc.zipf_alpha = 1.15;
  tc.n_packets = 6'000;
  std::vector<Packet> trace = generate_trace(file_rules, tc);
  for (Packet& p : trace) {
    if (!proto_has_ports(static_cast<uint8_t>(p[kProto]))) {
      p.field[kSrcPort] = 0;
      p.field[kDstPort] = 0;
    }
  }
  const std::string pcap_path = tmp_path("e2e.pcap");
  ASSERT_TRUE(write_pcap_packets(pcap_path, trace));

  const std::string config =
      "src   :: PcapSource(" + pcap_path + ");\n"
      "cache :: FlowCache(4096);\n"
      "cls   :: Classifier(" + rules_path + ", manual);\n"
      "disp  :: Dispatch(permit, deny);\n"
      "hit_sink  :: Sink(record);\n"
      "miss_sink :: Sink(record);\n"
      "src -> cache -> cls -> disp;\n"
      "disp[0] -> hit_sink;\n"
      "disp[1] -> miss_sink;\n";
  Graph g = Graph::parse(config);
  auto* cls = g.find_kind<pipeline::ClassifierElement>();
  ASSERT_NE(cls, nullptr);
  OnlineNuevoMatch* online = cls->online();
  ASSERT_NE(online, nullptr);

  // Mid-stream events, applied between bursts by the run() tick hook. Each
  // CHANGES answers: a global shadow rule appears, then disappears, then a
  // swap is forced — decisions cached before each event are stale after it.
  Rule shadow;
  for (int f = 0; f < kNumFields; ++f)
    shadow.field[static_cast<size_t>(f)] = full_range(f);
  shadow.id = 700'000;
  shadow.priority = -10;
  const uint64_t n = trace.size();
  const uint64_t gen0 = online->generations();
  uint64_t insert_at = 0, erase_at = 0;
  int phase = 0;
  g.run([&](uint64_t done) {
    if (phase == 0 && done * 5 >= n) {
      ASSERT_TRUE(online->insert(shadow));
      insert_at = done;
      online->retrain_now();  // swap #1 races the next bursts
      ++phase;
    } else if (phase == 1 && done * 5 >= 2 * n) {
      online->quiesce();
      ASSERT_TRUE(online->erase(shadow.id));
      erase_at = done;
      ++phase;
    } else if ((phase == 2 && done * 5 >= 3 * n) ||
               (phase == 3 && done * 5 >= 4 * n)) {
      online->retrain_now();  // swaps #2 and #3, mid-stream
      online->quiesce();
      ++phase;
    }
  });
  online->quiesce();
  EXPECT_GE(online->generations() - gen0, 3u) << "three swaps must have landed";
  EXPECT_EQ(phase, 4);

  // Scalar oracles for the three rule-set epochs of the stream.
  NuevoMatchConfig ocfg;
  ocfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  ocfg.min_iset_coverage = 0.05;
  NuevoMatch base_oracle{ocfg};
  base_oracle.build(file_rules);
  RuleSet with_shadow = file_rules;
  with_shadow.push_back(shadow);
  NuevoMatchConfig ocfg2 = ocfg;
  NuevoMatch shadow_oracle{ocfg2};
  shadow_oracle.build(with_shadow);

  std::vector<pipeline::Sink::Record> decisions;
  for (const char* name : {"hit_sink", "miss_sink"}) {
    const auto& recs = static_cast<pipeline::Sink*>(g.find(name))->records();
    decisions.insert(decisions.end(), recs.begin(), recs.end());
  }
  ASSERT_EQ(decisions.size(), trace.size());
  uint64_t mismatches = 0;
  for (const auto& d : decisions) {
    const bool shadowed = d.index >= insert_at && d.index < erase_at;
    const NuevoMatch& oracle = shadowed ? shadow_oracle : base_oracle;
    if (oracle.match(trace[d.index]).rule_id != d.rule_id) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u)
      << "pipeline decisions diverged from the scalar oracle";

  // The differential is only meaningful if the cache served real hits.
  const FlowCache::Stats cs =
      g.find_kind<pipeline::FlowCacheElement>()->cache().stats();
  EXPECT_GT(cs.hits, 0u) << "flow cache never hit - differential vacuous";
  EXPECT_GT(cs.stale, 0u) << "updates should have invalidated cached entries";
}

// A Classifier sitting on a Dispatch leg must still honor the upstream
// FlowCache's fill obligation: the cache-fill note travels with the split
// bursts, so misses routed through Dispatch get cached and a second pass
// over the same traffic HITS.
TEST(DispatchTest, CacheFillNoteSurvivesTheSplit) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 300, 21);
  auto online = make_online(rules);
  std::vector<Packet> pkts = representative_packets(rules, 21);
  pkts.resize(64);

  Graph g;
  auto& src = g.add(std::make_unique<pipeline::TraceSource>(pkts), "src");
  auto& cache = g.add(std::make_unique<pipeline::FlowCacheElement>(1024), "cache");
  auto& disp = g.add(
      std::make_unique<pipeline::Dispatch>(std::vector<std::string>{"all"}), "disp");
  auto cls_owned = std::make_unique<pipeline::ClassifierElement>();
  cls_owned->attach(online);
  auto& cls = g.add(std::move(cls_owned), "cls");
  auto& sink = g.add(std::make_unique<pipeline::Sink>(), "sink");
  g.connect(src, 0, cache);
  g.connect(cache, 0, disp);
  g.connect(disp, 0, cls);
  g.connect(cls, 0, sink);

  g.run();  // first pass: all misses, fills through the Dispatch leg
  EXPECT_EQ(cache.cache().stats().hits, 0u);
  src.rewind();
  g.run();  // second pass: the fills must have landed
  EXPECT_EQ(cache.cache().stats().hits, pkts.size());
}

// --- golden fixtures ---------------------------------------------------------

// The CI example smoke runs example_pipeline_router over checked-in fixtures
// (examples/data/golden64.pcap + router_acl.rules). This test pins their
// provenance: regenerating them from the recipe must reproduce the committed
// bytes, so the fixtures can never silently drift from the generator (and a
// corrupted checkout fails here, not in CI archaeology).
TEST(GoldenData, CheckedInFixturesMatchTheGeneratorRecipe) {
  // THE RECIPE (keep in sync with examples/data/README.md): ClassBench
  // acl variant 1, 256 rules, seed 5; one representative packet per rule,
  // first 64, ports zeroed for port-less protocols; default pcap options.
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 256, 5);
  std::vector<Packet> pkts = representative_packets(rules, 5);
  pkts.resize(64);
  for (Packet& p : pkts) {
    if (!proto_has_ports(static_cast<uint8_t>(p[kProto]))) {
      p.field[kSrcPort] = 0;
      p.field[kDstPort] = 0;
    }
  }
  const std::string regen = tmp_path("golden_regen.pcap");
  ASSERT_TRUE(write_pcap_packets(regen, pkts));

  const auto slurp = [](const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    EXPECT_TRUE(in.good()) << path;
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  const std::string root = NM_SOURCE_ROOT;
  EXPECT_EQ(slurp(regen), slurp(root + "/examples/data/golden64.pcap"))
      << "golden64.pcap no longer matches its generator recipe";

  std::ostringstream rules_text;
  write_classbench(rules_text, rules);
  EXPECT_EQ(rules_text.str(), slurp(root + "/examples/data/router_acl.rules"))
      << "router_acl.rules no longer matches its generator recipe";
}

// TraceSource bursts are exactly kBurstSize except the tail.
TEST(PipelineEndToEnd, BurstBoundaries) {
  std::vector<Packet> pkts(kBurstSize * 2 + 5);
  Graph g;
  auto& src = g.add(std::make_unique<pipeline::TraceSource>(pkts), "src");
  auto& counter = g.add(std::make_unique<pipeline::Counter>(), "c");
  g.connect(src, 0, counter);
  EXPECT_EQ(g.run(), pkts.size());
  EXPECT_EQ(counter.packets(), pkts.size());
  EXPECT_EQ(counter.bursts(), 3u);
}

}  // namespace
}  // namespace nuevomatch
