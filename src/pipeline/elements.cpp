#include "pipeline/elements.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "classbench/parser.hpp"
#include "common/metrics.hpp"
#include "pipeline/graph.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch::pipeline {

namespace {

[[nodiscard]] RuleSet load_rules_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open rule file '" + path + "'");
  size_t skipped = 0;
  RuleSet rules = parse_classbench(in, &skipped);
  if (rules.empty())
    throw std::runtime_error("rule file '" + path + "' contains no rules");
  return rules;
}

[[nodiscard]] size_t to_size(const std::string& s, const char* what) {
  size_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size())
    throw std::runtime_error(std::string("bad ") + what + " '" + s + "'");
  return v;
}

[[nodiscard]] double to_double(const std::string& s, const char* what) {
  try {
    size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("bad ") + what + " '" + s + "'");
  }
}

[[nodiscard]] std::string fmt(const char* f, auto... a) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a...);
  return buf;
}

}  // namespace

// --- PcapSource -------------------------------------------------------------

PcapSource::PcapSource(const std::string& path)
    : reader_(std::make_unique<PcapReader>(path)) {
  if (!reader_->ok()) throw std::runtime_error(reader_->error());
}

bool PcapSource::pump(Burst& b) {
  PcapRecord rec;
  while (b.size < kBurstSize) {
    if (!reader_->next(rec)) {
      if (!reader_->ok()) throw std::runtime_error(reader_->error());
      break;  // clean EOF
    }
    const auto p = parse_frame(rec.frame, reader_->link_type());
    if (!p.has_value()) {
      skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // The stream position advances for every parseable frame, filter or
    // not: Burst::index is the GLOBAL capture position, so decisions from
    // different replicas merge 1:1 against a scalar run of the same file.
    const uint64_t pos = stream_pos_++;
    if (!accepts(*p, pos)) {
      filtered_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const uint32_t i = b.size++;
    b.pkt[i] = *p;
    b.ts_ns[i] = rec.ts_ns;
    b.index[i] = pos;
    b.result[i] = MatchResult{};
    b.action[i] = -1;
    packets_.fetch_add(1, std::memory_order_relaxed);
  }
  publish_pos(stream_pos_);
  return b.size > 0;
}

std::string PcapSource::report() const {
  std::string line =
      fmt("pcap source: %llu packets, %llu frames skipped (not IPv4)",
          static_cast<unsigned long long>(packets()),
          static_cast<unsigned long long>(skipped()));
  if (n_replicas() > 1)
    line += fmt(", %llu filtered to other replicas",
                static_cast<unsigned long long>(filtered()));
  return line;
}

// --- TraceSource ------------------------------------------------------------

TraceSource::TraceSource(std::vector<Packet> packets)
    : packets_(std::move(packets)) {}

TraceSource::TraceSource(const std::string& rules_path, size_t n_packets,
                         const TraceConfig& cfg) {
  const RuleSet rules = load_rules_file(rules_path);
  TraceConfig tc = cfg;
  tc.n_packets = n_packets;
  packets_ = generate_trace(rules, tc);
}

bool TraceSource::pump(Burst& b) {
  while (b.size < kBurstSize && next_ < packets_.size()) {
    const uint64_t pos = next_++;
    if (!accepts(packets_[pos], pos)) continue;  // index stays global — see PcapSource
    const uint32_t i = b.size++;
    b.pkt[i] = packets_[pos];
    b.ts_ns[i] = pos * 1'000;
    b.index[i] = pos;
    b.result[i] = MatchResult{};
    b.action[i] = -1;
  }
  publish_pos(next_);
  return b.size > 0;
}

std::string TraceSource::report() const {
  if (n_replicas() > 1)
    return fmt("trace source: %zu packets (replica filter %u-way)",
               packets_.size(), n_replicas());
  return fmt("trace source: %zu packets", packets_.size());
}

// --- FlowCacheElement -------------------------------------------------------

FlowCacheElement::FlowCacheElement(size_t capacity, size_t shards)
    : cache_(capacity, shards) {}

void FlowCacheElement::initialize(Graph& g) {
  // Couple coherence: the graph's classifier (if online) invalidates our
  // entries through its stamp. A scalar/absent classifier leaves the stamp
  // constant — a frozen rule-set needs no invalidation.
  //
  // The stamp is ONE source, so a graph feeding one cache from several
  // DISTINCT online engines cannot be made coherent this way (updates to
  // engine B would never invalidate decisions engine A... and vice versa).
  // Reject the ambiguity at wiring time instead of serving stale decisions.
  const OnlineNuevoMatch* src = nullptr;
  for (const auto& e : g.elements()) {
    const auto* cls = dynamic_cast<const ClassifierElement*>(e.get());
    if (cls == nullptr || cls->online() == nullptr) continue;
    if (src != nullptr && src != cls->online())
      throw std::runtime_error(
          "FlowCache '" + name() +
          "': graph has Classifier elements over DIFFERENT online engines; "
          "one coherence stamp cannot cover both (use one cache per engine)");
    src = cls->online();
  }
  cache_.set_stamp_source(src);
}

void FlowCacheElement::process(Burst& b) {
  // Read the fill stamp BEFORE any lane can be classified downstream: a
  // mutation committing after this read bumps the stamp past it, so the
  // decisions the classifier computes for this burst can never be served
  // once that mutation's call returns (coherence contract, flow_cache.hpp).
  const uint64_t stamp = cache_.current_stamp();
  const uint32_t lanes =
      (b.size >= kBurstSize ? ~uint32_t{0} : (1u << b.size) - 1) & ~b.resolved;
  if (lanes != 0) {
    // One shard-grouped burst probe instead of one lock per packet; the
    // cache re-checks the band marks per shard hold (flow_cache.hpp).
    std::array<Decision, kBurstSize> d;
    const uint32_t hits = cache_.lookup_burst(b.pkt.data(), b.size, lanes, d.data());
    for (uint32_t m = hits; m != 0; m &= m - 1) {
      const auto i = static_cast<uint32_t>(std::countr_zero(m));
      b.result[i] = MatchResult{d[i].rule_id, d[i].priority};
      b.action[i] = d[i].action;
      b.mark_resolved(i);
      b.from_cache |= 1u << i;
    }
    if ((lanes & ~hits) != 0) {
      b.fill = &cache_;
      b.fill_stamp = stamp;
    }
  }
  forward(b);
}

std::string FlowCacheElement::report() const {
  const FlowCache::Stats s = cache_.stats();
  return fmt("flow cache: %.1f%% hit rate (%llu hits — %llu retained past "
             "commits, %llu fresher than probe; %llu misses, %llu stale, "
             "%llu evictions, %llu insert drops; capacity %zu)",
             s.hit_rate() * 100.0, static_cast<unsigned long long>(s.hits),
             static_cast<unsigned long long>(s.retained),
             static_cast<unsigned long long>(s.future),
             static_cast<unsigned long long>(s.misses),
             static_cast<unsigned long long>(s.stale),
             static_cast<unsigned long long>(s.evictions),
             static_cast<unsigned long long>(s.insert_drops), cache_.capacity());
}

// --- ClassifierElement ------------------------------------------------------

ClassifierElement::ClassifierElement(const std::string& rules_path, Options opts) {
  const RuleSet rules = load_rules_file(rules_path);
  OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.base.min_iset_coverage = 0.05;  // §5.1 floor vs TupleMerge-class engines
  cfg.retrain_threshold = opts.retrain_threshold;
  cfg.auto_retrain = opts.auto_retrain;
  auto engine = std::make_shared<OnlineNuevoMatch>(std::move(cfg));
  engine->build(rules);
  attach(std::move(engine));
  set_actions(rules);
}

void ClassifierElement::attach(std::shared_ptr<OnlineNuevoMatch> engine) {
  online_ = std::move(engine);
  scalar_.reset();
}

void ClassifierElement::attach_scalar(
    std::shared_ptr<const nuevomatch::Classifier> engine) {
  scalar_ = std::move(engine);
  online_.reset();
}

void ClassifierElement::adopt_shared(const ClassifierElement& proto) {
  online_ = proto.online_;  // shared_ptr copy: N elements, ONE engine
  scalar_ = proto.scalar_;
  actions_ = proto.actions_;
}

void ClassifierElement::set_actions(std::span<const Rule> rules) {
  actions_.clear();
  actions_.reserve(rules.size());
  for (const Rule& r : rules) actions_.emplace(r.id, r.action);
}

int32_t ClassifierElement::action_of(int32_t rule_id) const {
  if (rule_id < 0) return -1;
  const auto it = actions_.find(static_cast<uint32_t>(rule_id));
  return it == actions_.end() ? -1 : it->second;
}

void ClassifierElement::initialize(Graph&) {
  if (online_ == nullptr && scalar_ == nullptr)
    throw std::runtime_error("Classifier element '" + name() +
                             "' has no engine (config rule file missing and "
                             "no attach() before initialize)");
}

void ClassifierElement::process(Burst& b) {
  // Classify the unresolved lanes as one burst-sized batch and honor the
  // cache-fill note. The common fully-unresolved burst (no cache upstream,
  // or a cold one) classifies straight out of / into the burst arrays; a
  // partially-resolved burst compacts the miss lanes first.
  const auto classify = [&](std::span<const Packet> in, std::span<MatchResult> out) {
    if (online_ != nullptr) {
      online_->match_batch(in, out);
    } else {
      for (size_t k = 0; k < in.size(); ++k) out[k] = scalar_->match(in[k]);
    }
  };
  // The cache-fill obligation is met with ONE shard-grouped burst insert
  // after the classify pass, not one locked insert per lane.
  std::array<Decision, kBurstSize> fill_d;
  uint32_t fill_mask = 0;
  const auto annotate = [&](uint32_t i) {
    b.action[i] = action_of(b.result[i].rule_id);
    b.mark_resolved(i);
    if (b.fill != nullptr) {
      fill_d[i] = Decision{b.result[i].rule_id, b.result[i].priority, b.action[i]};
      fill_mask |= 1u << i;
    }
  };

  const auto count = [this](uint32_t n) {
    bursts_.fetch_add(1, std::memory_order_relaxed);
    classified_.fetch_add(n, std::memory_order_relaxed);
    if (NM_METRICS_ENABLED) {
      ++m_acc_bursts_;
      m_acc_pkts_ += n;
      if (m_acc_bursts_ >= 64) flush_metrics_acc();
    }
  };

  if (b.size > 0 && b.resolved == 0) {
    count(b.size);
    classify({b.pkt.data(), b.size}, {b.result.data(), b.size});
    for (uint32_t i = 0; i < b.size; ++i) annotate(i);
  } else {
    std::array<Packet, kBurstSize> pkts;
    std::array<uint32_t, kBurstSize> lane;
    std::array<MatchResult, kBurstSize> res;
    uint32_t n = 0;
    for (uint32_t i = 0; i < b.size; ++i) {
      if (b.is_resolved(i)) continue;
      pkts[n] = b.pkt[i];
      lane[n] = i;
      ++n;
    }
    if (n > 0) {
      count(n);
      classify({pkts.data(), n}, {res.data(), n});
      for (uint32_t k = 0; k < n; ++k) {
        b.result[lane[k]] = res[k];
        annotate(lane[k]);
      }
    }
  }
  if (fill_mask != 0)
    b.fill->insert_burst(b.pkt.data(), b.size, fill_mask, fill_d.data(), b.fill_stamp);
  b.fill = nullptr;  // obligation met; downstream must not double-fill
  forward(b);
}

void ClassifierElement::flush_metrics_acc() {
  if (m_acc_bursts_ == 0 && m_acc_pkts_ == 0) return;
  static telemetry::Counter& mb = telemetry::registry().counter(
      "nm_classifier_bursts_total", "bursts classified by the slow path");
  static telemetry::Counter& mp = telemetry::registry().counter(
      "nm_classifier_packets_total", "packets classified by the slow path");
  mb.add(m_acc_bursts_);
  mp.add(m_acc_pkts_);
  m_acc_bursts_ = 0;
  m_acc_pkts_ = 0;
}

void ClassifierElement::finish() { flush_metrics_acc(); }

std::string ClassifierElement::report() const {
  std::string line = fmt("classified %llu packets in %llu bursts",
                         static_cast<unsigned long long>(classified()),
                         static_cast<unsigned long long>(
                             bursts_.load(std::memory_order_relaxed)));
  if (online_ != nullptr) {
    line += fmt(" (online engine: %llu generations, %llu updates)",
                static_cast<unsigned long long>(online_->generations()),
                static_cast<unsigned long long>(online_->update_ops()));
    // The operator surface: a healthy engine reports one word, an unhealthy
    // one reports exactly what is wrong (the reason a run's numbers are off
    // should be in the run's own report, not in a debugger).
    const EngineHealth h = online_->health();
    if (h.ok()) {
      line += "\n  health: ok";
    } else {
      line += fmt("\n  health: %s — %llu consecutive retrain failure(s) "
                  "(%llu lifetime)",
                  h.degraded ? "DEGRADED" : "retrying",
                  static_cast<unsigned long long>(h.retrain_failures),
                  static_cast<unsigned long long>(h.retrain_failures_total));
      if (h.in_backoff)
        line += fmt(", backoff %llu ms",
                    static_cast<unsigned long long>(h.backoff_ms));
      if (!h.last_error.empty()) line += ", last error: " + h.last_error;
    }
  } else if (scalar_ != nullptr) {
    line += " (scalar engine: " + scalar_->name() + ")";
  }
  return line;
}

// --- Dispatch ---------------------------------------------------------------

Dispatch::Dispatch(std::vector<std::string> port_names)
    : names_(std::move(port_names)) {
  if (names_.empty())
    throw std::runtime_error("Dispatch needs at least one output port name");
  counts_ = std::vector<std::atomic<uint64_t>>(names_.size());
  split_.resize(names_.size());
}

void Dispatch::process(Burst& b) {
  for (Burst& s : split_) {
    s.reset();
    // The cache-fill note travels with the split: a Classifier on a
    // Dispatch leg must still honor the upstream FlowCache's obligation.
    s.fill = b.fill;
    s.fill_stamp = b.fill_stamp;
  }
  const size_t last = names_.size() - 1;
  for (uint32_t i = 0; i < b.size; ++i) {
    const int32_t a = b.action[i];
    const size_t port =
        a >= 0 && static_cast<size_t>(a) < names_.size() ? static_cast<size_t>(a)
                                                         : last;
    Burst& s = split_[port];
    const uint32_t j = s.size++;
    s.pkt[j] = b.pkt[i];
    s.ts_ns[j] = b.ts_ns[i];
    s.index[j] = b.index[i];
    s.result[j] = b.result[i];
    s.action[j] = b.action[i];
    if (b.is_resolved(i)) s.mark_resolved(j);
    if ((b.from_cache >> i) & 1u) s.from_cache |= 1u << j;
    counts_[port].fetch_add(1, std::memory_order_relaxed);
  }
  for (size_t port = 0; port < split_.size(); ++port)
    forward(split_[port], port);
}

std::string Dispatch::report() const {
  std::string line = "dispatch:";
  for (size_t i = 0; i < names_.size(); ++i) {
    line += fmt(" %s=%llu", names_[i].c_str(),
                static_cast<unsigned long long>(port_packets(i)));
  }
  return line;
}

// --- Counter ----------------------------------------------------------------

Counter::Counter(std::string label) : label_(std::move(label)) {}

void Counter::process(Burst& b) {
  packets_.fetch_add(b.size, std::memory_order_relaxed);
  bursts_.fetch_add(1, std::memory_order_relaxed);
  forward(b);
}

std::string Counter::report() const {
  return fmt("counter%s%s%s: %llu packets / %llu bursts",
             label_.empty() ? "" : " (", label_.c_str(),
             label_.empty() ? "" : ")", static_cast<unsigned long long>(packets()),
             static_cast<unsigned long long>(bursts()));
}

// --- Sink -------------------------------------------------------------------

Sink::Sink(bool record) : record_(record) {}

void Sink::process(Burst& b) {
  packets_.fetch_add(b.size, std::memory_order_relaxed);
  if (record_) {
    for (uint32_t i = 0; i < b.size; ++i) {
      records_.push_back(Record{b.index[i], b.result[i].rule_id,
                                b.result[i].priority, b.action[i],
                                ((b.from_cache >> i) & 1u) != 0});
    }
  }
}

std::string Sink::report() const {
  return fmt("sink: %llu packets%s", static_cast<unsigned long long>(packets()),
             record_ ? " (recorded)" : "");
}

// --- PcapSink ---------------------------------------------------------------

PcapSink::PcapSink(const std::string& path, PcapWriterOptions opts)
    : writer_(std::make_unique<PcapWriter>(path, opts)) {
  if (!writer_->ok()) throw std::runtime_error(writer_->error());
}

void PcapSink::process(Burst& b) {
  for (uint32_t i = 0; i < b.size; ++i)
    writer_->write(b.ts_ns[i], synthesize_frame(b.pkt[i]));
  packets_ += b.size;
  forward(b);
}

void PcapSink::finish() {
  if (writer_ != nullptr) {
    if (!writer_->ok()) throw std::runtime_error(writer_->error());
    writer_->close();
  }
}

std::string PcapSink::report() const {
  return fmt("pcap sink: %llu frames written",
             static_cast<unsigned long long>(packets_));
}

// --- ScopedEngineDonor ------------------------------------------------------

namespace {
// thread_local: a donor installed while parsing replica k must not leak
// into an unrelated Graph::parse on another thread.
thread_local const ClassifierElement* g_engine_donor = nullptr;
}  // namespace

ScopedEngineDonor::ScopedEngineDonor(const ClassifierElement& proto) noexcept
    : prev_(g_engine_donor) {
  g_engine_donor = &proto;
}

ScopedEngineDonor::~ScopedEngineDonor() { g_engine_donor = prev_; }

// --- config-language factories ----------------------------------------------

namespace {

[[noreturn]] void usage(const char* msg) { throw std::runtime_error(msg); }

std::unique_ptr<Element> make_pcap_source(const std::vector<std::string>& a) {
  if (a.size() != 1) usage("PcapSource(file.pcap)");
  return std::make_unique<PcapSource>(a[0]);
}

std::unique_ptr<Element> make_trace_source(const std::vector<std::string>& a) {
  if (a.size() < 2 || a.size() > 3)
    usage("TraceSource(rules.file, n_packets[, uniform|zipf[:alpha]|caida])");
  TraceConfig tc;
  if (a.size() == 3) {
    const std::string& k = a[2];
    if (k == "uniform") {
      tc.kind = TraceConfig::Kind::kUniform;
    } else if (k == "caida") {
      tc.kind = TraceConfig::Kind::kCaidaLike;
    } else if (k.rfind("zipf", 0) == 0) {
      tc.kind = TraceConfig::Kind::kZipf;
      if (k.size() > 5 && k[4] == ':')
        tc.zipf_alpha = to_double(k.substr(5), "zipf alpha");
    } else {
      usage("TraceSource kind must be uniform, zipf[:alpha] or caida");
    }
  }
  return std::make_unique<TraceSource>(a[0], to_size(a[1], "packet count"), tc);
}

std::unique_ptr<Element> make_flow_cache(const std::vector<std::string>& a) {
  if (a.empty() || a.size() > 2) usage("FlowCache(capacity[, shards])");
  const size_t cap = to_size(a[0], "cache capacity");
  const size_t shards = a.size() == 2 ? to_size(a[1], "shard count") : 8;
  try {
    return std::make_unique<FlowCacheElement>(cap, shards);
  } catch (const std::invalid_argument& e) {
    usage(e.what());  // the constructor owns the shard bound
  }
}

std::unique_ptr<Element> make_classifier(const std::vector<std::string>& a) {
  if (a.empty())
    usage("Classifier(rules.file[, manual][, threshold=X])");
  ClassifierElement::Options opts;
  for (size_t i = 1; i < a.size(); ++i) {
    const std::string& arg = a[i];
    if (arg == "manual") {
      opts.auto_retrain = false;
    } else if (arg.rfind("threshold=", 0) == 0) {
      opts.retrain_threshold = to_double(arg.substr(10), "retrain threshold");
    } else {
      usage("unknown Classifier option (want manual, threshold=)");
    }
  }
  // Replica parse in progress: options were validated above, but the engine
  // (and the training run behind it) comes from the donor, not the file.
  if (g_engine_donor != nullptr) {
    auto el = std::make_unique<ClassifierElement>();
    el->adopt_shared(*g_engine_donor);
    return el;
  }
  return std::make_unique<ClassifierElement>(a[0], opts);
}

std::unique_ptr<Element> make_dispatch(const std::vector<std::string>& a) {
  return std::make_unique<Dispatch>(a);
}

std::unique_ptr<Element> make_counter(const std::vector<std::string>& a) {
  if (a.size() > 1) usage("Counter([label])");
  return std::make_unique<Counter>(a.empty() ? std::string{} : a[0]);
}

std::unique_ptr<Element> make_sink(const std::vector<std::string>& a) {
  if (a.empty()) return std::make_unique<Sink>();
  if (a.size() == 1 && a[0] == "record") return std::make_unique<Sink>(true);
  usage("Sink([record])");
}

std::unique_ptr<Element> make_pcap_sink(const std::vector<std::string>& a) {
  if (a.size() != 1) usage("PcapSink(file.pcap)");
  return std::make_unique<PcapSink>(a[0]);
}

}  // namespace

void register_builtin_elements() {
  static const bool once = [] {
    register_element("PcapSource", make_pcap_source);
    register_element("TraceSource", make_trace_source);
    register_element("FlowCache", make_flow_cache);
    register_element("Classifier", make_classifier);
    register_element("Dispatch", make_dispatch);
    register_element("Counter", make_counter);
    register_element("Sink", make_sink);
    register_element("PcapSink", make_pcap_sink);
    return true;
  }();
  (void)once;
}

}  // namespace nuevomatch::pipeline
