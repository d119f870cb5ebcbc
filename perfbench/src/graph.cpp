#include "graph.hpp"

#include <optional>
#include <stdexcept>

#include "pipeline/replicate.hpp"

namespace perfbench {
namespace {

namespace pl = nuevomatch::pipeline;

/// Wraps the real source: times each pump and marks where the burst began.
class ClockedSource final : public pl::SourceElement {
 public:
  ClockedSource(std::unique_ptr<pl::SourceElement> inner, const pl::PcapSource* pcap,
                pl::TraceSource* trace)
      : inner_(std::move(inner)), pcap_(pcap), trace_(trace) {}
  [[nodiscard]] std::string_view kind() const override { return "ClockedSource"; }
  [[nodiscard]] bool pump(pl::Burst& b) override {
    start_ = now_ns();
    const bool more = inner_->pump(b);
    end_ = now_ns();
    emitted_ += b.size;
    return more;
  }
  void rewind() {
    if (trace_ == nullptr) throw std::logic_error("only a trace source rewinds");
    trace_->rewind();
  }
  [[nodiscard]] uint64_t pump_start() const noexcept { return start_; }
  [[nodiscard]] uint64_t pump_end() const noexcept { return end_; }
  [[nodiscard]] uint64_t walked() const noexcept {
    return emitted_ + (pcap_ != nullptr ? pcap_->filtered() + pcap_->skipped() : 0);
  }

 private:
  std::unique_ptr<pl::SourceElement> inner_;
  const pl::PcapSource* pcap_;
  pl::TraceSource* trace_;
  uint64_t start_ = 0, end_ = 0, emitted_ = 0;
};

/// First element after the source. Its push returns once the burst has
/// reached every sink, which ends the burst's source-to-sink time.
class Head final : public pl::Element {
 public:
  Head(const ClockedSource& src, Tracer* tr, std::vector<double>* burst_ns)
      : src_(src), tr_(tr), burst_ns_(burst_ns) {}
  [[nodiscard]] std::string_view kind() const override { return "Head"; }
  void process(pl::Burst& b) override {
    if (tr_ != nullptr) {
      tr_->set_burst(++bursts_);
      tr_->begin_at(Layer::kBurst, src_.pump_start());
      tr_->leaf(Layer::kSource, src_.pump_start(), src_.pump_end());
    }
    forward(b);
    const uint64_t t = now_ns();
    if (tr_ != nullptr) {
      tr_->end_at(t);
    } else {
      burst_ns_->push_back(static_cast<double>(t - src_.pump_start()));
    }
  }

 private:
  const ClockedSource& src_;
  Tracer* tr_;
  std::vector<double>* burst_ns_;
  uint64_t bursts_ = 0;
};

/// Opens a span around everything downstream of it.
class Probe final : public pl::Element {
 public:
  Probe(Tracer& tr, Layer layer) : tr_(tr), layer_(layer) {}
  [[nodiscard]] std::string_view kind() const override { return "Probe"; }
  void process(pl::Burst& b) override {
    tr_.begin(layer_);
    forward(b);
    tr_.end();
  }

 private:
  Tracer& tr_;
  Layer layer_;
};

/// Compares every decision with the oracle's answer for its stream position.
class Verify final : public pl::Element {
 public:
  explicit Verify(std::span<const int32_t> oracle) : oracle_(oracle) {}
  [[nodiscard]] std::string_view kind() const override { return "Verify"; }
  void process(pl::Burst& b) override {
    for (uint32_t i = 0; i < b.size; ++i) {
      const uint64_t pos = b.index[i];
      wrong_ += pos >= oracle_.size() || oracle_[pos] != b.result[i].rule_id ? 1 : 0;
    }
    checked_ += b.size;
    forward(b);
  }
  [[nodiscard]] uint64_t checked() const noexcept { return checked_; }
  [[nodiscard]] uint64_t wrong() const noexcept { return wrong_; }

 private:
  std::span<const int32_t> oracle_;
  uint64_t checked_ = 0, wrong_ = 0;
};

pl::Graph build_graph(const GraphSpec& s, uint32_t replica, uint32_t n_replicas,
                      Tracer* tr, std::vector<double>* burst_ns) {
  pl::Graph g;
  std::unique_ptr<pl::SourceElement> inner;
  pl::PcapSource* pcap = nullptr;
  pl::TraceSource* trace = nullptr;
  if (s.trace != nullptr) {
    auto t = std::make_unique<pl::TraceSource>(*s.trace);
    trace = t.get();
    inner = std::move(t);
  } else {
    auto p = std::make_unique<pl::PcapSource>(s.pcap);
    pcap = p.get();
    inner = std::move(p);
  }
  // The wrapper is the graph's source, so ReplicatedGraph filters it; the
  // inner source is the one that reads, so it gets the same split here.
  inner->set_replica_filter(replica, n_replicas);
  auto& src = g.add(std::make_unique<ClockedSource>(std::move(inner), pcap, trace), "src");
  pl::Element* tail = &g.add(std::make_unique<Head>(src, tr, burst_ns), "head");
  g.connect(src, 0, *tail);

  const auto probe = [&](Layer l) -> pl::Element* {
    return tr == nullptr ? nullptr
                         : &g.add(std::make_unique<Probe>(*tr, l),
                                  std::string("probe.") + layer_name(l));
  };
  const auto chain = [&](std::unique_ptr<pl::Element> e, Layer l) -> pl::Element& {
    if (pl::Element* p = probe(l); p != nullptr) {
      g.connect(*tail, 0, *p);
      tail = p;
    }
    pl::Element& el = g.add(std::move(e), layer_name(l));
    g.connect(*tail, 0, el);
    tail = &el;
    return el;
  };

  chain(std::make_unique<pl::FlowCacheElement>(s.cache_capacity), Layer::kCache);
  auto cls = std::make_unique<pl::ClassifierElement>();
  cls->attach(s.engine);
  cls->set_actions(s.rules);
  chain(std::move(cls), Layer::kClassifier);
  chain(std::make_unique<Verify>(s.oracle), Layer::kVerify);
  if (s.dispatch) {
    pl::Element& d = chain(
        std::make_unique<pl::Dispatch>(std::vector<std::string>{"permit", "deny"}),
        Layer::kDispatch);
    pl::Element& sink = g.add(std::make_unique<pl::Sink>(), "sink");
    pl::Element* into = &sink;
    if (pl::Element* p = probe(Layer::kSink); p != nullptr) {
      g.connect(*p, 0, sink);
      into = p;
    }
    g.connect(d, 0, *into);
    g.connect(d, 1, *into);
  } else {
    chain(std::make_unique<pl::Sink>(), Layer::kSink);
  }
  return g;
}

nuevomatch::pipeline::FlowCache::Stats add(const pl::FlowCache::Stats& a,
                                           const pl::FlowCache::Stats& b) {
  return pl::FlowCache::Stats{a.hits + b.hits,           a.misses + b.misses,
                              a.stale + b.stale,         a.inserts + b.inserts,
                              a.evictions + b.evictions, a.retained + b.retained,
                              a.future + b.future,       a.insert_drops + b.insert_drops};
}

Counters read_counters(const pl::Graph& g) {
  Counters c;
  for (const auto& e : g.elements()) {
    if (const auto* s = dynamic_cast<const pl::Sink*>(e.get()); s != nullptr) {
      c.delivered += s->packets();
    } else if (const auto* v = dynamic_cast<const Verify*>(e.get()); v != nullptr) {
      c.checked += v->checked();
      c.wrong += v->wrong();
    } else if (const auto* k = dynamic_cast<const pl::ClassifierElement*>(e.get());
               k != nullptr) {
      c.classified += k->classified();
    } else if (const auto* f = dynamic_cast<const pl::FlowCacheElement*>(e.get());
               f != nullptr) {
      c.cache = add(c.cache, f->cache().stats());
    } else if (const auto* src = dynamic_cast<const ClockedSource*>(e.get());
               src != nullptr) {
      c.walked += src->walked();
    }
  }
  return c;
}

ClockedSource& clocked_source(const pl::Graph& g) {
  return *g.find_kind<ClockedSource>();
}

void require_correct_warmup(const Counters& c) {
  if (c.wrong != 0)
    throw std::runtime_error("verification failed: " + std::to_string(c.wrong) + " of " +
                             std::to_string(c.checked) +
                             " decisions of the warm-up pass differ from the oracle");
}

/// The p50 and p99 of the bursts an untraced pass appended from `first` on.
void close_pass(GraphRun& r, size_t first) {
  const std::vector<double> pass{r.burst_ns.begin() + static_cast<std::ptrdiff_t>(first),
                                 r.burst_ns.end()};
  r.pass_p50_ns.push_back(quantile(pass, 0.5));
  r.pass_p99_ns.push_back(quantile(pass, 0.99));
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  delivered += o.delivered;
  walked += o.walked;
  checked += o.checked;
  wrong += o.wrong;
  classified += o.classified;
  cache = add(cache, o.cache);
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters c;
  c.delivered = delivered - o.delivered;
  c.walked = walked - o.walked;
  c.checked = checked - o.checked;
  c.wrong = wrong - o.wrong;
  c.classified = classified - o.classified;
  c.cache = cache - o.cache;
  return c;
}

GraphRun run_plain(const GraphSpec& spec, bool traced, uint64_t deadline,
                   const std::function<void()>& between) {
  GraphRun r;
  pl::Graph plain = build_graph(spec, 0, 1, nullptr, &r.burst_ns);
  std::optional<pl::Graph> with_spans;
  if (traced) with_spans.emplace(build_graph(spec, 0, 1, &r.tracer, nullptr));

  const auto pass = [&](pl::Graph& g) {
    clocked_source(g).rewind();
    const Counters before = read_counters(g);
    const uint64_t t0 = now_ns();
    g.run();
    const uint64_t t1 = now_ns();
    return std::pair{read_counters(g) - before, t1 - t0};
  };
  // Warm-up: fills the flow cache and the model's cache lines; checked, not timed.
  Counters warm = pass(plain).first;
  if (with_spans) warm += pass(*with_spans).first;
  require_correct_warmup(warm);
  r.untraced = warm;
  r.burst_ns.clear();
  r.tracer = Tracer{};

  do {
    const size_t first = r.burst_ns.size();
    const auto [d, ns] = pass(plain);
    close_pass(r, first);
    r.untraced += d;
    r.rate.add(d.delivered, ns);
    if (between) between();
    if (with_spans) {
      const auto [dt, tns] = pass(*with_spans);
      r.traced += dt;
      r.traced_rate.add(dt.delivered, tns);
    }
  } while (now_ns() < deadline);
  return r;
}

GraphRun run_replicated(const GraphSpec& spec, uint32_t replicas, bool traced,
                        uint64_t deadline, const std::function<void()>& between) {
  GraphRun r;
  r.threads = replicas;
  std::vector<Tracer> tracers(replicas);
  std::vector<std::vector<double>> burst_ns(replicas);

  const auto pass = [&](bool with_spans) {
    pl::ReplicatedGraph rg{replicas, [&](uint32_t i, uint32_t n) {
                             return build_graph(spec, i, n,
                                                with_spans ? &tracers[i] : nullptr,
                                                &burst_ns[i]);
                           }};
    pl::ReplicatedRunOptions ro;
    ro.threads = replicas;
    const uint64_t t0 = now_ns();
    rg.run(ro);
    const uint64_t t1 = now_ns();
    Counters d;
    for (uint32_t i = 0; i < replicas; ++i) d += read_counters(rg.replica(i));
    return std::tuple{d, t1 - t0, rg.last_stats()};
  };

  Counters warm = std::get<0>(pass(false));
  require_correct_warmup(warm);
  r.untraced = warm;
  for (auto& v : burst_ns) v.clear();

  do {
    const auto [d, ns, st] = pass(false);
    r.untraced += d;
    r.rate.add(d.delivered, ns);
    const size_t first = r.burst_ns.size();
    for (auto& v : burst_ns) {
      r.burst_ns.insert(r.burst_ns.end(), v.begin(), v.end());
      v.clear();
    }
    close_pass(r, first);
    if (between) between();
    if (traced) {
      r.fires += st.fires;
      r.idle_fires += st.idle_fires;
      r.steals += st.steals;
      ++r.traced_passes;
      const auto traced_pass = pass(true);
      const Counters& dt = std::get<0>(traced_pass);
      r.traced += dt;
      r.traced_rate.add(dt.delivered, std::get<1>(traced_pass));
    }
  } while (now_ns() < deadline);
  for (const Tracer& t : tracers) r.tracer.absorb(t);
  return r;
}

double graph_construction_s(const GraphSpec& spec, uint32_t replicas) {
  std::vector<double> sink;
  const uint64_t t0 = now_ns();
  if (replicas <= 1) {
    const pl::Graph g = build_graph(spec, 0, 1, nullptr, &sink);
  } else {
    const pl::ReplicatedGraph rg{replicas, [&](uint32_t i, uint32_t n) {
                                   return build_graph(spec, i, n, nullptr, &sink);
                                 }};
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
