#include "pipeline/graph.hpp"

#include <cctype>
#include <charconv>
#include <exception>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "common/metrics.hpp"

namespace nuevomatch::pipeline {

// --- registry ---------------------------------------------------------------

namespace {

std::map<std::string, ElementFactory, std::less<>>& registry_map() {
  static std::map<std::string, ElementFactory, std::less<>> m;
  return m;
}

// Built-ins register through an explicit call (elements.cpp), not static
// initializers — a static library may never pull in elements.o otherwise.
void ensure_builtins_registered();

}  // namespace

bool register_element(std::string kind, ElementFactory factory) {
  return registry_map().emplace(std::move(kind), std::move(factory)).second;
}

std::unique_ptr<Element> make_element(std::string_view kind,
                                      const std::vector<std::string>& args) {
  ensure_builtins_registered();
  const auto it = registry_map().find(kind);
  if (it == registry_map().end())
    throw std::runtime_error("unknown element kind '" + std::string(kind) + "'");
  return it->second(args);
}

// --- graph core -------------------------------------------------------------

void Graph::add_impl(std::unique_ptr<Element> e, std::string name) {
  if (name.empty())
    name = std::string(e->kind()) + "@" + std::to_string(anon_counter_++);
  if (by_name_.contains(name))
    throw std::runtime_error("duplicate element name '" + name + "'");
  e->name_ = name;
  e->outs_.assign(e->n_outputs(), nullptr);
  by_name_.emplace(std::move(name), e.get());
  elems_.push_back(std::move(e));
}

void Graph::connect(Element& from, size_t port, Element& to) {
  if (port >= from.n_outputs())
    throw std::runtime_error("element '" + from.name() + "' has no output port [" +
                             std::to_string(port) + "]");
  if (from.outs_[port] != nullptr)
    throw std::runtime_error("output port '" + from.name() + "[" +
                             std::to_string(port) + "]' connected twice");
  from.outs_[port] = &to;
}

Element* Graph::find(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : it->second;
}

void Graph::check_acyclic() const {
  // Iterative three-color DFS over the port edges.
  enum class Color : uint8_t { kWhite, kGray, kBlack };
  std::unordered_map<const Element*, Color> color;
  for (const auto& e : elems_) color[e.get()] = Color::kWhite;
  for (const auto& root : elems_) {
    if (color[root.get()] != Color::kWhite) continue;
    std::vector<std::pair<const Element*, size_t>> stack{{root.get(), 0}};
    color[root.get()] = Color::kGray;
    while (!stack.empty()) {
      auto& [e, next_port] = stack.back();
      if (next_port >= e->n_outputs()) {
        color[e] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const Element* succ = e->output(next_port++);
      if (succ == nullptr) continue;
      if (color[succ] == Color::kGray)
        throw std::runtime_error("pipeline graph has a cycle through '" +
                                 succ->name() + "'");
      if (color[succ] == Color::kWhite) {
        color[succ] = Color::kGray;
        stack.emplace_back(succ, 0);
      }
    }
  }
}

void Graph::initialize() {
  if (initialized_) return;
  check_acyclic();
  for (const auto& e : elems_) e->initialize(*this);
  initialized_ = true;
}

uint64_t Graph::run(const std::function<void(uint64_t)>& tick) {
  step_eos_ = false;  // a rewound source may be driven again
  uint64_t packets = 0;
  while (step(&packets))
    if (tick) tick(packets);
  finish_run();
  return packets;
}

bool Graph::step(uint64_t* pumped) {
  initialize();
  if (step_src_ == nullptr) {
    for (const auto& e : elems_) {
      if (!e->is_source()) continue;
      if (step_src_ != nullptr)
        throw std::runtime_error(
            "Graph::run/step need exactly one source element (this graph "
            "has several)");
      step_src_ = static_cast<SourceElement*>(e.get());
    }
    if (step_src_ == nullptr)
      throw std::runtime_error("Graph::run/step: graph has no source element");
  }
  if (step_eos_) return false;
  step_burst_.reset();
  const bool lat_sampled = NM_METRICS_ENABLED && NM_SAMPLE_EVERY(32);
  const uint64_t t0 = lat_sampled ? telemetry::now_ns() : 0;
  if (!step_src_->pump(step_burst_)) {
    step_eos_ = true;
    return false;
  }
  if (pumped != nullptr) *pumped += step_burst_.size;
  if (step_burst_.size > 0) step_src_->forward(step_burst_);
  if (NM_METRICS_ENABLED) {
    // Batch the per-burst counts locally: a registry add is a TLS-shard
    // fetch_add (~10ns), too dear to pay twice per burst on the pump path.
    // Flushed every 64 bursts and in finish_run(), so a live scrape lags
    // by at most one batch.
    ++m_acc_bursts_;
    m_acc_packets_ += step_burst_.size;
    if (m_acc_bursts_ >= 64) flush_metrics_acc();
    if (lat_sampled) {
      static telemetry::Histogram& h = telemetry::registry().histogram(
          "nm_pipeline_burst_ns",
          "end-to-end burst latency, pump to sink (sampled 1-in-32)");
      h.record(telemetry::now_ns() - t0);
    }
  }
  return true;
}

void Graph::flush_metrics_acc() {
  if (m_acc_bursts_ == 0 && m_acc_packets_ == 0) return;
  static telemetry::Counter& mb = telemetry::registry().counter(
      "nm_pipeline_bursts_total", "bursts pumped through any graph");
  static telemetry::Counter& mp = telemetry::registry().counter(
      "nm_pipeline_packets_total", "packets pumped through any graph");
  mb.add(m_acc_bursts_);
  mp.add(m_acc_packets_);
  m_acc_bursts_ = 0;
  m_acc_packets_ = 0;
}

void Graph::finish_run() {
  flush_metrics_acc();
  // Every element gets its finish() (writers flushed, files closed) even
  // when an earlier one throws — the first error is re-thrown afterwards.
  std::exception_ptr first_error;
  for (const auto& e : elems_) {
    try {
      e->finish();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

std::string Graph::report() const {
  std::string out;
  for (const auto& e : elems_) {
    const std::string line = e->report();
    if (line.empty()) continue;
    out += "  ";
    out += e->name();
    out.append(e->name().size() < 24 ? 24 - e->name().size() : 1, ' ');
    out += line;
    out += '\n';
  }
  return out;
}

// --- config language --------------------------------------------------------

namespace {

struct Parser {
  std::string_view text;
  size_t pos = 0;
  int line = 1;

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("pipeline config line " + std::to_string(line) +
                             ": " + msg);
  }

  void skip_space_and_comments() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '#' || (c == '/' && pos + 1 < text.size() && text[pos + 1] == '/')) {
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else if (c == '\n') {
        ++line;
        ++pos;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++pos;
      } else {
        return;
      }
    }
  }

  [[nodiscard]] bool at_end() {
    skip_space_and_comments();
    return pos >= text.size();
  }

  [[nodiscard]] bool accept(std::string_view tok) {
    skip_space_and_comments();
    if (text.substr(pos, tok.size()) != tok) return false;
    pos += tok.size();
    return true;
  }

  [[nodiscard]] std::string ident() {
    skip_space_and_comments();
    const size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '_')) {
      ++pos;
    }
    if (pos == start) fail("expected an identifier");
    return std::string(text.substr(start, pos - start));
  }

  /// Raw comma-separated args up to the matching ')'; nested parens allowed
  /// inside an arg (file paths with parens are unlikely but cheap to honor).
  [[nodiscard]] std::vector<std::string> arg_list() {
    std::vector<std::string> args;
    std::string cur;
    int depth = 1;
    const auto push = [&] {
      size_t b = 0, e = cur.size();
      while (b < e && std::isspace(static_cast<unsigned char>(cur[b])) != 0) ++b;
      while (e > b && std::isspace(static_cast<unsigned char>(cur[e - 1])) != 0) --e;
      if (e > b) args.push_back(cur.substr(b, e - b));
      cur.clear();
    };
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '\n') ++line;
      if (c == '(') {
        ++depth;
      } else if (c == ')') {
        if (--depth == 0) {
          push();
          return args;
        }
      } else if (c == ',' && depth == 1) {
        push();
        continue;
      }
      cur.push_back(c);
    }
    fail("unterminated '(' in element arguments");
  }

  [[nodiscard]] size_t port_selector() {
    // caller has consumed '['
    skip_space_and_comments();
    size_t start = pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos])) != 0)
      ++pos;
    if (pos == start) fail("expected a port number after '['");
    const std::string digits(text.substr(start, pos - start));
    size_t port = 0;
    const auto [p, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), port);
    if (ec != std::errc{} || p != digits.data() + digits.size())
      fail("port number '" + digits + "' out of range");
    if (!accept("]")) fail("expected ']' after port number");
    return port;
  }
};

}  // namespace

Graph Graph::parse(std::string_view config) {
  Graph g;
  Parser p{config};

  // A node reference: existing name, or inline `Kind(args)` instantiation,
  // plus the output port selected by a trailing [n].
  struct Node {
    Element* elem;
    size_t port;
    bool inline_decl;
    bool has_selector;  // an explicit [n] — meaningless on a chain's tail
  };
  const auto parse_node = [&]() -> Node {
    const std::string id = p.ident();
    Node n{nullptr, 0, false, false};
    if (p.accept("(")) {
      const std::vector<std::string> args = p.arg_list();
      try {
        n.elem = &g.add(make_element(id, args));
      } catch (const std::runtime_error& e) {
        p.fail(e.what());
      }
      n.inline_decl = true;
    } else {
      n.elem = g.find(id);
      if (n.elem == nullptr)
        p.fail("unknown element '" + id +
               "' (declare it with `name :: Kind(...)` or instantiate inline)");
    }
    if (p.accept("[")) {
      n.port = p.port_selector();
      n.has_selector = true;
    }
    return n;
  };
  // Wiring errors (port out of range, port connected twice) surface at a
  // config line, like every other parse diagnostic — not as a bare
  // topology exception.
  const auto connect_checked = [&](const Node& from, Element& to) {
    try {
      g.connect(*from.elem, from.port, to);
    } catch (const std::runtime_error& e) {
      p.fail(e.what());
    }
  };
  // A selector on the final element of a chain has no '->' to feed — it
  // would be dropped silently, and forward() treats unwired ports as
  // intentional drop legs, so the mistake must die here, loudly.
  const auto reject_tail_selector = [&](const Node& tail) {
    if (tail.has_selector)
      p.fail("output port selector on '" + tail.elem->name() +
             "' ends the chain — it selects a port but connects nothing");
  };

  while (!p.at_end()) {
    if (p.accept(";")) continue;  // empty statement

    // Lookahead for a declaration: IDENT '::' Kind '(' args ')'
    const size_t save_pos = p.pos;
    const int save_line = p.line;
    const std::string first = p.ident();
    if (p.accept("::")) {
      const std::string kind = p.ident();
      if (!p.accept("(")) p.fail("expected '(' after kind '" + kind + "'");
      const std::vector<std::string> args = p.arg_list();
      try {
        g.add(make_element(kind, args), first);
      } catch (const std::runtime_error& e) {
        p.fail(e.what());
      }
      if (!p.accept(";") && !p.at_end()) {
        // A declaration may head a chain: `a :: Counter(x) -> b;`
        if (!p.accept("->")) p.fail("expected ';' or '->' after declaration");
        Node prev{g.find(first), 0, false, false};
        for (;;) {
          const Node next = parse_node();
          connect_checked(prev, *next.elem);
          prev = next;
          if (!p.accept("->")) break;
        }
        reject_tail_selector(prev);
        if (!p.accept(";") && !p.at_end()) p.fail("expected ';' after chain");
      }
      continue;
    }
    // Not a declaration: rewind and parse a chain.
    p.pos = save_pos;
    p.line = save_line;
    Node prev = parse_node();
    bool connected = false;
    while (p.accept("->")) {
      const Node next = parse_node();
      connect_checked(prev, *next.elem);
      prev = next;
      connected = true;
    }
    if (!connected && !prev.inline_decl)
      p.fail("statement has no effect (a bare element reference)");
    reject_tail_selector(prev);
    if (!p.accept(";") && !p.at_end()) p.fail("expected ';' after chain");
  }
  return g;
}

// --- built-in registration hook ---------------------------------------------

void register_builtin_elements();  // elements.cpp

namespace {
void ensure_builtins_registered() {
  static const bool once = [] {
    register_builtin_elements();
    return true;
  }();
  (void)once;
}
}  // namespace

}  // namespace nuevomatch::pipeline
