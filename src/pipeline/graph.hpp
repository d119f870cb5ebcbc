// The processing graph: owns elements, wires ports, runs sources — plus the
// Click-inspired textual config language that assembles all of it:
//
//   # declarations bind a name to an element instance
//   cache :: FlowCache(8192);
//   cls   :: Classifier(acl.rules);
//   disp  :: Dispatch(permit, deny);
//   # chains connect output port 0 unless a [port] selector says otherwise;
//   # anonymous elements can be declared inline
//   PcapSource(trace.pcap) -> cache -> cls -> disp;
//   disp[0] -> Counter(permit) -> Sink(record);
//   disp[1] -> Sink();
//
// Statements end with ';' (whitespace, including newlines, is free-form);
// '#' and '//' comment to end of line.
// The graph must be a DAG (initialize() rejects cycles — a cycle
// would recurse process() into an element whose burst buffers are in use).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pipeline/element.hpp"

namespace nuevomatch::pipeline {

class Graph {
 public:
  Graph() = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Assemble a graph from config text. Throws std::runtime_error with a
  /// line-numbered message on syntax errors, unknown kinds/names, port
  /// numbers out of range, or duplicate connections. The returned graph is
  /// NOT yet initialized — attach programmatic engines first, then run()
  /// (which initializes on first call) or initialize() explicitly.
  [[nodiscard]] static Graph parse(std::string_view config);

  /// Programmatic construction (benches build graphs without config text).
  /// Returns a reference of the concrete element type.
  template <typename T>
  T& add(std::unique_ptr<T> e, std::string name = {}) {
    T& ref = *e;
    add_impl(std::move(e), std::move(name));
    return ref;
  }
  void connect(Element& from, size_t port, Element& to);

  /// Run initialize() hooks + DAG check. Idempotent; run() calls it.
  void initialize();

  /// step() the source to exhaustion, then finish_run(). `tick`, if given,
  /// runs after every burst with the cumulative packet count — the hook
  /// mid-stream drivers (forced retrains, churn) use. Requires exactly one
  /// source, like step(); a rewound source may be run again. Returns the
  /// number of packets pumped.
  uint64_t run(const std::function<void(uint64_t)>& tick = {});

  /// Incremental drive — a replica thread's unit of work: pump ONE burst
  /// from the graph's source and push it through. Returns false at end of
  /// stream (and stays false); adds the burst's packet count to *pumped
  /// when given. Requires exactly one source. Initializes the graph on
  /// first call.
  [[nodiscard]] bool step(uint64_t* pumped = nullptr);
  /// finish() every element (writers flushed) — run() does this itself;
  /// step() drivers call it once after the last step. First error rethrown
  /// after every element got its finish().
  void finish_run();

  [[nodiscard]] Element* find(std::string_view name) const;
  /// First element of a concrete type (e.g. find_kind<ClassifierElement>()).
  template <typename T>
  [[nodiscard]] T* find_kind() const {
    for (const auto& e : elems_) {
      if (auto* t = dynamic_cast<T*>(e.get()); t != nullptr) return t;
    }
    return nullptr;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Element>>& elements() const noexcept {
    return elems_;
  }

  /// Per-element stats lines (elements with empty report() are skipped).
  [[nodiscard]] std::string report() const;

 private:
  void add_impl(std::unique_ptr<Element> e, std::string name);
  void check_acyclic() const;

  std::vector<std::unique_ptr<Element>> elems_;
  std::unordered_map<std::string, Element*> by_name_;
  int anon_counter_ = 0;
  bool initialized_ = false;
  // step() state: the single source, end-of-stream latch, and the burst
  // buffer (a member so a step needs no per-step allocation).
  SourceElement* step_src_ = nullptr;
  bool step_eos_ = false;
  Burst step_burst_;
  // Telemetry accumulators: bursts/packets batch locally and flush every
  // 64 bursts (and in finish_run()) — a live scrape lags by at most that.
  void flush_metrics_acc();
  uint64_t m_acc_bursts_ = 0;
  uint64_t m_acc_packets_ = 0;
};

}  // namespace nuevomatch::pipeline
