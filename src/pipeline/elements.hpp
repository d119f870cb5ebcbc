// The built-in dataplane elements. Config-language signatures:
//
//   PcapSource(file.pcap)                 packets from a capture file
//   TraceSource(rules.file, n[, kind])    synthetic trace over a rule file;
//                                         kind: uniform | zipf[:alpha] | caida
//   FlowCache(capacity)                   update-coherent exact-match cache,
//                                         one per graph (single owner)
//   Classifier(rules.file[, manual][, threshold=X])
//                                         OnlineNuevoMatch slow path (32-pkt
//                                         match_batch bursts, one pinned
//                                         generation per burst). Options:
//                                         `manual` disables auto-retrain
//                                         (swaps only via retrain_now());
//                                         `threshold=X` sets the absorption
//                                         retrain threshold
//   Dispatch(name0, name1, ...)           route on the matched rule's action
//                                         (action i -> port i; miss or
//                                         out-of-range -> last port)
//   Counter([label])                      count packets passing through
//   Sink([record])                        terminal drop + stats; `record`
//                                         keeps (index, decision) per packet
//
// Every element also has a programmatic constructor; benches and tests
// build graphs without config text and attach pre-built engines
// (ClassifierElement::attach) before Graph::initialize() runs.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nuevomatch/online.hpp"
#include "pipeline/element.hpp"
#include "trace/pcap.hpp"
#include "trace/trace.hpp"

namespace nuevomatch::pipeline {

/// Register every element above; called automatically on first
/// make_element()/Graph::parse(). Idempotent.
void register_builtin_elements();

// --- sources ----------------------------------------------------------------

class PcapSource final : public SourceElement {
 public:
  explicit PcapSource(const std::string& path);
  [[nodiscard]] std::string_view kind() const override { return "PcapSource"; }
  [[nodiscard]] bool pump(Burst& b) override;
  [[nodiscard]] std::string report() const override;
  /// Frames that could not be projected onto a five-tuple (non-IPv4,
  /// truncated, bad IHL, injected `pcap.parse` failures).
  [[nodiscard]] uint64_t skipped() const noexcept {
    return skipped_.load(std::memory_order_relaxed);
  }
  /// Packets EMITTED by this source (excludes replica-filtered ones).
  [[nodiscard]] uint64_t packets() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }
  /// Parseable frames belonging to other replicas (0 unfiltered).
  [[nodiscard]] uint64_t filtered() const noexcept {
    return filtered_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<PcapReader> reader_;
  // Relaxed atomics, not plain u64: pumped by one replica thread but read
  // cross-thread (reports, telemetry scrapes, replica supervision) while
  // the run is live. pump() publishes its burst's counts (publish_add).
  std::atomic<uint64_t> packets_{0};
  std::atomic<uint64_t> skipped_{0};
  std::atomic<uint64_t> filtered_{0};
  uint64_t stream_pos_ = 0;  ///< global capture position (index annotation)
};

class TraceSource final : public SourceElement {
 public:
  /// Programmatic: pump a pre-built packet vector.
  explicit TraceSource(std::vector<Packet> packets);
  /// Config-language: generate a trace over a ClassBench-format rule file.
  TraceSource(const std::string& rules_path, size_t n_packets,
              const TraceConfig& cfg);
  [[nodiscard]] std::string_view kind() const override { return "TraceSource"; }
  [[nodiscard]] bool pump(Burst& b) override;
  [[nodiscard]] std::string report() const override;
  /// Rewind so the same trace can be pumped again (bench warm-up passes).
  void rewind() noexcept { next_ = 0; }
  [[nodiscard]] const std::vector<Packet>& packets() const noexcept {
    return packets_;
  }

 private:
  std::vector<Packet> packets_;
  size_t next_ = 0;
};

// --- processing -------------------------------------------------------------

class ClassifierElement;

class FlowCacheElement final : public Element {
 public:
  explicit FlowCacheElement(size_t capacity);
  [[nodiscard]] std::string_view kind() const override { return "FlowCache"; }
  void process(Burst& b) override;
  /// Couples the coherence stamp to the graph's Classifier (if any).
  void initialize(Graph& g) override;
  [[nodiscard]] std::string report() const override;
  [[nodiscard]] FlowCache& cache() noexcept { return cache_; }
  [[nodiscard]] const FlowCache& cache() const noexcept { return cache_; }

 private:
  FlowCache cache_;
};

class ClassifierElement final : public Element {
 public:
  struct Options {
    double retrain_threshold = 0.05;
    bool auto_retrain = true;
  };

  /// Empty shell: attach an engine before Graph::initialize().
  ClassifierElement() = default;
  /// Build an OnlineNuevoMatch (TupleMerge remainder) over a ClassBench-
  /// format rule file.
  ClassifierElement(const std::string& rules_path, Options opts);

  [[nodiscard]] std::string_view kind() const override { return "Classifier"; }
  void process(Burst& b) override;
  void initialize(Graph& g) override;
  void finish() override;
  [[nodiscard]] std::string report() const override;

  /// Attach a shared online engine (tests/benches; several elements may
  /// share one). Call set_actions() too if Dispatch routing matters.
  void attach(std::shared_ptr<OnlineNuevoMatch> engine);
  /// Become another Classifier's sibling: share its engine (online or
  /// scalar) and action map. The replica-graph fan-in —
  /// ReplicatedGraph::parse builds replica 0 normally (one training run)
  /// and every other replica adopts, all N feeding one engine through the
  /// epoch domain.
  void adopt_shared(const ClassifierElement& proto);
  /// Attach any frozen Classifier (e.g. bare TupleSpaceSearch) as a scalar
  /// slow path: per-packet match(), no coherence stamps (the engine is
  /// immutable, so a constant stamp IS coherent).
  void attach_scalar(std::shared_ptr<const nuevomatch::Classifier> engine);

  /// The online engine, or null when a scalar engine is attached.
  [[nodiscard]] OnlineNuevoMatch* online() const noexcept { return online_.get(); }

  /// Rule-id -> action map used to annotate decisions for Dispatch. Built
  /// from the rule file automatically; programmatic attachments provide it
  /// here. Rules inserted later default to action -1 (Dispatch's last
  /// port) unless refreshed — the map is read-only while the graph runs.
  void set_actions(std::span<const Rule> rules);

  [[nodiscard]] uint64_t classified() const noexcept {
    return classified_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] int32_t action_of(int32_t rule_id) const;

  std::shared_ptr<OnlineNuevoMatch> online_;
  std::shared_ptr<const nuevomatch::Classifier> scalar_;
  std::unordered_map<uint32_t, int32_t> actions_;
  // Relaxed atomics: published once per burst by the replica's worker
  // thread (publish_add), read by reports/telemetry while firing.
  std::atomic<uint64_t> classified_{0};
  std::atomic<uint64_t> bursts_{0};
  // Registry-add batch (worker-thread private): flushed every 64 classified
  // bursts and in finish(), so a live scrape lags by at most one batch.
  void flush_metrics_acc();
  uint64_t m_acc_bursts_ = 0;
  uint64_t m_acc_pkts_ = 0;
};

class Dispatch final : public Element {
 public:
  explicit Dispatch(std::vector<std::string> port_names);
  [[nodiscard]] std::string_view kind() const override { return "Dispatch"; }
  [[nodiscard]] size_t n_outputs() const override { return names_.size(); }
  void process(Burst& b) override;
  [[nodiscard]] std::string report() const override;
  [[nodiscard]] uint64_t port_packets(size_t port) const {
    return counts_.at(port).load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::string> names_;
  /// Sized once in the constructor, never resized (vector<atomic> must not
  /// reallocate); published once per burst (publish_add), cross-thread reads.
  std::vector<std::atomic<uint64_t>> counts_;
  std::vector<Burst> split_;  // reused per-port staging (DAG => no reentry)
};

class Counter final : public Element {
 public:
  explicit Counter(std::string label = {});
  [[nodiscard]] std::string_view kind() const override { return "Counter"; }
  void process(Burst& b) override;
  [[nodiscard]] std::string report() const override;
  [[nodiscard]] uint64_t packets() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t bursts() const noexcept {
    return bursts_.load(std::memory_order_relaxed);
  }

 private:
  std::string label_;
  // Read cross-thread while replicas fire (ReplicatedGraph's merged tick
  // totals, telemetry): relaxed atomics, single writer each.
  std::atomic<uint64_t> packets_{0};
  std::atomic<uint64_t> bursts_{0};
};

// --- terminals --------------------------------------------------------------

class Sink final : public Element {
 public:
  struct Record {
    uint64_t index;
    int32_t rule_id;
    int32_t priority;
    int32_t action;
    /// Decision was served from a FlowCache (Burst::from_cache) — the
    /// provenance bit the stale-served oracle keys on.
    bool cached = false;
  };

  explicit Sink(bool record = false);
  [[nodiscard]] std::string_view kind() const override { return "Sink"; }
  void process(Burst& b) override;
  [[nodiscard]] std::string report() const override;
  [[nodiscard]] uint64_t packets() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }
  /// Recorded decisions in arrival order (empty unless `record`).
  /// NOT safe to read while the graph runs (unsynchronized vector) —
  /// differential tests read it post-join only.
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }

 private:
  bool record_;
  std::atomic<uint64_t> packets_{0};
  std::vector<Record> records_;
};

/// Parse-scoped engine sharing for replicated graphs: while an instance is
/// alive (on this thread), config-language `Classifier(...)` factories
/// adopt_shared() from the donor instead of loading the rule file and
/// training their own engine. ReplicatedGraph::parse wraps the parses of
/// replicas 1..n-1 in one of these; nobody else should need it.
class ScopedEngineDonor {
 public:
  explicit ScopedEngineDonor(const ClassifierElement& proto) noexcept;
  ~ScopedEngineDonor();
  ScopedEngineDonor(const ScopedEngineDonor&) = delete;
  ScopedEngineDonor& operator=(const ScopedEngineDonor&) = delete;

 private:
  const ClassifierElement* prev_;
};

}  // namespace nuevomatch::pipeline
