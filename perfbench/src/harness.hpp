// Shared pieces of the repository benchmark: command-line options, the
// clock, order statistics, the result record printed as the last line, the
// span tracer, the LinearSearch verification sample, and the engine
// configuration every workload uses.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions; nothing inside src/ is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "classifiers/classifier.hpp"
#include "common/types.hpp"
#include "nuevomatch/nuevomatch.hpp"

namespace perfbench {

using nuevomatch::MatchResult;
using nuevomatch::Packet;
using nuevomatch::Rule;
using nuevomatch::RuleSet;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< small sizes, runs in seconds
  std::string out_dir = ".";  ///< span files and temporary captures
  std::string git = "unknown";
  std::string src_digest = "unknown";

  /// Deadline `share` of the run's measuring time from now.
  [[nodiscard]] uint64_t deadline(double share) const {
    return now_ns() + static_cast<uint64_t>(seconds * share * 1e9);
  }
  /// Engine builds timed for setup_s (the reported value is their median).
  [[nodiscard]] int setup_reps() const { return smoke ? 2 : 5; }
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& v);

/// Packets over the time spent on them, summed over every timed pass. On a
/// shared host the passes of one run mix quiet and busy periods; the summed
/// rate moves in proportion to that mix, where a median over passes jumps
/// from one period's rate to the other's as the mix crosses one half.
struct Rate {
  uint64_t packets = 0;
  uint64_t ns = 0;
  void add(uint64_t p, uint64_t t) {
    packets += p;
    ns += t;
  }
  [[nodiscard]] double mpps() const {
    return ns == 0 ? 0.0 : static_cast<double>(packets) * 1e3 / static_cast<double>(ns);
  }
};

/// One workload's outcome: the metrics of the last output line plus the
/// correctness tally (decisions checked + updates offered, and how many of
/// those were wrong or rejected).
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void checked(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] uint64_t failed() const noexcept { return failed_; }
  /// The single JSON object the benchmark prints as its last line.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Human-readable report line (everything before the result line).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum class Layer : uint8_t {
  kBurst,       ///< root: one 32-packet burst, source to sink
  kRqrmi,       ///< IsetIndex::predict_batch
  kSearch,      ///< IsetIndex::search_batch
  kValidate,    ///< IsetIndex::validate
  kRemainder,   ///< remainder().match_with_floor / match
  kSource,      ///< SourceElement::pump (pcap or trace)
  kCache,       ///< FlowCacheElement
  kClassifier,  ///< ClassifierElement
  kVerify,      ///< the benchmark's decision check
  kDispatch,    ///< Dispatch
  kSink,        ///< Sink
  kCount,
};
const char* layer_name(Layer l);

/// Records nested spans (name, start, end, parent, burst id) on one thread.
/// Self time — a span's duration minus its children's — is accumulated per
/// layer as spans close; the first kKeep raw spans are kept in memory and
/// written out when the benchmark ends.
class Tracer {
 public:
  static constexpr size_t kKeep = size_t{1} << 14;
  Tracer() { stack_.reserve(16); }

  void set_burst(uint64_t id) noexcept { burst_ = id; }
  void begin(Layer l) { begin_at(l, now_ns()); }
  void begin_at(Layer l, uint64_t t) {
    stack_.push_back(Open{t, 0, ++next_id_, stack_.empty() ? 0 : stack_.back().id, l});
  }
  void end() { end_at(now_ns()); }
  void end_at(uint64_t t);
  /// An already-closed child of the innermost open span.
  void leaf(Layer l, uint64_t start, uint64_t end) {
    begin_at(l, start);
    end_at(end);
  }

  [[nodiscard]] uint64_t self_ns(Layer l) const { return self_[idx(l)]; }
  [[nodiscard]] uint64_t total_ns(Layer l) const { return total_[idx(l)]; }
  [[nodiscard]] uint64_t spans(Layer l) const { return count_[idx(l)]; }
  /// Add another tracer's totals and (room permitting) its kept spans.
  void absorb(const Tracer& o);
  /// Append the kept spans as JSON lines tagged with `tag`.
  void write(std::FILE* f, const std::string& tag) const;

 private:
  struct Open {
    uint64_t start, child;
    uint32_t id, parent;
    Layer layer;
  };
  struct Span {
    uint64_t start, end, burst;
    uint32_t id, parent;
    Layer layer;
  };
  static size_t idx(Layer l) { return static_cast<size_t>(l); }

  std::vector<Open> stack_;
  std::vector<Span> kept_;
  uint64_t burst_ = 0;
  uint32_t next_id_ = 0;
  uint64_t self_[static_cast<size_t>(Layer::kCount)] = {};
  uint64_t total_[static_cast<size_t>(Layer::kCount)] = {};
  uint64_t count_[static_cast<size_t>(Layer::kCount)] = {};
};

// ---------------------------------------------------------------------------
// Verification and engine configuration
// ---------------------------------------------------------------------------

/// Packets to check against LinearSearch before timing: `n / 2` drawn from
/// the trace, the rest probes at rule endpoints (each field at lo or hi,
/// some pushed one past an end).
std::vector<Packet> verification_sample(std::span<const Rule> rules,
                                        std::span<const Packet> trace, size_t n,
                                        uint64_t seed);
/// LinearSearch's answers (rule ids) for `pkts`.
std::vector<int32_t> linear_answers(std::span<const Rule> rules,
                                    std::span<const Packet> pkts);
/// Lanes where `got` differs from `want`.
uint64_t mismatches(std::span<const int32_t> want, std::span<const MatchResult> got);

/// NuevoMatch over a TupleMerge remainder, as the paper pairs it with
/// TupleMerge (§5.1): at most 4 iSets, 5% coverage floor.
nuevomatch::NuevoMatchConfig nm_config();

/// Zero the ports of protocols whose frames carry none, so every packet
/// survives a round trip through a synthesized capture unchanged.
void sanitize_for_pcap(std::vector<Packet>& pkts);

/// Per-key passes of `cls.match()` over `pkts`, each checked against `want`
/// into `res`.
class KeyPasses {
 public:
  KeyPasses(const nuevomatch::Classifier& cls, std::span<const Packet> pkts,
            std::span<const int32_t> want, Result& res)
      : cls_(cls), pkts_(pkts), want_(want), res_(res), got_(pkts.size()) {}
  /// One timed pass.
  void pass();
  void until(uint64_t deadline) {
    do pass(); while (now_ns() < deadline);
  }
  /// Rate over all passes, in Mpps.
  [[nodiscard]] double mpps() const { return rate_.mpps(); }

 private:
  const nuevomatch::Classifier& cls_;
  std::span<const Packet> pkts_;
  std::span<const int32_t> want_;
  Result& res_;
  std::vector<MatchResult> got_;
  Rate rate_;
};

/// Median ns per record of `PcapReader::next` over the capture at `path`,
/// passes until `deadline`.
double pcap_read_ns(const std::string& path, uint64_t deadline);

}  // namespace perfbench
