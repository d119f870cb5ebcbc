// Unified telemetry layer (DESIGN.md "Telemetry"): a process-wide metric
// registry whose hot-path cost is ONE relaxed atomic increment.
//
//   * Counter — monotone u64, sharded over kShards cache-line-aligned slots;
//     each thread owns (modulo kShards) a private slot, so concurrent
//     increments never contend on a cache line. Aggregation happens only at
//     snapshot time (sum of relaxed loads — counters are monotone, so a
//     snapshot racing increments reads a value that WAS true at some point
//     between its first and last slot load; see the ordering argument in
//     DESIGN.md).
//   * Gauge — a single atomic i64 (set from control-plane paths: depths,
//     flags, sizes). Not sharded: gauges are last-write-wins by nature.
//   * Histogram — log2-bucketed latency distribution, HDR-style: 64 fixed
//     buckets on a nanosecond scale (bucket b >= 1 holds [2^(b-1), 2^b-1];
//     bucket 0 holds {0}; the last bucket absorbs everything above 2^62 ns).
//     Sharded like counters; snapshots are mergeable by bucket addition and
//     extract p50/p99/p99.9 with the same rank convention as
//     nuevomatch::percentile (linear interpolation at rank (p/100)*(N-1),
//     with samples inside a bucket assumed evenly spread over its span).
//
// Instrumented hot paths stay within the ~1-2% budget behind one runtime
// gate: set_metrics_enabled(false) leaves exactly one relaxed bool load per
// instrumentation site (bench_pipeline's telemetry row measures the on/off
// delta through this gate in one binary).
// Latency sites additionally SAMPLE (NM_SAMPLE_EVERY) so steady_clock reads
// are paid on 1-in-N events, not per packet.
//
// The registry is deliberately dependency-free (no pipeline/ or nuevomatch/
// types): the join with the health surfaces (EngineHealth, PipelineHealth,
// FlowCache::Stats) lives in pipeline/telemetry.hpp.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nuevomatch::telemetry {

/// Runtime master gate. Default on; bench_pipeline flips it to price the
/// instrumentation. One relaxed load — never a fence.
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// steady_clock in nanoseconds (the one clock every latency metric uses).
[[nodiscard]] inline uint64_t now_ns() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Small dense thread id used to pick metric shards: the Nth thread that
/// ever touches a sharded metric gets slot N (mod the shard count). Two
/// threads aliasing one slot is a contention detail, never a correctness
/// one — slots are atomics.
[[nodiscard]] inline size_t thread_slot() noexcept {
  static std::atomic<size_t> next{0};
  static thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Guard for one instrumentation site: the runtime gate, one relaxed load.
#define NM_METRICS_ENABLED (::nuevomatch::telemetry::metrics_enabled())
/// Per-call-site 1-in-N sampling gate (thread-local counter; no atomics).
#define NM_SAMPLE_EVERY(n)                                             \
  ([]() noexcept {                                                     \
    static thread_local uint32_t nm_sample_c_ = 0;                     \
    return ++nm_sample_c_ >= (n) ? (nm_sample_c_ = 0, true) : false;   \
  }())

/// One cache line per shard slot: a thread's increments dirty only its own
/// line (the whole point of sharding).
struct alignas(64) MetricSlot {
  std::atomic<uint64_t> v{0};
};

class Counter {
 public:
  static constexpr size_t kShards = 64;

  void add(uint64_t n = 1) noexcept {
    slots_[thread_slot() % kShards].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Sum across slots (relaxed loads; monotone, see header comment).
  [[nodiscard]] uint64_t value() const noexcept {
    uint64_t sum = 0;
    for (const MetricSlot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::array<MetricSlot, kShards> slots_{};
};

class Gauge {
 public:
  void set(int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> v_{0};
};

/// Aggregated histogram state: the mergeable, percentile-bearing snapshot
/// form (also the serial oracle the tests compare the sharded recorder to).
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 64;

  std::array<uint64_t, kBuckets> count{};
  uint64_t sum_ns = 0;

  /// Bucket index of a recorded value: 0 for 0, else bit_width(v) clamped
  /// to the last bucket — so bucket b >= 1 spans [2^(b-1), 2^b - 1].
  [[nodiscard]] static size_t bucket_of(uint64_t ns) noexcept {
    if (ns == 0) return 0;
    const auto b = static_cast<size_t>(std::bit_width(ns));
    return b >= kBuckets ? kBuckets - 1 : b;
  }
  /// Inclusive value span of bucket b ([lo, hi]; bucket 0 is {0}).
  [[nodiscard]] static uint64_t bucket_lo(size_t b) noexcept {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }
  [[nodiscard]] static uint64_t bucket_hi(size_t b) noexcept {
    if (b == 0) return 0;
    if (b >= kBuckets - 1) return ~uint64_t{0};
    return (uint64_t{1} << b) - 1;
  }

  [[nodiscard]] uint64_t total() const noexcept {
    uint64_t n = 0;
    for (const uint64_t c : count) n += c;
    return n;
  }
  void merge(const HistogramSnapshot& o) noexcept {
    for (size_t b = 0; b < kBuckets; ++b) count[b] += o.count[b];
    sum_ns += o.sum_ns;
  }

  /// Percentile with the nuevomatch::percentile rank convention: linear
  /// interpolation between the floor/ceil sorted samples at rank
  /// (p/100)*(N-1), where the k samples of a bucket are assumed evenly
  /// spread over its span (sample j of k sits at lo + span*(j+0.5)/k).
  /// Exact to the recorded values up to bucket granularity (<= 2x).
  [[nodiscard]] double percentile(double p) const noexcept;
  [[nodiscard]] double p50() const noexcept { return percentile(50.0); }
  [[nodiscard]] double p99() const noexcept { return percentile(99.0); }
  [[nodiscard]] double p999() const noexcept { return percentile(99.9); }

 private:
  /// Value of the i-th (0-based) sorted sample under the spread assumption.
  [[nodiscard]] double value_at(uint64_t i) const noexcept;
};

class Histogram {
 public:
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;
  /// Fewer shards than Counter: a histogram slot is 8 cache lines already,
  /// and latency sites are sampled — contention is bounded by sampling.
  static constexpr size_t kShards = 16;

  void record(uint64_t ns) noexcept {
    Shard& s = shards_[thread_slot() % kShards];
    s.bucket[HistogramSnapshot::bucket_of(ns)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(ns, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot out;
    for (const Shard& s : shards_) {
      for (size_t b = 0; b < kBuckets; ++b)
        out.count[b] += s.bucket[b].load(std::memory_order_relaxed);
      out.sum_ns += s.sum.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> bucket{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_{};
};

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

/// One aggregated metric in a snapshot.
struct MetricValue {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSnapshot hist;
};

/// Point-in-time aggregation of a whole registry, plus the dependency-free
/// exporters (Prometheus text exposition v0.0.4 and JSON).
struct RegistrySnapshot {
  std::vector<MetricValue> metrics;  ///< sorted by name

  [[nodiscard]] const MetricValue* find(std::string_view name) const noexcept;
  [[nodiscard]] std::string to_prometheus() const;
  [[nodiscard]] std::string to_json() const;
};

// Exposition building blocks, shared with the health-surface exporters in
// pipeline/telemetry.cpp (which render EngineHealth & co. as series without
// duplicating the formatting rules here).
void prometheus_counter(std::string& out, std::string_view name,
                        std::string_view help, uint64_t value,
                        std::string_view labels = {});
void prometheus_gauge(std::string& out, std::string_view name,
                      std::string_view help, double value,
                      std::string_view labels = {});
void prometheus_histogram(std::string& out, std::string_view name,
                          std::string_view help, const HistogramSnapshot& h);
void json_escape(std::string& out, std::string_view s);

/// Name -> metric registry. Metric objects are created on first use and
/// never destroyed before the registry (instrumentation sites hold plain
/// references via function-local statics — one map lookup per site per
/// process, then one relaxed increment per event).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Throws std::runtime_error if `name` is already
  /// registered as a different metric type.
  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  Histogram& histogram(std::string_view name, std::string_view help = {});

  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// The process-wide registry every built-in instrumentation site uses.
  [[nodiscard]] static Registry& global();

 private:
  struct Entry {
    MetricType type;
    std::string help;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  Entry& entry(std::string_view name, std::string_view help, MetricType t);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;  // guarded by mu_
};

[[nodiscard]] inline Registry& registry() { return Registry::global(); }

}  // namespace nuevomatch::telemetry
