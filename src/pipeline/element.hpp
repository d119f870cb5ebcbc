// Click-style composable dataplane elements (see /root/related README and
// DESIGN.md "Pipeline"): the classifier stops being a library you call and
// becomes a stage in a packet-processing graph. Elements are batch-oriented
// — the unit of work is a Burst of up to kBurstSize packets, pushed through
// the graph by a source element — and are wired into a DAG either
// programmatically or by the textual config parser (graph.hpp):
//
//   src :: PcapSource(trace.pcap);
//   src -> FlowCache(8192) -> Classifier(acl.rules) -> Dispatch(permit, deny);
//
// Element contract:
//   * process(Burst&) consumes one burst, mutates it in place, and pushes
//     it (or per-port splits of it) downstream via forward(). The burst is
//     STACK-OWNED BY THE SOURCE's pump loop: an element may read and write
//     it during process() but must not retain a pointer past return —
//     anything it wants to keep (recorded decisions, frames written to
//     disk) it copies out. Splitting elements (Dispatch) build their
//     per-port bursts in their own reused buffers, which is safe because
//     the graph is a DAG (Graph::initialize rejects cycles), so process()
//     can never re-enter the same element.
//   * per-packet annotations travel IN the burst (result / action /
//     resolved bits / cache-fill note), Click-annotation style, so stages
//     compose without knowing each other: FlowCache resolves what it can
//     and notes the fill obligation; Classifier resolves the rest and
//     honors the note; Dispatch routes on whatever is resolved.
//   * sources implement pump() instead of receiving process() calls;
//     Graph::run() drives every source to exhaustion and then calls
//     finish() on each element in declaration order (flush file writers,
//     final stats).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/failpoint.hpp"
#include "common/types.hpp"
#include "pipeline/flow_cache.hpp"

namespace nuevomatch::pipeline {

/// Packets per burst. 32 keeps one burst's five-tuples + annotations inside
/// a few cache lines and matches the SIMD tile width of the batched
/// inference kernels (kernel.hpp processes 8-lane tiles; a 32-packet burst
/// is four full tiles with no remainder lanes).
inline constexpr size_t kBurstSize = 32;

/// One batch of packets moving through the graph, with per-packet
/// annotations. `resolved` bit i means result[i]/action[i] are final — a
/// downstream Classifier skips those lanes.
struct Burst {
  std::array<Packet, kBurstSize> pkt;
  std::array<uint64_t, kBurstSize> index;    ///< source-assigned packet number
  std::array<MatchResult, kBurstSize> result;
  std::array<int32_t, kBurstSize> action;    ///< resolved rule action; -1 = none
  uint32_t size = 0;
  uint32_t resolved = 0;                     ///< bitmask over [0, size)
  /// Lanes whose decision was served from a FlowCache (subset of
  /// `resolved`). Provenance for the staleness oracle: a recording Sink
  /// keeps the flag, so a differential over the records can pinpoint
  /// cache-SERVED mismatches (stale decisions) as distinct from classifier
  /// bugs. Travels through Dispatch splits like `resolved`.
  uint32_t from_cache = 0;
  /// Cache-fill note: set by FlowCache for bursts with unresolved lanes.
  /// The element that resolves a lane inserts the decision into `fill`
  /// stamped with `fill_stamp` (read BEFORE classification — the coherence
  /// contract, flow_cache.hpp).
  FlowCache* fill = nullptr;
  uint64_t fill_stamp = 0;

  void reset() noexcept {
    size = 0;
    resolved = 0;
    from_cache = 0;
    fill = nullptr;
    fill_stamp = 0;
  }
  [[nodiscard]] bool is_resolved(size_t i) const noexcept {
    return (resolved >> i) & 1u;
  }
  void mark_resolved(size_t i) noexcept { resolved |= 1u << i; }
};
static_assert(kBurstSize <= 32, "resolved bitmask is 32 bits");

/// Add `n` to an element counter. Element counters have one writer — the
/// thread stepping the element's graph (a replica graph is stepped by one
/// thread for its whole run) — so a relaxed load and store keep
/// them exact without a locked read-modify-write, and a reader on another
/// thread (report, telemetry scrape, replica tick) still sees whole values.
/// Elements count in locals and publish once per burst.
inline void publish_add(std::atomic<uint64_t>& c, uint64_t n) noexcept {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

class Graph;

class Element {
 public:
  virtual ~Element() = default;
  Element() = default;
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  /// Config-language type name ("FlowCache", "Dispatch", ...).
  [[nodiscard]] virtual std::string_view kind() const = 0;
  [[nodiscard]] virtual size_t n_outputs() const { return 1; }
  [[nodiscard]] virtual bool is_source() const { return false; }

  /// Consume one burst and push it (possibly split) downstream.
  virtual void process(Burst& b) = 0;

  /// Post-wiring hook: runs once, after every connection is made and before
  /// the first burst (elements locate their collaborators here — e.g.
  /// FlowCache finds the graph's Classifier to couple coherence stamps).
  virtual void initialize(Graph&) {}

  /// End-of-stream: flush writers, close files. Declaration order.
  virtual void finish() {}

  /// One human-readable stats line for Graph::report() ("" = silent).
  [[nodiscard]] virtual std::string report() const { return {}; }

  /// Instance name (from `name :: Kind(...)`, or auto-generated).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Element* output(size_t port) const noexcept {
    return port < outs_.size() ? outs_[port] : nullptr;
  }

 protected:
  /// Push a burst out of `port`; an unconnected port drops (by design — a
  /// Dispatch leg nobody wired is a drop leg). The pipeline.push failpoint
  /// sits on this seam: an injected throw abandons the in-flight burst
  /// mid-graph — the mid-fire fault the supervision layer must contain
  /// (losing at most this one burst), as opposed to the lossless
  /// between-fire seam (pipeline.task.fire).
  void forward(Burst& b, size_t port = 0) {
    if (b.size > 0 && port < outs_.size() && outs_[port] != nullptr) {
      if (failpoint::should_fire(failpoint::kPipelinePush))
        throw std::runtime_error("injected: pipeline.push");
      outs_[port]->process(b);
    }
  }

 private:
  friend class Graph;
  std::string name_;
  std::vector<Element*> outs_;
};

/// RSS-style five-tuple hash: the replica-split function. Everything a flow
/// is (all five header fields) goes in, so all packets of a flow land on
/// the same replica — the property the flow-affinity ordering argument in
/// DESIGN.md "Replica threads" rests on. Finalized FNV-1a like FlowCache::hash,
/// but an independent function on purpose: cache set selection inside a
/// replica and traffic splitting across replicas must not correlate, or a
/// replica's flows would crowd a fraction of its cache's sets.
[[nodiscard]] inline uint32_t rss_hash(const Packet& p) noexcept {
  uint64_t h = 14695981039346656037ull;
  for (const uint32_t f : p.field) {
    h ^= f;
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return static_cast<uint32_t>(h >> 32);
}

/// Piecewise-position replica steering: the quarantine/rejoin extension of
/// the plain modulo split. The stream is divided into EPOCHS — half-open
/// position ranges, each with a live-replica bitmask — and a packet at
/// position p is owned by exactly one replica: its natural rss_hash slot if
/// that replica is live in p's epoch, else a deterministic re-hash onto the
/// live set (the dead slice spreads across survivors). Because ownership is
/// a pure function of (hash, position), every source evaluates the SAME
/// table and the split stays a partition — no packet is lost or duplicated
/// across a re-steer — and Burst::index remains the order-independent merge
/// key the replica-vs-scalar differential joins on.
///
/// Mutation contract: epochs are appended with nondecreasing `from`, only
/// while every source is quiesced at a position < `from` (ReplicatedGraph
/// pauses all replica steps, waits out in-flight pumps, and picks the
/// cutover ahead of every source's published position). Readers therefore
/// never race a mutation; the pause/resume atomics publish the new epochs.
class ReplicaSteering {
 public:
  static constexpr size_t kMaxEpochs = 16;

  explicit ReplicaSteering(uint32_t n_replicas)
      : n_(n_replicas == 0 ? 1 : n_replicas) {
    if (n_ > 32)
      throw std::runtime_error("ReplicaSteering: more than 32 replicas");
    epochs_[0] = Epoch{0, full_mask()};
  }

  [[nodiscard]] uint32_t full_mask() const noexcept {
    return n_ >= 32 ? ~0u : (1u << n_) - 1u;
  }

  /// Append an epoch: packets at position >= `from` are steered by
  /// `live_mask`. `from` must be >= the previous epoch's start (callers
  /// clamp) and ahead of every quiesced source.
  void append(uint64_t from, uint32_t live_mask) {
    if (count_ == kMaxEpochs)
      throw std::runtime_error("ReplicaSteering: epoch table full");
    if (from < epochs_[count_ - 1].from)
      throw std::runtime_error("ReplicaSteering: epochs must be ordered");
    epochs_[count_++] = Epoch{from, live_mask & full_mask()};
  }

  /// The replica that owns the packet with `hash` at stream position `pos`.
  [[nodiscard]] uint32_t owner_of(uint32_t hash, uint64_t pos) const noexcept {
    uint32_t mask = epochs_[0].mask;
    for (size_t i = count_; i-- > 0;) {
      if (epochs_[i].from <= pos) {
        mask = epochs_[i].mask;
        break;
      }
    }
    const uint32_t nat = hash % n_;
    if ((mask >> nat) & 1u) return nat;
    const auto live = static_cast<uint32_t>(std::popcount(mask));
    if (live == 0) return nat;  // nobody live — ownership is moot
    // Re-steer with an independent slice of the hash so one dead replica's
    // load spreads over all survivors instead of aliasing one neighbor.
    uint32_t k = (hash / n_) % live;
    for (uint32_t r = 0; r < 32; ++r) {
      if (!((mask >> r) & 1u)) continue;
      if (k-- == 0) return r;
    }
    return nat;  // unreachable: popcount(mask) > k
  }

  [[nodiscard]] bool accepts(uint32_t replica, uint32_t hash,
                             uint64_t pos) const noexcept {
    return owner_of(hash, pos) == replica;
  }

  [[nodiscard]] size_t epochs() const noexcept { return count_; }
  [[nodiscard]] uint64_t last_from() const noexcept {
    return epochs_[count_ - 1].from;
  }

 private:
  struct Epoch {
    uint64_t from = 0;   ///< applies to positions >= from
    uint32_t mask = 0;   ///< live-replica bitmask
  };
  std::array<Epoch, kMaxEpochs> epochs_{};
  size_t count_ = 1;
  uint32_t n_;
};

/// A packet source: pumped by Graph::run() instead of receiving bursts.
class SourceElement : public Element {
 public:
  [[nodiscard]] bool is_source() const final { return true; }
  /// Fill `b` (already reset) with the next burst; false at end of stream.
  /// A partial final burst returns true with b.size < kBurstSize.
  [[nodiscard]] virtual bool pump(Burst& b) = 0;
  void process(Burst&) final {}  // sources have no input side

  /// Replica split (ReplicatedGraph): emit only packets whose rss_hash
  /// lands on `replica` of `n_replicas`. Filtered-out packets still
  /// advance the source's stream position, so Burst::index stays the
  /// GLOBAL trace position — the order-independent merge key the
  /// replica-vs-scalar differential tests join on.
  void set_replica_filter(uint32_t replica, uint32_t n_replicas) noexcept {
    replica_ = replica;
    n_replicas_ = n_replicas == 0 ? 1 : n_replicas;
  }
  [[nodiscard]] uint32_t n_replicas() const noexcept { return n_replicas_; }

  /// Supervised runs swap the fixed modulo split for a shared piecewise
  /// steering table (quarantine re-steer / rejoin). Not owned; must outlive
  /// the run. Null restores the plain split.
  void set_steering(const ReplicaSteering* s) noexcept { steering_ = s; }

  /// Stream position published by the last completed pump (every consumed
  /// packet, filtered or not). The replication supervisor reads this while
  /// sources are quiesced to pick a re-steer cutover ahead of everyone.
  [[nodiscard]] uint64_t stream_pos() const noexcept {
    return published_pos_.load(std::memory_order_relaxed);
  }

 protected:
  /// Does the replica filter accept the packet at stream position `pos`?
  /// (Always true unfiltered.)
  [[nodiscard]] bool accepts(const Packet& p, uint64_t pos) const noexcept {
    if (steering_ != nullptr)
      return steering_->accepts(replica_, rss_hash(p), pos);
    return n_replicas_ <= 1 || rss_hash(p) % n_replicas_ == replica_;
  }

  /// Write the packet at stream position `pos` into the burst's next free
  /// lane, and keep it — advance b.size — only if the replica filter
  /// accepts it. The lane is written either way and the keep bit is added,
  /// not branched on: rss_hash % n is a coin flip per flow, so a branch
  /// would mispredict on about half the packets. Returns the keep bit.
  /// Requires b.size < kBurstSize.
  uint32_t emit(Burst& b, const Packet& p, uint64_t pos) const noexcept {
    const uint32_t i = b.size;
    b.pkt[i] = p;
    b.index[i] = pos;
    b.result[i] = MatchResult{};
    b.action[i] = -1;
    const uint32_t keep = accepts(p, pos) ? 1u : 0u;
    b.size += keep;
    return keep;
  }

  /// Publish the consumed position (once per pump is enough — the reader
  /// quiesces pumps before trusting it).
  void publish_pos(uint64_t pos) noexcept {
    published_pos_.store(pos, std::memory_order_relaxed);
  }

 private:
  uint32_t replica_ = 0;
  uint32_t n_replicas_ = 1;
  const ReplicaSteering* steering_ = nullptr;
  std::atomic<uint64_t> published_pos_{0};
};

/// Factory signature for the config language: args are the raw
/// comma-separated strings between the parentheses, trimmed.
using ElementFactory =
    std::function<std::unique_ptr<Element>(const std::vector<std::string>& args)>;

/// Register a factory under a kind name; returns false if the name is
/// taken. The built-in elements self-register on first registry access.
bool register_element(std::string kind, ElementFactory factory);

/// Instantiate a registered kind; throws std::runtime_error for unknown
/// kinds or bad args (factories signal bad args the same way).
[[nodiscard]] std::unique_ptr<Element> make_element(
    std::string_view kind, const std::vector<std::string>& args);

}  // namespace nuevomatch::pipeline
