// Deterministic fault-injection framework (the robustness PR's foundation):
// named failpoints compiled permanently into production code paths —
// retrain training, epoch chunk allocation, journal replay, serializer
// loads, pcap frame parsing — that tests and operators can arm to make a
// specific failure happen at a specific time, instead of hoping a flaky
// environment reproduces it.
//
// A call site asks one question:
//
//   if (failpoint::should_fire("online.retrain"))
//     throw std::runtime_error("injected: online.retrain");
//
// and the framework answers according to the point's armed trigger:
//
//   * fire-always        — every evaluation fires;
//   * fire-first:N       — the first N evaluations fire, later ones pass
//                          (the "fail K consecutive retrains" shape);
//   * fire-on-nth:N      — exactly the Nth evaluation fires (1-based).
//
// A point that fails one numbered item of a walk that can run several
// times (pcap.parse: record K of a capture, read once by every replica and
// again by an oracle) asks should_fire_at(name, k) instead, and the
// trigger counts items, not evaluations: nth:K fails item K of EVERY walk,
// first:N items 1..N, always every item.
//
// Arming is programmatic (failpoint::arm / ScopedFailpoint for tests) or
// environmental: NM_FAILPOINTS="online.retrain=first:3,serialize.load=nth:2"
// arms points before main() logic runs, so any binary in the tree — tests,
// benches, the pipeline router — can be driven through its failure paths
// without a recompile.
//
// Cost model: the data path pays ONE relaxed atomic load of a global
// armed-point count when nothing is armed (branch-predicted false; no lock,
// no string hashing, no registry lookup). Only once at least one point is
// armed anywhere does should_fire take the registry mutex to match the
// name. Disarmed is therefore safe to leave compiled into per-packet code.
//
// Thread model: should_fire/arm/disarm are safe from any thread (the churn
// harness arms points while writer/reader/retrain threads race); trigger
// state (the hit counters) advances under the registry mutex, so
// fire-first:N fires on exactly N evaluations no matter how many threads
// evaluate concurrently.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nuevomatch::failpoint {

/// What an armed failpoint does on each evaluation.
struct Trigger {
  enum class Kind : uint8_t {
    kAlways,   ///< every evaluation fires
    kFirstN,   ///< evaluations 1..n fire, later ones pass
    kNth,      ///< exactly evaluation n fires (1-based)
  };
  Kind kind = Kind::kAlways;
  uint64_t n = 0;       ///< kFirstN / kNth parameter

  static Trigger always() { return Trigger{}; }
  static Trigger first(uint64_t n) { return Trigger{Kind::kFirstN, n}; }
  static Trigger nth(uint64_t n) { return Trigger{Kind::kNth, n}; }
};

/// Arm `name` with `trigger` (replacing any previous arming and resetting
/// its counters). Returns false (and arms nothing) for an empty name.
bool arm(std::string_view name, Trigger trigger);

/// Parse and arm a "name=spec" list: specs are `always`, `first:N`, `nth:N`,
/// `off`, separated by ',' or ';'. Returns the number of points armed;
/// malformed entries are skipped (reported once to stderr — a misspelled
/// env var must not silently disable a fault drill).
size_t arm_from_spec(std::string_view spec);

/// Disarm one point / all points. Counters for disarmed points are dropped.
void disarm(std::string_view name);
void disarm_all();

/// The hot-path question. When `name` is not armed this is one relaxed
/// atomic load; when armed, the trigger decides and both counters advance.
[[nodiscard]] bool should_fire(std::string_view name) noexcept;

/// The same question about item `ordinal` (1-based) of a walk: the trigger
/// decides on `ordinal` instead of the evaluation count, so every walk
/// fails the same items. Both counters advance as in should_fire.
[[nodiscard]] bool should_fire_at(std::string_view name, uint64_t ordinal) noexcept;

/// Evaluations / fires since arming (0 / 0 when the point is not armed).
[[nodiscard]] uint64_t evaluations(std::string_view name);
[[nodiscard]] uint64_t fires(std::string_view name);

/// Names of every currently armed point (operator/introspection surface).
[[nodiscard]] std::vector<std::string> armed_points();

/// True once any point is armed (the cheap global gate, exposed for tests).
[[nodiscard]] bool any_armed() noexcept;

/// RAII arming for tests: arms on construction, disarms on destruction, so
/// a failing ASSERT can never leak an armed point into the next test.
class Scoped {
 public:
  Scoped(std::string_view name, Trigger trigger) : name_(name) {
    arm(name_, trigger);
  }
  ~Scoped() { disarm(name_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::string name_;
};

/// Canonical failpoint names wired through the tree (one place to grep).
/// Arming any other name is legal — it just has no call site yet.
inline constexpr std::string_view kOnlineRetrain = "online.retrain";
inline constexpr std::string_view kOnlineReplay = "online.replay";
inline constexpr std::string_view kOnlineBuild = "online.build";
inline constexpr std::string_view kEpochGrow = "epoch.grow";
inline constexpr std::string_view kSerializeLoad = "serialize.load";
inline constexpr std::string_view kPcapParse = "pcap.parse";
// Pipeline runtime seams (DESIGN.md "Failure model" — pipeline supervision).
// kPipelineTaskFire is evaluated by ReplicatedGraph::run at the start of
// every replica step that passes the quarantine pause gate (a turned-back
// step does not count), so an injected crash lands BETWEEN bursts — the
// lossless fault domain the quarantine/rejoin drill relies on. kPipelinePush fires inside
// element forwarding (mid-burst: at most one in-flight burst is lost).
inline constexpr std::string_view kPipelinePush = "pipeline.push";
inline constexpr std::string_view kPipelineCacheInsert = "pipeline.cache.insert";
inline constexpr std::string_view kPipelineTaskFire = "pipeline.task.fire";
inline constexpr std::string_view kPipelineAdopt = "pipeline.replica.adopt";
inline constexpr std::string_view kPipelineRejoin = "pipeline.replica.rejoin";

}  // namespace nuevomatch::failpoint
