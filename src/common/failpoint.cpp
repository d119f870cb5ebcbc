#include "common/failpoint.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace nuevomatch::failpoint {

namespace {

struct Point {
  Trigger trigger;
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Point> points;
};

// Function-local statics: usable from any static-initialization context and
// never destroyed before the last should_fire (leaked at exit by design —
// failpoints may be evaluated from detached/worker threads during teardown).
Registry& registry() {
  static auto* r = new Registry;
  return *r;
}

/// The hot-path gate: number of armed points, updated under the registry
/// mutex, read with one relaxed load by every should_fire.
std::atomic<uint64_t>& armed_count() {
  static std::atomic<uint64_t> n{0};
  return n;
}

/// NM_FAILPOINTS is parsed once, before the first gate check, so env-armed
/// points are active for any evaluation in the process.
void arm_from_env_once() {
  static const bool once = [] {
    if (const char* env = std::getenv("NM_FAILPOINTS"); env != nullptr)
      arm_from_spec(env);
    return true;
  }();
  (void)once;
}

/// Count one evaluation and let the trigger decide on `ordinal`: the
/// evaluation count itself (should_fire) or a caller's item number
/// (should_fire_at).
[[nodiscard]] bool decide(Point& p, uint64_t ordinal) {
  ++p.evaluations;
  bool fire = false;
  switch (p.trigger.kind) {
    case Trigger::Kind::kAlways: fire = true; break;
    case Trigger::Kind::kFirstN: fire = ordinal <= p.trigger.n; break;
    case Trigger::Kind::kNth: fire = ordinal == p.trigger.n; break;
  }
  if (fire) ++p.fires;
  return fire;
}

/// The armed point called `name`, or null; the registry mutex must be held.
[[nodiscard]] Point* find_armed(Registry& r, std::string_view name) {
  // Transparent lookup would avoid the temporary string; armed evaluations
  // are off the steady-state path, so clarity wins.
  const auto it = r.points.find(std::string{name});
  return it == r.points.end() ? nullptr : &it->second;
}

[[nodiscard]] std::optional<Trigger> parse_trigger(std::string_view spec) {
  const auto num = [](std::string_view s, uint64_t& out) {
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc{} && ptr == s.data() + s.size();
  };
  if (spec == "always") return Trigger::always();
  if (spec.rfind("first:", 0) == 0) {
    uint64_t n = 0;
    if (!num(spec.substr(6), n)) return std::nullopt;
    return Trigger::first(n);
  }
  if (spec.rfind("nth:", 0) == 0) {
    uint64_t n = 0;
    if (!num(spec.substr(4), n)) return std::nullopt;
    return Trigger::nth(n);
  }
  return std::nullopt;
}

}  // namespace

bool arm(std::string_view name, Trigger trigger) {
  if (name.empty()) return false;
  Registry& r = registry();
  std::lock_guard lk{r.mu};
  Point& p = r.points[std::string{name}];  // insert or reset
  p.trigger = trigger;
  p.evaluations = 0;
  p.fires = 0;
  armed_count().store(r.points.size(), std::memory_order_relaxed);
  return true;
}

size_t arm_from_spec(std::string_view spec) {
  size_t armed = 0;
  size_t at = 0;
  while (at < spec.size()) {
    size_t end = spec.find_first_of(",;", at);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(at, end - at);
    at = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    const std::string_view name = entry.substr(0, eq);
    const std::string_view body =
        eq == std::string_view::npos ? std::string_view{"always"}
                                     : entry.substr(eq + 1);
    if (name.empty()) {
      std::fprintf(stderr, "failpoint: ignoring malformed spec entry '%.*s'\n",
                   static_cast<int>(entry.size()), entry.data());
      continue;
    }
    if (body == "off") {
      disarm(name);
      continue;
    }
    const auto trig = parse_trigger(body);
    if (!trig.has_value()) {
      std::fprintf(stderr, "failpoint: ignoring malformed spec entry '%.*s'\n",
                   static_cast<int>(entry.size()), entry.data());
      continue;
    }
    if (arm(name, *trig)) ++armed;
  }
  return armed;
}

void disarm(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lk{r.mu};
  r.points.erase(std::string{name});
  armed_count().store(r.points.size(), std::memory_order_relaxed);
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard lk{r.mu};
  r.points.clear();
  armed_count().store(0, std::memory_order_relaxed);
}

bool should_fire(std::string_view name) noexcept {
  arm_from_env_once();
  if (armed_count().load(std::memory_order_relaxed) == 0) return false;
  Registry& r = registry();
  std::lock_guard lk{r.mu};
  Point* p = find_armed(r, name);
  return p != nullptr && decide(*p, p->evaluations + 1);
}

bool should_fire_at(std::string_view name, uint64_t ordinal) noexcept {
  arm_from_env_once();
  if (armed_count().load(std::memory_order_relaxed) == 0) return false;
  Registry& r = registry();
  std::lock_guard lk{r.mu};
  Point* p = find_armed(r, name);
  return p != nullptr && decide(*p, ordinal);
}

uint64_t evaluations(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lk{r.mu};
  const Point* p = find_armed(r, name);
  return p == nullptr ? 0 : p->evaluations;
}

uint64_t fires(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lk{r.mu};
  const Point* p = find_armed(r, name);
  return p == nullptr ? 0 : p->fires;
}

std::vector<std::string> armed_points() {
  Registry& r = registry();
  std::lock_guard lk{r.mu};
  std::vector<std::string> out;
  out.reserve(r.points.size());
  for (const auto& [name, _] : r.points) out.push_back(name);
  return out;
}

bool any_armed() noexcept {
  arm_from_env_once();
  return armed_count().load(std::memory_order_relaxed) != 0;
}

}  // namespace nuevomatch::failpoint
