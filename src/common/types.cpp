#include "common/types.hpp"

#include <sstream>

namespace nuevomatch {

void canonicalize(RuleSet& rules) {
  for (size_t i = 0; i < rules.size(); ++i) {
    rules[i].id = static_cast<uint32_t>(i);
    rules[i].priority = static_cast<int32_t>(i);
  }
}

std::string validate_ruleset(std::span<const Rule> rules) {
  std::vector<bool> seen(rules.size(), false);
  for (const Rule& r : rules) {
    if (r.id >= rules.size()) return "rule id out of dense range";
    if (seen[r.id]) return "duplicate rule id";
    seen[r.id] = true;
    if (r.priority == std::numeric_limits<int32_t>::max())
      return "priority INT32_MAX is reserved for the miss";
    for (int f = 0; f < kNumFields; ++f) {
      const Range& rg = r.field[static_cast<size_t>(f)];
      if (rg.lo > rg.hi) return "inverted range";
      if (rg.hi > kFieldDomain[static_cast<size_t>(f)]) return "range exceeds field domain";
    }
  }
  return {};
}

std::string to_string(const Range& r) {
  std::ostringstream os;
  os << '[' << r.lo << ',' << r.hi << ']';
  return os.str();
}

std::string to_string(const Rule& r) {
  std::ostringstream os;
  os << "rule{id=" << r.id << " prio=" << r.priority;
  for (int f = 0; f < kNumFields; ++f) os << ' ' << to_string(r.field[static_cast<size_t>(f)]);
  os << '}';
  return os.str();
}

std::string to_string(const Packet& p) {
  std::ostringstream os;
  os << "pkt{";
  for (int f = 0; f < kNumFields; ++f) {
    if (f) os << ' ';
    os << p[f];
  }
  os << '}';
  return os.str();
}

}  // namespace nuevomatch
