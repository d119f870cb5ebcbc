#include "harness.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdlib>

#include "classifiers/linear.hpp"
#include "common/rng.hpp"
#include "trace/pcap.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
  note("metric %-26s %.6g %s", name.c_str(), value, unit.c_str());
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kBurst: return "burst";
    case Layer::kRqrmi: return "rqrmi.predict_batch";
    case Layer::kSearch: return "isets.search_batch";
    case Layer::kValidate: return "isets.validate";
    case Layer::kRemainder: return "remainder.match_with_floor";
    case Layer::kSource: return "source.pump";
    case Layer::kCache: return "flow_cache";
    case Layer::kClassifier: return "classifier";
    case Layer::kVerify: return "verify";
    case Layer::kDispatch: return "dispatch";
    case Layer::kSink: return "sink";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::end_at(uint64_t t) {
  const Open o = stack_.back();
  stack_.pop_back();
  const uint64_t dur = t > o.start ? t - o.start : 0;
  self_[idx(o.layer)] += dur - std::min(o.child, dur);
  total_[idx(o.layer)] += dur;
  ++count_[idx(o.layer)];
  if (!stack_.empty()) stack_.back().child += dur;
  if (kept_.size() < kKeep) kept_.push_back(Span{o.start, t, burst_, o.id, o.parent, o.layer});
}

void Tracer::absorb(const Tracer& o) {
  for (size_t i = 0; i < static_cast<size_t>(Layer::kCount); ++i) {
    self_[i] += o.self_[i];
    total_[i] += o.total_[i];
    count_[i] += o.count_[i];
  }
  // Shift the other tracer's ids past ours so parent links stay unambiguous.
  const uint32_t shift = next_id_;
  for (Span s : o.kept_) {
    if (kept_.size() >= kKeep) break;
    s.id += shift;
    s.parent = s.parent == 0 ? 0 : s.parent + shift;
    kept_.push_back(s);
  }
  next_id_ += o.next_id_;
}

void Tracer::write(std::FILE* f, const std::string& tag) const {
  for (const Span& s : kept_) {
    std::fprintf(f,
                 "{\"tracer\": \"%s\", \"id\": %u, \"parent\": %u, \"burst\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu}\n",
                 tag.c_str(), s.id, s.parent, static_cast<unsigned long long>(s.burst),
                 layer_name(s.layer), static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end));
  }
}

std::vector<Packet> verification_sample(std::span<const Rule> rules,
                                        std::span<const Packet> trace, size_t n,
                                        uint64_t seed) {
  nuevomatch::Rng rng{seed ^ 0x5EED'0F'C4ECull};
  std::vector<Packet> out;
  out.reserve(n);
  for (size_t i = 0; i < n / 2 && !trace.empty(); ++i)
    out.push_back(trace[rng.below(trace.size())]);
  while (out.size() < n) {
    const Rule& r = rules[rng.below(rules.size())];
    Packet p;
    for (int f = 0; f < nuevomatch::kNumFields; ++f) {
      const nuevomatch::Range& range = r.field[static_cast<size_t>(f)];
      p.field[static_cast<size_t>(f)] = rng.chance(0.5) ? range.lo : range.hi;
    }
    // Every other probe steps one field just outside the rule.
    if (out.size() % 2 == 1) {
      const auto f = static_cast<size_t>(rng.below(nuevomatch::kNumFields));
      const nuevomatch::Range& range = r.field[f];
      if (range.lo > 0) {
        p.field[f] = range.lo - 1;
      } else if (range.hi < nuevomatch::kFieldDomain[f]) {
        p.field[f] = range.hi + 1;
      }
    }
    out.push_back(p);
  }
  return out;
}

std::vector<int32_t> linear_answers(std::span<const Rule> rules,
                                    std::span<const Packet> pkts) {
  nuevomatch::LinearSearch ls;
  ls.build(rules);
  std::vector<int32_t> out;
  out.reserve(pkts.size());
  for (const Packet& p : pkts) out.push_back(ls.match(p).rule_id);
  return out;
}

uint64_t mismatches(std::span<const int32_t> want, std::span<const MatchResult> got) {
  uint64_t bad = 0;
  for (size_t i = 0; i < want.size(); ++i) bad += want[i] != got[i].rule_id ? 1 : 0;
  return bad;
}

nuevomatch::NuevoMatchConfig nm_config() {
  nuevomatch::NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<nuevomatch::TupleMerge>(); };
  cfg.min_iset_coverage = 0.05;
  cfg.max_isets = 4;
  return cfg;
}

void sanitize_for_pcap(std::vector<Packet>& pkts) {
  for (Packet& p : pkts) {
    if (!nuevomatch::proto_has_ports(static_cast<uint8_t>(p.field[nuevomatch::kProto]))) {
      p.field[nuevomatch::kSrcPort] = 0;
      p.field[nuevomatch::kDstPort] = 0;
    }
  }
}

void KeyPasses::pass() {
  const uint64_t t0 = now_ns();
  for (size_t i = 0; i < pkts_.size(); ++i) got_[i] = cls_.match(pkts_[i]);
  rate_.add(pkts_.size(), now_ns() - t0);
  res_.checked(pkts_.size(), mismatches(want_, got_));
}

double pcap_read_ns(const std::string& path, uint64_t deadline) {
  std::vector<double> per_record;
  nuevomatch::PcapRecord rec;
  do {
    nuevomatch::PcapReader reader{path};
    if (!reader.ok()) throw std::runtime_error("pcap probe: " + reader.error());
    uint64_t n = 0;
    const uint64_t t0 = now_ns();
    while (reader.next(rec)) ++n;
    const uint64_t t1 = now_ns();
    if (!reader.ok() || n == 0) throw std::runtime_error("pcap probe: bad capture " + path);
    per_record.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
  } while (now_ns() < deadline);
  return median(per_record);
}

}  // namespace perfbench
