#include "serialize/serialize.hpp"

#include <cstdio>
#include <memory>

#include "common/failpoint.hpp"
#include "serialize/bytes.hpp"

namespace nuevomatch::serialize {

namespace {

constexpr std::string_view kModelMagic = "NMRQ";
constexpr std::string_view kRulesMagic = "NMRS";
constexpr std::string_view kClassifierMagic = "NMCL";
constexpr std::string_view kOnlineMagic = "NMOL";

void put_submodel(ByteWriter& w, const rqrmi::Submodel& m) {
  for (float v : m.w1) w.put_f32(v);
  for (float v : m.b1) w.put_f32(v);
  for (float v : m.w2) w.put_f32(v);
  w.put_f32(m.b2);
}

[[nodiscard]] rqrmi::Submodel get_submodel(ByteReader& r) {
  rqrmi::Submodel m;
  for (float& v : m.w1) v = r.get_f32();
  for (float& v : m.b1) v = r.get_f32();
  for (float& v : m.w2) v = r.get_f32();
  m.b2 = r.get_f32();
  return m;
}

void put_model_body(ByteWriter& w, const rqrmi::RqRmi& model) {
  w.put_u64(model.num_intervals());
  const auto& stages = model.stages();
  w.put_u32(static_cast<uint32_t>(stages.size()));
  for (const auto& stage : stages) {
    w.put_u32(static_cast<uint32_t>(stage.size()));
    for (const auto& m : stage) put_submodel(w, m);
  }
  const auto& errors = model.leaf_errors();
  w.put_u32(static_cast<uint32_t>(errors.size()));
  for (uint32_t e : errors) w.put_u32(e);
  const auto& resp = model.leaf_responsibilities();
  w.put_u32(static_cast<uint32_t>(resp.size()));
  for (const auto& leaf : resp) {
    w.put_u32(static_cast<uint32_t>(leaf.size()));
    for (const auto& iv : leaf) {
      w.put_f64(iv.lo);
      w.put_f64(iv.hi);
    }
  }
}

// Only the nested stage weights travel on the wire; the flat inference arena
// used by lookup_batch is derived state that RqRmi::restore rebuilds on load.
[[nodiscard]] std::optional<rqrmi::RqRmi> get_model_body(ByteReader& r) {
  const uint64_t n_values = r.get_u64();
  const uint32_t n_stages = r.get_u32();
  if (!r.can_hold(n_stages, 4)) return std::nullopt;
  std::vector<std::vector<rqrmi::Submodel>> stages(n_stages);
  for (auto& stage : stages) {
    const uint32_t width = r.get_u32();
    if (!r.can_hold(width, rqrmi::Submodel::packed_bytes())) return std::nullopt;
    stage.reserve(width);
    for (uint32_t j = 0; j < width; ++j) stage.push_back(get_submodel(r));
  }
  const uint32_t n_err = r.get_u32();
  if (!r.can_hold(n_err, 4)) return std::nullopt;
  std::vector<uint32_t> errors(n_err);
  for (auto& e : errors) e = r.get_u32();
  const uint32_t n_resp = r.get_u32();
  if (!r.can_hold(n_resp, 4)) return std::nullopt;
  std::vector<std::vector<rqrmi::RqRmi::DomainInterval>> resp(n_resp);
  for (auto& leaf : resp) {
    const uint32_t n_iv = r.get_u32();
    if (!r.can_hold(n_iv, 16)) return std::nullopt;
    leaf.resize(n_iv);
    for (auto& iv : leaf) {
      iv.lo = r.get_f64();
      iv.hi = r.get_f64();
    }
  }
  if (!r.ok()) return std::nullopt;
  rqrmi::RqRmi model;
  try {
    model.restore(std::move(stages), std::move(errors), std::move(resp), n_values);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return model;
}

void put_rule(ByteWriter& w, const Rule& rule) {
  for (const Range& rg : rule.field) {
    w.put_u32(rg.lo);
    w.put_u32(rg.hi);
  }
  w.put_i32(rule.priority);
  w.put_u32(rule.id);
  w.put_i32(rule.action);
}

[[nodiscard]] Rule get_rule(ByteReader& r) {
  Rule rule;
  for (Range& rg : rule.field) {
    rg.lo = r.get_u32();
    rg.hi = r.get_u32();
  }
  rule.priority = r.get_i32();
  rule.id = r.get_u32();
  rule.action = r.get_i32();
  return rule;
}

void put_rules_body(ByteWriter& w, std::span<const Rule> rules) {
  w.put_u64(rules.size());
  for (const Rule& rule : rules) put_rule(w, rule);
}

constexpr size_t kRuleWireBytes = kNumFields * 8 + 12;

[[nodiscard]] std::optional<RuleSet> get_rules_body(ByteReader& r) {
  const uint64_t n = r.get_u64();
  if (!r.can_hold(n, kRuleWireBytes)) return std::nullopt;
  RuleSet rules;
  rules.reserve(n);
  for (uint64_t i = 0; i < n; ++i) rules.push_back(get_rule(r));
  if (!r.ok()) return std::nullopt;
  return rules;
}

void put_classifier_body(ByteWriter& w, const NuevoMatch& nm) {
  w.put_u32(static_cast<uint32_t>(nm.isets().size()));
  for (const IsetIndex& is : nm.isets()) {
    w.put_u32(static_cast<uint32_t>(is.field()));
    w.put_u64(is.size());  // put_rules_body's framing, one slot at a time
    for (size_t i = 0; i < is.size(); ++i) put_rule(w, is.rule(i));
    put_model_body(w, is.model());
    // v2: deletions since the last (re)build are tombstones in the array
    // above (the model is trained on the full array); ship their ids so the
    // load path can re-apply them instead of resurrecting the rules.
    w.put_u32(static_cast<uint32_t>(is.size() - is.live_rules()));
    for (size_t i = 0; i < is.size(); ++i)
      if (!is.alive(i)) w.put_u32(is.rule(i).id);
  }
  put_rules_body(w, nm.remainder_rules());
  // v2: update-pressure counters, so absorption tracking (and with it the
  // retrain policy) survives a checkpoint round-trip.
  w.put_u64(nm.built_size());
  w.put_u64(nm.migrated());
}

[[nodiscard]] std::optional<NuevoMatch> get_classifier_body(ByteReader& r,
                                                            NuevoMatchConfig cfg) {
  const uint32_t n_isets = r.get_u32();
  if (n_isets > NuevoMatch::kMaxIsets || !r.can_hold(n_isets, 4)) return std::nullopt;
  std::vector<IsetIndex> isets;
  isets.reserve(n_isets);
  std::vector<uint32_t> erased_ids;
  for (uint32_t i = 0; i < n_isets; ++i) {
    const uint32_t field = r.get_u32();
    if (field >= static_cast<uint32_t>(kNumFields)) return std::nullopt;
    auto rules = get_rules_body(r);
    if (!rules) return std::nullopt;
    auto model = get_model_body(r);
    if (!model) return std::nullopt;
    const uint32_t n_dead = r.get_u32();
    if (n_dead > rules->size() || !r.can_hold(n_dead, 4)) return std::nullopt;
    for (uint32_t d = 0; d < n_dead; ++d) erased_ids.push_back(r.get_u32());
    IsetIndex idx;
    try {
      idx.restore(static_cast<int>(field), std::move(*rules), std::move(*model));
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
    isets.push_back(std::move(idx));
  }
  auto remainder = get_rules_body(r);
  if (!remainder) return std::nullopt;
  const uint64_t built_size = r.get_u64();
  const uint64_t migrated = r.get_u64();
  if (!r.ok()) return std::nullopt;
  NuevoMatch nm{std::move(cfg)};
  nm.restore(std::move(isets), std::move(*remainder), erased_ids,
             static_cast<size_t>(built_size), static_cast<size_t>(migrated));
  return nm;
}

}  // namespace

std::vector<uint8_t> save_model(const rqrmi::RqRmi& model) {
  ByteWriter w;
  w.put_tag(kModelMagic);
  w.put_u32(kFormatVersion);
  put_model_body(w, model);
  return std::move(w).finish();
}

std::optional<rqrmi::RqRmi> load_model(std::span<const uint8_t> bytes) {
  // Injected read failure (failpoint "serialize.load"): a checkpoint that
  // cannot be read reports failure through the same fail-soft channel as a
  // corrupt one — callers must already handle std::nullopt.
  if (failpoint::should_fire(failpoint::kSerializeLoad)) return std::nullopt;
  ByteReader r{bytes};
  if (!r.check_crc()) return std::nullopt;
  if (!r.expect_tag(kModelMagic) || r.get_u32() != kFormatVersion) return std::nullopt;
  auto model = get_model_body(r);
  if (!model || !r.at_end()) return std::nullopt;
  return model;
}

std::vector<uint8_t> save_rules(std::span<const Rule> rules) {
  ByteWriter w;
  w.put_tag(kRulesMagic);
  w.put_u32(kFormatVersion);
  put_rules_body(w, rules);
  return std::move(w).finish();
}

std::optional<RuleSet> load_rules(std::span<const uint8_t> bytes) {
  if (failpoint::should_fire(failpoint::kSerializeLoad)) return std::nullopt;
  ByteReader r{bytes};
  if (!r.check_crc()) return std::nullopt;
  if (!r.expect_tag(kRulesMagic) || r.get_u32() != kFormatVersion) return std::nullopt;
  auto rules = get_rules_body(r);
  if (!rules || !r.at_end()) return std::nullopt;
  return rules;
}

std::vector<uint8_t> save_classifier(const NuevoMatch& nm) {
  ByteWriter w;
  w.put_tag(kClassifierMagic);
  w.put_u32(kFormatVersion);
  put_classifier_body(w, nm);
  return std::move(w).finish();
}

std::optional<NuevoMatch> load_classifier(std::span<const uint8_t> bytes,
                                          NuevoMatchConfig cfg) {
  if (failpoint::should_fire(failpoint::kSerializeLoad)) return std::nullopt;
  ByteReader r{bytes};
  if (!r.check_crc()) return std::nullopt;
  if (!r.expect_tag(kClassifierMagic) || r.get_u32() != kFormatVersion)
    return std::nullopt;
  auto nm = get_classifier_body(r, std::move(cfg));
  if (!nm || !r.at_end()) return std::nullopt;
  return nm;
}

std::vector<uint8_t> save_online(const OnlineNuevoMatch& online) {
  ByteWriter w;
  w.put_tag(kOnlineMagic);
  w.put_u32(kFormatVersion);
  // v3: a counter count (1) and the applied-op counter. The
  // counter is a lock-free atomic read; the classifier body is the
  // writer-excluded composed view (see with_stable_view) — two consistent
  // sections, not one atomic cut: under live churn ops can land between the
  // counter read and the body snapshot, so the counter may run a few ops
  // BEHIND the body (harmless — it is telemetry; quiesce callers who need
  // an exact pairing).
  w.put_u32(1);
  w.put_u64(online.update_ops());
  online.with_stable_view(
      [&](const NuevoMatch& nm) { put_classifier_body(w, nm); });
  return std::move(w).finish();
}

std::unique_ptr<OnlineNuevoMatch> load_online(std::span<const uint8_t> bytes,
                                              OnlineConfig cfg) {
  if (failpoint::should_fire(failpoint::kSerializeLoad)) return nullptr;
  ByteReader r{bytes};
  if (!r.check_crc()) return nullptr;
  if (!r.expect_tag(kOnlineMagic) || r.get_u32() != kFormatVersion) return nullptr;
  // Frames written with a sharded journal carry one counter per shard; only
  // their sum means anything.
  const uint32_t n_counters = r.get_u32();
  if (!r.can_hold(n_counters, 8)) return nullptr;
  uint64_t update_ops = 0;
  for (uint32_t i = 0; i < n_counters; ++i) update_ops += r.get_u64();
  auto nm = get_classifier_body(r, cfg.base);
  if (!nm || !r.at_end()) return nullptr;
  auto online = std::make_unique<OnlineNuevoMatch>(std::move(cfg));
  online->adopt(std::move(*nm), update_ops);
  return online;
}

bool write_file(const std::string& path, std::span<const uint8_t> bytes) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f{std::fopen(path.c_str(), "wb"),
                                                    &std::fclose};
  if (!f) return false;
  return std::fwrite(bytes.data(), 1, bytes.size(), f.get()) == bytes.size();
}

std::optional<std::vector<uint8_t>> read_file(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f{std::fopen(path.c_str(), "rb"),
                                                    &std::fclose};
  if (!f) return std::nullopt;
  std::vector<uint8_t> out;
  uint8_t buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f.get())) > 0)
    out.insert(out.end(), buf, buf + got);
  return out;
}

}  // namespace nuevomatch::serialize
