#include "pipeline/telemetry.hpp"

#include <cinttypes>
#include <cstdio>

#include "pipeline/elements.hpp"

namespace nuevomatch::telemetry {

namespace {

using pipeline::PipelineHealth;
using pipeline::ReplicaHealth;
using pipeline::ReplicaPhase;

std::string u64s(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string replica_label(size_t i) {
  return "{replica=\"" + u64s(i) + "\"}";
}

void render_engine_prom(std::string& out, const EngineHealth& e) {
  prometheus_gauge(out, "nm_engine_degraded",
                   "1 when the engine gave up auto-retraining", e.degraded);
  prometheus_gauge(out, "nm_engine_generation",
                   "index generations published", static_cast<double>(e.generation));
  prometheus_gauge(out, "nm_engine_retrain_failures",
                   "consecutive retrain failures since last swap",
                   static_cast<double>(e.retrain_failures));
  prometheus_counter(out, "nm_engine_retrain_failures_total",
                     "lifetime retrain failures", e.retrain_failures_total);
  prometheus_gauge(out, "nm_engine_retrain_pending",
                   "1 while a retrain is requested or running",
                   e.retrain_pending);
  prometheus_gauge(out, "nm_engine_journal_depth",
                   "ops queued in the retrain journal",
                   static_cast<double>(e.journal_depth));
  prometheus_gauge(out, "nm_engine_churn_rules",
                   "rules in the published churn delta",
                   static_cast<double>(e.churn_rules));
  prometheus_gauge(out, "nm_engine_absorption",
                   "fraction of churn absorbed without retrain", e.absorption);
}

void render_pipeline_prom(std::string& out, const PipelineHealth& p) {
  prometheus_counter(out, "nm_pipeline_suppressed_errors_total",
                     "replica errors dropped after the first recorded one",
                     p.suppressed_errors);
  prometheus_counter(out, "nm_pipeline_rejoin_failures_total",
                     "replica rejoin attempts aborted", p.rejoin_failures);
  prometheus_gauge(out, "nm_pipeline_steer_epochs",
                   "steering-table epochs installed",
                   static_cast<double>(p.steer_epochs));
  prometheus_counter(out, "nm_pipeline_recovery_ns_total",
                     "wall time spent inside quarantine handling",
                     p.recovery_ns);
  // Per-replica series share one # TYPE header each.
  const struct {
    const char* name;
    const char* help;
  } series[] = {
      {"nm_replica_quarantines_total", "times the replica was quarantined"},
      {"nm_replica_rejoins_total", "successful respawn+reinstate cycles"},
      {"nm_replica_drained_entries_total",
       "live cache entries dropped by drains"},
      {"nm_replica_steps_total", "bursts stepped by the replica"},
      {"nm_replica_live", "1 live, 0 quarantined"},
  };
  for (const auto& s : series) {
    out += "# HELP ";
    out += s.name;
    out += ' ';
    out += s.help;
    out += "\n# TYPE ";
    out += s.name;
    out += (std::string_view(s.name).ends_with("_total") ? " counter\n"
                                                         : " gauge\n");
  }
  for (size_t i = 0; i < p.replicas.size(); ++i) {
    const ReplicaHealth& r = p.replicas[i];
    const std::string lbl = replica_label(i);
    out += "nm_replica_quarantines_total" + lbl + ' ' + u64s(r.quarantines) + '\n';
    out += "nm_replica_rejoins_total" + lbl + ' ' + u64s(r.rejoins) + '\n';
    out += "nm_replica_drained_entries_total" + lbl + ' ' +
           u64s(r.drained_entries) + '\n';
    out += "nm_replica_steps_total" + lbl + ' ' + u64s(r.steps) + '\n';
    out += "nm_replica_live" + lbl + ' ' +
           (r.phase == ReplicaPhase::kQuarantined ? "0" : "1") + '\n';
  }
}

void render_cache_prom(std::string& out, const pipeline::FlowCache::Stats& c,
                       uint64_t entries, uint64_t capacity) {
  prometheus_counter(out, "nm_flowcache_hits_total", "cache hits", c.hits);
  prometheus_counter(out, "nm_flowcache_misses_total",
                     "lookups with no entry for the key", c.misses);
  prometheus_counter(out, "nm_flowcache_stale_total",
                     "entries found but invalidated by their band", c.stale);
  prometheus_counter(out, "nm_flowcache_retained_total",
                     "hits served by entries that survived a commit",
                     c.retained);
  prometheus_counter(out, "nm_flowcache_future_total",
                     "hits fresher than the probe's stamp view", c.future);
  prometheus_counter(out, "nm_flowcache_inserts_total", "cache inserts",
                     c.inserts);
  prometheus_counter(out, "nm_flowcache_evictions_total",
                     "inserts that displaced a live entry", c.evictions);
  prometheus_counter(out, "nm_flowcache_insert_drops_total",
                     "inserts dropped (fresher entry already cached)",
                     c.insert_drops);
  prometheus_gauge(out, "nm_flowcache_entries", "live entries resident",
                   static_cast<double>(entries));
  prometheus_gauge(out, "nm_flowcache_capacity", "configured capacity",
                   static_cast<double>(capacity));
}

// --- JSON renderers (object per section; keys mirror struct fields) -------

void json_kv(std::string& out, bool& first, std::string_view key,
             uint64_t v) {
  if (!first) out += ',';
  first = false;
  out += '"';
  json_escape(out, key);
  out += "\":";
  out += u64s(v);
}

void json_kv_d(std::string& out, bool& first, std::string_view key,
               double v) {
  if (!first) out += ',';
  first = false;
  out += '"';
  json_escape(out, key);
  out += "\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  out += buf;
}

void json_kv_s(std::string& out, bool& first, std::string_view key,
               std::string_view v) {
  if (!first) out += ',';
  first = false;
  out += '"';
  json_escape(out, key);
  out += "\":\"";
  json_escape(out, v);
  out += '"';
}

std::string engine_json(const EngineHealth& e) {
  std::string out = "{";
  bool f = true;
  json_kv(out, f, "degraded", e.degraded);
  json_kv(out, f, "generation", e.generation);
  json_kv(out, f, "retrain_failures", e.retrain_failures);
  json_kv(out, f, "retrain_failures_total", e.retrain_failures_total);
  json_kv_s(out, f, "last_error", e.last_error);
  json_kv(out, f, "retrain_pending", e.retrain_pending);
  json_kv(out, f, "journal_depth", e.journal_depth);
  json_kv(out, f, "churn_rules", e.churn_rules);
  json_kv_d(out, f, "absorption", e.absorption);
  out += '}';
  return out;
}

std::string pipeline_json(const PipelineHealth& p) {
  std::string out = "{";
  bool f = true;
  json_kv(out, f, "suppressed_errors", p.suppressed_errors);
  json_kv(out, f, "rejoin_failures", p.rejoin_failures);
  json_kv(out, f, "steer_epochs", p.steer_epochs);
  json_kv(out, f, "recovery_ns", p.recovery_ns);
  out += ",\"replicas\":[";
  for (size_t i = 0; i < p.replicas.size(); ++i) {
    const ReplicaHealth& r = p.replicas[i];
    if (i) out += ',';
    std::string ro = "{";
    bool rf = true;
    json_kv_s(ro, rf, "phase", pipeline::phase_name(r.phase));
    json_kv(ro, rf, "fires", r.fires);
    json_kv(ro, rf, "steps", r.steps);
    json_kv(ro, rf, "idle_fires", r.idle_fires);
    json_kv(ro, rf, "quarantines", r.quarantines);
    json_kv(ro, rf, "rejoins", r.rejoins);
    json_kv(ro, rf, "drained_entries", r.drained_entries);
    json_kv_s(ro, rf, "last_error", r.last_error);
    ro += '}';
    out += ro;
  }
  out += "]}";
  return out;
}

std::string cache_json(const pipeline::FlowCache::Stats& c, uint64_t entries,
                       uint64_t capacity) {
  std::string out = "{";
  bool f = true;
  json_kv(out, f, "hits", c.hits);
  json_kv(out, f, "misses", c.misses);
  json_kv(out, f, "stale", c.stale);
  json_kv(out, f, "retained", c.retained);
  json_kv(out, f, "future", c.future);
  json_kv(out, f, "inserts", c.inserts);
  json_kv(out, f, "evictions", c.evictions);
  json_kv(out, f, "insert_drops", c.insert_drops);
  json_kv_d(out, f, "hit_rate", c.hit_rate());
  json_kv(out, f, "entries", entries);
  json_kv(out, f, "capacity", capacity);
  out += '}';
  return out;
}

/// Fold one graph's surfaces into `s`: every FlowCache's stats add up, and
/// the first online engine found supplies the engine section (replicas
/// share one engine, so the first is the only one).
void join_graph(Snapshot& s, const pipeline::Graph& g) {
  for (const auto& e : g.elements()) {
    if (const auto* fc = dynamic_cast<const pipeline::FlowCacheElement*>(e.get())) {
      if (!s.cache) s.cache.emplace();
      *s.cache += fc->cache().stats();
      s.cache_entries += fc->cache().size();
      s.cache_capacity += fc->cache().capacity();
    } else if (const auto* cls =
                   dynamic_cast<const pipeline::ClassifierElement*>(e.get());
               cls != nullptr && cls->online() != nullptr && !s.engine) {
      s.engine = cls->online()->health();
    }
  }
}

}  // namespace

std::string Snapshot::to_prometheus() const {
  std::string out = registry.to_prometheus();
  if (engine) render_engine_prom(out, *engine);
  if (pipeline) render_pipeline_prom(out, *pipeline);
  if (cache) render_cache_prom(out, *cache, cache_entries, cache_capacity);
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "{\"registry\":" + registry.to_json();
  if (engine) out += ",\"engine\":" + engine_json(*engine);
  if (pipeline) out += ",\"pipeline\":" + pipeline_json(*pipeline);
  if (cache)
    out += ",\"flowcache\":" + cache_json(*cache, cache_entries, cache_capacity);
  out += '}';
  return out;
}

Snapshot snapshot(const pipeline::Graph& g) {
  Snapshot s;
  s.registry = registry().snapshot();
  join_graph(s, g);
  return s;
}

Snapshot snapshot(const pipeline::ReplicatedGraph& rg) {
  Snapshot s;
  s.registry = registry().snapshot();
  for (uint32_t i = 0; i < rg.replicas(); ++i) join_graph(s, rg.replica(i));
  s.pipeline = rg.health();
  return s;
}

}  // namespace nuevomatch::telemetry
