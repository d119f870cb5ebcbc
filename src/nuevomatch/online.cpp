#include "nuevomatch/online.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {

namespace {

/// Base-remainder erases are TupleMerge tombstones (OnlineConfig::base).
void require_tuplemerge(const NuevoMatch& nm) {
  if (dynamic_cast<const TupleMerge*>(&nm.remainder()) == nullptr)
    throw std::invalid_argument{
        "OnlineNuevoMatch: the remainder must be a TupleMerge, got " +
        nm.remainder().name()};
}

}  // namespace

OnlineNuevoMatch::OnlineNuevoMatch(OnlineConfig cfg) : cfg_(std::move(cfg)) {
  // An empty generation (with an empty layer) up front means match() never
  // needs a null check.
  gen_owner_ = std::make_shared<Generation>(cfg_.base);
  require_tuplemerge(gen_owner_->nm);
  layer_owner_ = std::make_shared<const Layer>();
  gen_owner_->layer.store(layer_owner_.get(), std::memory_order_relaxed);
  gen_pub_.store(gen_owner_.get(), std::memory_order_seq_cst);
  worker_ = std::thread([this] { worker_loop(); });
}

OnlineNuevoMatch::~OnlineNuevoMatch() {
  {
    std::lock_guard lk{wk_mu_};
    stop_ = true;
  }
  wk_cv_.notify_all();
  worker_.join();
  // No readers may be in flight here (standard object-lifetime contract);
  // the retire list and the owner pointers free everything else.
}

// --- data path --------------------------------------------------------------

const OnlineNuevoMatch::ChurnList OnlineNuevoMatch::kNoChurn{};

const OnlineNuevoMatch::ChurnList& OnlineNuevoMatch::Pin::churn() const noexcept {
  return l_->churn != nullptr ? *l_->churn : kNoChurn;
}

MatchResult OnlineNuevoMatch::Pin::match(const Packet& p) const {
  return g_->nm.match_with_floor(p, std::numeric_limits<int32_t>::max(),
                                 g_->nm.remainder(), churn());
}

void OnlineNuevoMatch::Pin::match_batch(std::span<const Packet> packets,
                                        std::span<MatchResult> out) const {
  g_->nm.match_batch(packets, out, g_->nm.remainder(), churn());
}

MatchResult OnlineNuevoMatch::match_with_floor(const Packet& p,
                                               int32_t priority_floor) const {
  const Pin pin{*this};
  return pin.nm().match_with_floor(p, priority_floor, pin.nm().remainder(),
                                   pin.churn());
}

void OnlineNuevoMatch::match_batch(std::span<const Packet> packets,
                                   std::span<MatchResult> out) const {
  Pin{*this}.match_batch(packets, out);
}

// --- writer commits ---------------------------------------------------------

void OnlineNuevoMatch::journal_locked(Op op) {
  update_ops_.fetch_add(1, std::memory_order_relaxed);
  if (journal_open_) {
    journal_.push_back(std::move(op));
    journal_depth_.store(journal_.size(), std::memory_order_relaxed);
  }
}

bool OnlineNuevoMatch::insert_locked(const Rule& r) {
  // Ids are unique and priority INT32_MAX is the miss sentinel; see header.
  if (r.priority == std::numeric_limits<int32_t>::max() || live_loc_.contains(r.id))
    return false;
  pending_inserts_.push_back(r);
  live_loc_.emplace(r.id, LiveInfo{Loc::kChurn, r.priority});
  ++migrated_;
  live_count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool OnlineNuevoMatch::erase_locked(uint32_t rule_id, uint32_t& bands) {
  const auto it = live_loc_.find(rule_id);
  if (it == live_loc_.end()) return false;
  // An erase of r can only change answers whose cached decision IS r (a
  // packet not matched by r keeps its best match), so it invalidates
  // exactly r's band — never the catch-all (a miss cannot become a hit by
  // removing a rule).
  bands |= 1u << coherence_band(it->second.priority);
  switch (it->second.loc) {
    case Loc::kIset:
    case Loc::kBaseRemainder:
      // In-place atomic tombstone (iSet slot or TupleMerge alive byte):
      // visible to readers immediately, no copy-on-write publication
      // needed. erased_base_ keeps the base-remainder ids for the
      // writer-side compositions (compose_rules_locked, with_stable_view).
      gen_owner_->nm.erase_in_place(rule_id);
      if (it->second.loc == Loc::kBaseRemainder) erased_base_.insert(rule_id);
      break;
    case Loc::kChurn:
      pending_churn_erases_.push_back(rule_id);
      break;
  }
  live_loc_.erase(it);
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void OnlineNuevoMatch::bump_coherence(uint32_t bands) noexcept {
  if (NM_METRICS_ENABLED) {
    static telemetry::Counter& m = telemetry::registry().counter(
        "nm_engine_coherence_bumps_total",
        "cache-invalidation stamp bumps (commits + swaps)");
    m.add(1);
  }
  // One global bump covers the whole commit; each affected band is marked
  // with the post-bump value. Callers hold wmu_, so marks are monotone per
  // band. Ordering: the fetch_add is the release fence for the commit's
  // publications (layer store / tombstones / band map); the mark stores
  // after it are what lets OTHER bands keep serving — a probe that reads a
  // not-yet-stored mark serves a decision the in-flight call has not yet
  // invalidated, which linearizes before that call's return exactly like a
  // lock-free lookup racing erase().
  const uint64_t v = coherence_.fetch_add(1, std::memory_order_release) + 1;
  for (int b = 0; b <= kCoherenceCatchAll; ++b) {
    if ((bands >> b) & 1u)
      band_marks_[static_cast<size_t>(b)].store(v, std::memory_order_release);
  }
}

void OnlineNuevoMatch::publish_layer_locked() {
  // Rebuild the flat delta: one merge pass over (previous delta minus this
  // commit's erases) and (this commit's inserts, sorted). O(delta + burst)
  // with memcpy-class constants — flat enough that per-commit cost stays
  // negligible even at single-op commit rates, and independent of reader
  // behavior (no grace period involved).
  auto fresh = std::make_shared<Layer>();
  const auto less = [](const Rule& a, const Rule& b) {
    return a.priority != b.priority ? a.priority < b.priority : a.id < b.id;
  };
  std::sort(pending_inserts_.begin(), pending_inserts_.end(), less);
  const std::unordered_set<uint32_t> dead(pending_churn_erases_.begin(),
                                          pending_churn_erases_.end());
  static const std::vector<Rule> kEmpty;
  const std::vector<Rule>& old =
      layer_owner_->churn != nullptr ? layer_owner_->churn->rules : kEmpty;
  auto list = std::make_shared<ChurnList>();
  list->rules.reserve(old.size() + pending_inserts_.size());
  size_t j = 0;
  for (const Rule& r : old) {
    if (dead.contains(r.id)) continue;
    while (j < pending_inserts_.size() && less(pending_inserts_[j], r))
      list->rules.push_back(pending_inserts_[j++]);
    list->rules.push_back(r);
  }
  for (; j < pending_inserts_.size(); ++j) list->rules.push_back(pending_inserts_[j]);
  if (!list->rules.empty()) fresh->churn = std::move(list);

  // One seq_cst store publishes the whole commit; the superseded layer is
  // epoch-stamped and reclaimed once every pinned reader has moved on.
  gen_owner_->layer.store(fresh.get(), std::memory_order_seq_cst);
  retired_.retire(layer_owner_, epochs_.retire_stamp());
  layer_owner_ = std::move(fresh);
  churn_size_.store(
      layer_owner_->churn != nullptr ? layer_owner_->churn->rules.size() : 0,
      std::memory_order_relaxed);
  retired_.collect(epochs_.min_active());
  if (NM_METRICS_ENABLED) {
    static telemetry::Gauge& g = telemetry::registry().gauge(
        "nm_epoch_retired_depth",
        "epoch-domain retire-list depth after collection");
    g.set(static_cast<int64_t>(retired_.size()));
  }
}

size_t OnlineNuevoMatch::insert_batch(std::span<const Rule> rules) {
  if (rules.empty()) return 0;
  const uint64_t m_t0 = NM_METRICS_ENABLED ? telemetry::now_ns() : 0;
  size_t accepted = 0;
  double pressure = 0.0;
  {
    std::lock_guard lk{wmu_};
    pending_inserts_.clear();
    pending_churn_erases_.clear();
    int min_band = kCoherenceCatchAll;
    for (const Rule& r : rules) {
      if (insert_locked(r)) {
        journal_locked(Op{Op::Kind::kInsert, r, r.id});
        min_band = std::min(min_band, coherence_band(r.priority));
        ++accepted;
      }
    }
    if (accepted > 0) {
      publish_layer_locked();
      // The commit is reader-visible; invalidate decision caches (the bump
      // must follow the publication — coherence_stamp()'s contract). An
      // insert of r only beats cached decisions with WORSE priority, so it
      // marks r's band and every band above it — plus the catch-all, since
      // a cached miss can become a hit.
      bump_coherence((0x1FFFFu << min_band) & 0x1FFFFu);
    }
    pressure = built_size_ > 0
                   ? static_cast<double>(migrated_) / static_cast<double>(built_size_)
                   : 0.0;
  }
  if (accepted > 0 && cfg_.auto_retrain && pressure >= cfg_.retrain_threshold)
    request_retrain(/*forced=*/false);
  if (NM_METRICS_ENABLED && accepted > 0) {
    static telemetry::Counter& mc = telemetry::registry().counter(
        "nm_engine_commits_total", "batch commits accepted (insert + erase)");
    static telemetry::Counter& mo = telemetry::registry().counter(
        "nm_engine_commit_ops_total", "individual ops accepted by commits");
    static telemetry::Histogram& mh = telemetry::registry().histogram(
        "nm_engine_commit_ns", "commit latency, call to publication");
    mc.add(1);
    mo.add(accepted);
    mh.record(telemetry::now_ns() - m_t0);
  }
  return accepted;
}

size_t OnlineNuevoMatch::erase_batch(std::span<const uint32_t> rule_ids) {
  if (rule_ids.empty()) return 0;
  const uint64_t m_t0 = NM_METRICS_ENABLED ? telemetry::now_ns() : 0;
  size_t accepted = 0;
  {
    std::lock_guard lk{wmu_};
    pending_inserts_.clear();
    pending_churn_erases_.clear();
    uint32_t bands = 0;
    for (const uint32_t id : rule_ids) {
      if (erase_locked(id, bands)) {
        journal_locked(Op{Op::Kind::kErase, Rule{}, id});
        ++accepted;
      }
    }
    // Tombstones are already visible in place; only churn changes need a
    // copy-on-write publication.
    if (!pending_churn_erases_.empty()) publish_layer_locked();
    // Tombstone-only erases mutated the live view too, so any accepted op
    // invalidates decision caches — but only the erased rules' OWN bands
    // (erase_locked's argument): cached decisions elsewhere provably stand.
    if (accepted > 0) bump_coherence(bands);
  }
  if (NM_METRICS_ENABLED && accepted > 0) {
    static telemetry::Counter& mc = telemetry::registry().counter(
        "nm_engine_commits_total", "batch commits accepted (insert + erase)");
    static telemetry::Counter& mo = telemetry::registry().counter(
        "nm_engine_commit_ops_total", "individual ops accepted by commits");
    static telemetry::Histogram& mh = telemetry::registry().histogram(
        "nm_engine_commit_ns", "commit latency, call to publication");
    mc.add(1);
    mo.add(accepted);
    mh.record(telemetry::now_ns() - m_t0);
  }
  return accepted;
}

bool OnlineNuevoMatch::insert(const Rule& r) { return insert_batch({&r, 1}) == 1; }

bool OnlineNuevoMatch::erase(uint32_t rule_id) {
  return erase_batch({&rule_id, 1}) == 1;
}

// --- generation installation ------------------------------------------------

void OnlineNuevoMatch::install_generation_locked(std::shared_ptr<Generation> fresh) {
  auto fresh_layer = std::make_shared<const Layer>();
  fresh->layer.store(fresh_layer.get(), std::memory_order_relaxed);
  fresh->seq = generation_count_.fetch_add(1, std::memory_order_relaxed) + 1;

  // Rebuild the writer-side routing state from the frozen index. O(n), under
  // the writer lock only — the read path never notices.
  base_rules_ = fresh->nm.remainder_rules();
  erased_base_.clear();
  pending_inserts_.clear();
  pending_churn_erases_.clear();
  live_loc_.clear();
  live_loc_.reserve(fresh->nm.size());
  int64_t prio_lo = INT64_MAX;
  int64_t prio_hi = INT64_MIN;
  for (const IsetIndex& is : fresh->nm.isets()) {
    for (size_t i = 0; i < is.size(); ++i) {
      if (!is.alive(i)) continue;
      const Rule& r = is.rule(i);
      live_loc_.emplace(r.id, LiveInfo{Loc::kIset, r.priority});
      prio_lo = std::min<int64_t>(prio_lo, r.priority);
      prio_hi = std::max<int64_t>(prio_hi, r.priority);
    }
  }
  for (const Rule& r : base_rules_) {
    live_loc_.emplace(r.id, LiveInfo{Loc::kBaseRemainder, r.priority});
    prio_lo = std::min<int64_t>(prio_lo, r.priority);
    prio_hi = std::max<int64_t>(prio_hi, r.priority);
  }
  // Recompute the band map over the installed rules' priority range: 16
  // equal-width bands, clamped at both ends (priorities inserted later that
  // fall outside the range land in band 0 / 15). Stored BEFORE this
  // install's release bump, and every band is marked below — so an entry
  // that survives the install was stamped after it and therefore banded
  // under THIS map; no entry banded under the old map can ever be served
  // against it.
  uint64_t map = 0;
  if (prio_lo <= prio_hi) {
    const uint64_t span = static_cast<uint64_t>(prio_hi - prio_lo) + 1;
    const uint64_t width =
        (span + kCoherenceBands - 1) / static_cast<uint64_t>(kCoherenceBands);
    map = (static_cast<uint64_t>(static_cast<uint32_t>(prio_lo)) << 32) |
          static_cast<uint32_t>(width);
  }
  band_map_.store(map, std::memory_order_relaxed);
  built_size_ = fresh->nm.built_size();
  migrated_ = fresh->nm.migrated();
  live_count_.store(fresh->nm.size(), std::memory_order_relaxed);
  journal_open_ = false;
  journal_.clear();
  journal_depth_.store(0, std::memory_order_relaxed);
  churn_size_.store(0, std::memory_order_relaxed);  // fresh layer is empty

  gen_pub_.store(fresh.get(), std::memory_order_seq_cst);
  const uint64_t stamp = epochs_.retire_stamp();
  retired_.retire(layer_owner_, stamp);
  retired_.retire(gen_owner_, stamp);
  gen_owner_ = std::move(fresh);
  layer_owner_ = std::move(fresh_layer);
  retired_.collect(epochs_.min_active());
  if (NM_METRICS_ENABLED) {
    static telemetry::Gauge& g = telemetry::registry().gauge(
        "nm_epoch_retired_depth",
        "epoch-domain retire-list depth after collection");
    g.set(static_cast<int64_t>(retired_.size()));
  }
  // A swap preserves every answer (journal replayed), but cached decisions
  // predate the replayed erases' tombstone relocations, and the band map
  // just moved — mark EVERY band; conservative invalidation is always
  // coherent.
  bump_coherence(0x1FFFFu);
}

void OnlineNuevoMatch::publish_fresh(std::shared_ptr<Generation> fresh,
                                     uint64_t update_ops) {
  // Cancel any pending retrain and wait out a running one, so a stale
  // generation trained on pre-build rules can never swap over this one.
  {
    std::unique_lock lk{wk_mu_};
    retrain_requested_ = false;
    wk_cv_.wait(lk, [&] { return !retrain_running_; });
    // Failure accounting restarts from a clean slate: a fresh generation has
    // no retrain history.
    last_error_.clear();
  }
  retrain_failures_.store(0, std::memory_order_relaxed);
  degraded_.store(false, std::memory_order_release);
  // A retrain requested between the wait above and the lock below loses
  // either way: its snapshot section runs after this install (fresh rules),
  // or it already ran and the journal_open_ reset here discards it at replay.
  {
    std::lock_guard lk{wmu_};
    install_generation_locked(std::move(fresh));
    update_ops_.store(update_ops, std::memory_order_relaxed);
  }
}

void OnlineNuevoMatch::build(std::span<const Rule> rules) {
  auto fresh = std::make_shared<Generation>(cfg_.base);
  try {
    if (failpoint::should_fire(failpoint::kOnlineBuild))
      throw std::runtime_error("failpoint: online.build");
    // Train before cancelling the worker: the long part needs no exclusion.
    fresh->nm.build(rules);
  } catch (const std::exception& e) {
    // Graceful degradation instead of an unusable engine: an engine whose
    // training failed can still answer every query correctly with the
    // remainder side alone — restore() with zero iSets routes all rules to
    // the configured remainder engine and skips RQ-RMI training entirely.
    // health() raises the degraded flag; a later successful retrain_now()
    // (or build()/adopt()) swaps a trained index in and clears it.
    fresh = std::make_shared<Generation>(cfg_.base);
    fresh->nm.restore({}, std::vector<Rule>(rules.begin(), rules.end()));
    publish_fresh(std::move(fresh));
    // publish_fresh wipes failure state; record the degradation after it.
    retrain_failures_.store(1, std::memory_order_relaxed);
    retrain_failures_total_.fetch_add(1, std::memory_order_relaxed);
    degraded_.store(true, std::memory_order_release);
    {
      std::lock_guard lk{wk_mu_};
      last_error_ = std::string{"initial build: "} + e.what();
    }
    return;
  }
  publish_fresh(std::move(fresh));
}

void OnlineNuevoMatch::adopt(NuevoMatch nm, uint64_t update_ops) {
  require_tuplemerge(nm);
  publish_fresh(std::make_shared<Generation>(std::move(nm)), update_ops);
}

// --- retraining -------------------------------------------------------------

double OnlineNuevoMatch::absorption() const {
  std::lock_guard lk{wmu_};
  return built_size_ > 0
             ? static_cast<double>(migrated_) / static_cast<double>(built_size_)
             : 0.0;
}

bool OnlineNuevoMatch::retrain_in_progress() const {
  std::lock_guard lk{wk_mu_};
  return retrain_requested_ || retrain_running_;
}

void OnlineNuevoMatch::retrain_now() { request_retrain(/*forced=*/true); }

void OnlineNuevoMatch::request_retrain(bool forced) {
  // Degraded mode suppresses auto-retrains: max_retrain_failures attempts
  // already failed, so pressure-triggered requests would spin CPU on a
  // persistently failing train. Recovery is explicit — retrain_now()
  // (forced) still attempts, and a success clears the flag.
  if (!forced && degraded_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard lk{wk_mu_};
    if (stop_) return;
    retrain_requested_ = true;
    retrain_forced_ |= forced;
  }
  wk_cv_.notify_all();
}

void OnlineNuevoMatch::quiesce() const {
  std::unique_lock lk{wk_mu_};
  wk_cv_.wait(lk, [&] { return !retrain_requested_ && !retrain_running_; });
}

std::vector<Rule> OnlineNuevoMatch::compose_rules_locked() const {
  // The logical rule-set: live iSet rules + surviving base-remainder rules +
  // the churn delta. (The frozen nm's own rules() is NOT authoritative here:
  // in-place tombstones and layered updates supersede it.)
  std::vector<Rule> out;
  out.reserve(live_count_.load(std::memory_order_relaxed));
  for (const IsetIndex& is : gen_owner_->nm.isets()) {
    for (size_t i = 0; i < is.size(); ++i) {
      if (is.alive(i)) out.push_back(is.rule(i));
    }
  }
  for (const Rule& r : base_rules_) {
    if (!erased_base_.contains(r.id)) out.push_back(r);
  }
  if (layer_owner_->churn != nullptr) {
    const auto& churn = layer_owner_->churn->rules;
    out.insert(out.end(), churn.begin(), churn.end());
  }
  return out;
}

void OnlineNuevoMatch::with_stable_view(
    const std::function<void(const NuevoMatch&)>& fn) const {
  // Compose an offline classifier equivalent to the live view: copies of the
  // iSets (tombstones included) + the layered remainder folded back into one
  // rule list. Writers are excluded for the duration, so the composition is
  // consistent; O(n) + the remainder rebuild, bounded even under sustained
  // churn (no quiesce).
  std::lock_guard lk{wmu_};
  std::vector<IsetIndex> isets_copy = gen_owner_->nm.isets();
  std::vector<Rule> rem;
  const std::vector<Rule>* churn =
      layer_owner_->churn != nullptr ? &layer_owner_->churn->rules : nullptr;
  rem.reserve(base_rules_.size() + (churn != nullptr ? churn->size() : 0));
  for (const Rule& r : base_rules_) {
    if (!erased_base_.contains(r.id)) rem.push_back(r);
  }
  if (churn != nullptr) rem.insert(rem.end(), churn->begin(), churn->end());
  NuevoMatch tmp{cfg_.base};
  tmp.restore(std::move(isets_copy), std::move(rem),
              /*erased_ids=*/{}, built_size_, migrated_);
  fn(tmp);
}

size_t OnlineNuevoMatch::memory_bytes() const {
  const Pin v{*this};
  size_t bytes = v.g_->nm.memory_bytes();
  if (v.l_->churn != nullptr) bytes += v.l_->churn->rules.size() * sizeof(Rule);
  return bytes;
}

std::string OnlineNuevoMatch::name() const {
  const Pin v{*this};
  return "online-" + v.g_->nm.name();
}

void OnlineNuevoMatch::worker_loop() {
  for (;;) {
    bool forced = false;
    {
      std::unique_lock lk{wk_mu_};
      wk_cv_.wait(lk, [&] { return retrain_requested_ || stop_; });
      if (stop_) return;
      retrain_requested_ = false;
      forced = retrain_forced_;
      retrain_forced_ = false;
      retrain_running_ = true;
    }
    // Auto-triggered requests re-arm on every insert past the threshold, so
    // a burst overlapping a running retrain leaves a pending request whose
    // work the swap already absorbed (journal replay). Skip the redundant
    // seconds-long cycle unless the live pressure still warrants it; an
    // explicit retrain_now() always runs.
    CycleOutcome outcome = CycleOutcome::kCancelled;
    if (forced || absorption() >= cfg_.retrain_threshold) {
      const uint64_t m_t0 = NM_METRICS_ENABLED ? telemetry::now_ns() : 0;
      outcome = retrain_cycle();
      if (NM_METRICS_ENABLED && outcome == CycleOutcome::kSwapped) {
        static telemetry::Counter& mc = telemetry::registry().counter(
            "nm_engine_retrains_total", "successful retrain swaps");
        static telemetry::Histogram& mh = telemetry::registry().histogram(
            "nm_engine_retrain_ns", "retrain cycle duration (swapped only)");
        mc.add(1);
        mh.record(telemetry::now_ns() - m_t0);
      }
    }
    {
      std::lock_guard lk{wk_mu_};
      retrain_running_ = false;
      if (outcome == CycleOutcome::kSwapped) {
        // Recovery: a successful swap clears the failure count, the
        // degraded flag, and the recorded error.
        retrain_failures_.store(0, std::memory_order_relaxed);
        degraded_.store(false, std::memory_order_release);
        last_error_.clear();
      } else if (outcome == CycleOutcome::kFailed) {
        // No retry of its own: the next commit over the threshold or an
        // explicit retrain_now() tries again. After max_retrain_failures in
        // a row, degraded mode stops the commit-triggered attempts; the old
        // generation + churn delta keep serving correct answers until an
        // explicit retrain_now()/build()/adopt() recovers.
        const uint64_t k =
            retrain_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
        retrain_failures_total_.fetch_add(1, std::memory_order_relaxed);
        if (k >= static_cast<uint64_t>(std::max(1, cfg_.max_retrain_failures)))
          degraded_.store(true, std::memory_order_release);
      }
    }
    wk_cv_.notify_all();  // wake quiesce()rs / a publish_fresh() waiter
  }
}

OnlineNuevoMatch::CycleOutcome OnlineNuevoMatch::abandon_cycle(const char* what) {
  {
    std::lock_guard lk{wmu_};
    // journal_open_ false here means a concurrent build()/adopt() already
    // installed over this cycle: it is superseded, not failed — recording a
    // failure against the fresh install would be a lie.
    if (!journal_open_) return CycleOutcome::kCancelled;
    // The journal is dropped because every journaled update was also
    // applied to the live view — nothing is lost.
    journal_open_ = false;
    journal_.clear();
    journal_depth_.store(0, std::memory_order_relaxed);
  }
  {
    std::lock_guard lk{wk_mu_};
    last_error_ = what;
  }
  return CycleOutcome::kFailed;
}

OnlineNuevoMatch::CycleOutcome OnlineNuevoMatch::retrain_cycle() {
  // 1) Snapshot the logical rule-set and open the journal. Writers are
  //    excluded only for the duration of one composition pass. `prev` keeps
  //    the donor generation alive for the model-reuse scan during training
  //    (a concurrent build()/adopt() is excluded while a retrain runs, but
  //    the shared_ptr makes the lifetime local and obvious).
  std::shared_ptr<const Generation> prev;
  std::vector<Rule> snapshot;
  {
    std::lock_guard lk{wmu_};
    prev = gen_owner_;
    snapshot = compose_rules_locked();
    journal_open_ = true;
    journal_.clear();
  }

  // 2) Train with no locks held — this is the seconds-long part, and the
  //    data path runs at full speed against the old generation throughout.
  //    iSets whose partitioned rule arrays are unchanged reuse the donor's
  //    trained model and certified error bounds outright (remainder-only
  //    churn retrains nothing — the sawtooth shrinks to a remainder
  //    rebuild). The donor scan reads only the immutable rule arrays, never
  //    the concurrently-flipped tombstone flags.
  auto fresh = std::make_shared<Generation>(cfg_.base);
  try {
    if (failpoint::should_fire(failpoint::kOnlineRetrain))
      throw std::runtime_error("failpoint: online.retrain");
    fresh->nm.build(snapshot, &prev->nm);
  } catch (const std::exception& e) {
    // Training failure keeps the old generation serving. The error is
    // preserved (count + message in health()); see worker_loop for what
    // retries it.
    return abandon_cycle(e.what());
  }
  last_retrain_reused_.store(fresh->nm.reused_isets(), std::memory_order_relaxed);

  // 3) Replay the journal onto the fresh generation, then install it.
  //    Writers are excluded only while the journal is DRAINED (a vector
  //    move) and for the final residue: the bulk replay runs with no lock
  //    held, in catch-up rounds — under heavy multi-writer churn the
  //    journal accumulated during training can rival the training time
  //    itself, and replaying it under the writer lock would lock every
  //    writer out for exactly that long (measured as a multi-writer
  //    throughput collapse). Correctness is unchanged: only this worker
  //    consumes the journal, and writers append under the writer lock — so
  //    append order is apply order, and each drained batch follows every
  //    earlier batch. An update still lands either in the journal (replayed
  //    here) or on the fresh generation after the install — never lost,
  //    never duplicated. Readers are untouched
  //    throughout: in-flight lookups finish on the old generation, which
  //    the epoch machinery keeps alive until the last pinned reader exits.
  const auto drain_locked = [&] {
    std::vector<Op> drained = std::exchange(journal_, {});
    journal_depth_.store(0, std::memory_order_relaxed);
    return drained;
  };
  const auto replay = [&](const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      if (failpoint::should_fire(failpoint::kOnlineReplay))
        throw std::runtime_error("failpoint: online.replay");
      if (op.kind == Op::Kind::kInsert) {
        fresh->nm.insert(op.rule);
      } else {
        fresh->nm.erase(op.id);
      }
    }
  };
  std::vector<Op> carry;  // drained but not yet replayed (in apply order)
  try {
    for (int round = 0; round < 4; ++round) {
      {
        std::lock_guard lk{wmu_};
        // A concurrent build()/adopt() invalidates this cycle by resetting
        // journal_open_ (install_generation_locked): the snapshot predates
        // the explicit reset, so publishing it would resurrect pre-build
        // rules.
        if (!journal_open_) return CycleOutcome::kCancelled;
        carry = drain_locked();
      }
      if (carry.size() < 256) break;  // small enough to finish under the lock
      replay(carry);
      carry.clear();
    }
    {
      std::lock_guard lk{wmu_};
      if (!journal_open_) return CycleOutcome::kCancelled;
      replay(carry);            // the last drained batch, if the loop broke early
      replay(drain_locked());   // stragglers journaled since
      install_generation_locked(std::move(fresh));
    }
  } catch (const std::exception& e) {
    // A replay failure abandons the fresh generation exactly like a
    // training failure: the live view already holds every journaled update,
    // so dropping the journal loses nothing.
    return abandon_cycle(e.what());
  }
  return CycleOutcome::kSwapped;
}

// --- health -----------------------------------------------------------------

EngineHealth OnlineNuevoMatch::health() const {
  EngineHealth h;
  h.degraded = degraded_.load(std::memory_order_acquire);
  h.generation = generations();
  h.retrain_failures = retrain_failures_.load(std::memory_order_relaxed);
  h.retrain_failures_total =
      retrain_failures_total_.load(std::memory_order_relaxed);
  h.journal_depth = journal_depth_.load(std::memory_order_relaxed);
  h.churn_rules = churn_size_.load(std::memory_order_relaxed);
  h.absorption = absorption();  // takes wmu_ (released before wk_mu_ below)
  {
    std::lock_guard lk{wk_mu_};
    h.retrain_pending = retrain_requested_ || retrain_running_;
    h.last_error = last_error_;
  }
  return h;
}

}  // namespace nuevomatch
