#include "nuevomatch/nuevomatch.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {

NuevoMatch::NuevoMatch(NuevoMatchConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.remainder_factory)
    throw std::invalid_argument{"NuevoMatchConfig.remainder_factory must be set"};
  if (cfg_.max_isets > static_cast<int>(kMaxIsets))
    throw std::invalid_argument{"NuevoMatchConfig.max_isets exceeds NuevoMatch::kMaxIsets"};
  remainder_ = cfg_.remainder_factory();
}

rqrmi::RqRmiConfig NuevoMatch::rqrmi_config(size_t iset_size) const {
  rqrmi::RqRmiConfig rc = rqrmi::default_config(iset_size);
  if (!cfg_.stage_widths_override.empty()) rc.stage_widths = cfg_.stage_widths_override;
  rc.error_threshold = cfg_.error_threshold;
  rc.initial_samples = cfg_.initial_samples;
  rc.adam_epochs = cfg_.adam_epochs;
  rc.max_retrain_attempts = cfg_.max_retrain_attempts;
  rc.seed = cfg_.seed;
  return rc;
}

void NuevoMatch::rebuild_pos_map() {
  pos_by_id_.clear();
  pos_by_id_.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) pos_by_id_.emplace(rules_[i].id, i);
}

void NuevoMatch::build(std::span<const Rule> rules) { build(rules, nullptr); }

namespace {

/// Retrain cost control (build(rules, reuse)): coverage — as a fraction of
/// the rule-set — that a model-reusing build may lose vs a full
/// re-partition before it falls back to retraining everything. Tolerates
/// partition tie-break noise around churn duplicates without letting reuse
/// erode the speedup.
constexpr double kReuseCoverageSlack = 0.02;

/// Index-relevant rule identity: ranges, priority and id. Actions are
/// deliberately NOT compared — the index never consults them, so an action
/// rewrite keeps a trained (model, array) pair valid.
bool same_index_rule(const Rule& a, const Rule& b) {
  if (a.id != b.id || a.priority != b.priority) return false;
  for (int f = 0; f < kNumFields; ++f) {
    const auto fi = static_cast<size_t>(f);
    if (a.field[fi].lo != b.field[fi].lo || a.field[fi].hi != b.field[fi].hi)
      return false;
  }
  return true;
}

}  // namespace

void NuevoMatch::build(std::span<const Rule> rules, const NuevoMatch* reuse_models_from) {
  rules_.assign(rules.begin(), rules.end());
  rebuild_pos_map();
  isets_.clear();
  built_size_ = rules_.size();
  migrated_ = 0;
  reused_isets_ = 0;

  IsetPartitionConfig pc;
  pc.max_isets = cfg_.max_isets;
  pc.min_coverage_fraction = cfg_.min_iset_coverage;

  // Model-reuse plan (retrain cost control): a donor iSet whose rule array
  // is fully intact in the new rule-set — every rule present with identical
  // ranges/priority — can be PINNED: its trained model and certified §3.3
  // error bounds stay valid verbatim, because the certification is a
  // property of the (model, sorted array) pair and the array is unchanged.
  // Pinning is partition-independent (a fresh partition of the same logical
  // set may tie-break differently around churn duplicates), so the
  // leftovers are partitioned into the remaining iSet slots and the whole
  // plan is GATED on not losing coverage vs a full re-partition: if pinning
  // would cost more than kReuseCoverageSlack of the rule-set, fall back to
  // the full plan and retrain everything. Remainder-only churn therefore
  // retrains nothing; structural drift retrains exactly when it matters.
  // NOTE: the donor scan reads only immutable post-build state (field, rule
  // arrays, models) — never the tombstone flags or live counters, which the
  // online engine flips concurrently during a background retrain. A donor
  // with tombstoned rules disqualifies itself through the snapshot: the
  // dead id is either absent or reincarnated with a different body.
  std::optional<IsetPartition> full;  // computed once; the gate and the
                                      // fallback plan share it
  if (reuse_models_from != nullptr && !reuse_models_from->isets_.empty()) {
    std::vector<const IsetIndex*> pinned;
    for (const IsetIndex& donor : reuse_models_from->isets_) {
      if (static_cast<int>(pinned.size()) >= cfg_.max_isets) break;
      bool intact = donor.size() != 0;
      for (size_t i = 0; i < donor.size(); ++i) {
        const Rule& r = donor.rule(i);
        const auto it = pos_by_id_.find(r.id);
        if (it == pos_by_id_.end() || !same_index_rule(rules_[it->second], r)) {
          intact = false;
          break;
        }
      }
      if (intact) pinned.push_back(&donor);
    }
    if (!pinned.empty()) {
      std::unordered_set<uint32_t> pinned_ids;
      for (const IsetIndex* is : pinned)
        for (size_t i = 0; i < is->size(); ++i) pinned_ids.insert(is->rule(i).id);
      std::vector<Rule> leftover;
      leftover.reserve(rules_.size() - pinned_ids.size());
      for (const Rule& r : rules_)
        if (!pinned_ids.contains(r.id)) leftover.push_back(r);

      IsetPartition lpart;
      IsetPartitionConfig lpc = pc;
      lpc.max_isets = cfg_.max_isets - static_cast<int>(pinned.size());
      if (lpc.max_isets > 0 && !leftover.empty()) {
        // Keep the candidacy threshold relative to the FULL rule-set, not
        // the leftover slice.
        lpc.min_coverage_fraction =
            std::min(1.0, pc.min_coverage_fraction *
                              static_cast<double>(rules_.size()) /
                              static_cast<double>(leftover.size()));
        lpart = partition_rules(leftover, lpc);
      } else {
        lpart.remainder = std::move(leftover);
        lpart.total_rules = lpart.remainder.size();
      }

      size_t pinned_cov = pinned_ids.size();
      for (const auto& s : lpart.isets) pinned_cov += s.rules.size();
      full = partition_rules(rules_, pc);
      size_t full_cov = 0;
      for (const auto& s : full->isets) full_cov += s.rules.size();
      const double slack =
          kReuseCoverageSlack * static_cast<double>(rules_.size());
      if (static_cast<double>(pinned_cov) + slack >= static_cast<double>(full_cov)) {
        isets_.reserve(pinned.size() + lpart.isets.size());
        for (const IsetIndex* donor : pinned) {
          // Rebuild the array from the snapshot's rule bodies (identical
          // ranges/priority/id, possibly rewritten actions) in donor order.
          std::vector<Rule> arr;
          arr.reserve(donor->size());
          for (size_t i = 0; i < donor->size(); ++i)
            arr.push_back(rules_[pos_by_id_.at(donor->rule(i).id)]);
          IsetIndex idx;
          idx.restore(donor->field(), std::move(arr), donor->model());
          isets_.push_back(std::move(idx));
          ++reused_isets_;
        }
        for (auto& s : lpart.isets) {
          IsetIndex idx;
          const size_t n = s.rules.size();
          idx.build(s.field, std::move(s.rules), rqrmi_config(n));
          isets_.push_back(std::move(idx));
        }
        remainder_ = cfg_.remainder_factory();
        remainder_->build(lpart.remainder);
        mark_remainder(lpart.remainder);
        return;
      }
      // Gate failed: the pinned plan would cost coverage — fall through to
      // the full retrain.
    }
  }

  IsetPartition part =
      full.has_value() ? std::move(*full) : partition_rules(rules_, pc);
  isets_.reserve(part.isets.size());
  for (auto& is : part.isets) {
    IsetIndex idx;
    const size_t n = is.rules.size();
    idx.build(is.field, std::move(is.rules), rqrmi_config(n));
    isets_.push_back(std::move(idx));
  }
  remainder_ = cfg_.remainder_factory();
  remainder_->build(part.remainder);
  mark_remainder(part.remainder);
}

void NuevoMatch::mark_remainder(std::span<const Rule> remainder) {
  for (IsetIndex& is : isets_) is.mark_remainder(remainder);
}

void NuevoMatch::iset_stages(const Packet* packets, size_t tile, MatchResult* out,
                             bool* skip) const {
  // Three-stage software pipeline for one tile (DESIGN.md "Batched inference
  // engine"). Stage 1 runs the whole tile through the lane-per-packet RQ-RMI
  // kernels — one predict_batch call per iSet instead of a scalar predict
  // per packet x iSet. Stage 2 walks the bounded search windows; each hit
  // prefetches the candidate stage 3 reads. Stage 3 validates per packet in
  // iSet order so the cross-iSet early-termination floor behaves exactly
  // like the per-key match_with_floor() composition.
  const size_t n_isets = isets_.size();
  std::array<uint32_t, kTile * kMaxIsets> vals;
  std::array<rqrmi::Prediction, kTile * kMaxIsets> preds;
  std::array<int32_t, kTile * kMaxIsets> pos;

  // Stage 1: batched model inference, one iSet (= one model) at a time.
  for (size_t s = 0; s < n_isets; ++s) {
    uint32_t* v = vals.data() + s * kTile;
    for (size_t t = 0; t < tile; ++t) v[t] = packets[t][isets_[s].field()];
    isets_[s].predict_batch({v, tile}, {preds.data() + s * kTile, tile});
  }
  // Stage 2: batched bounded secondary search.
  for (size_t s = 0; s < n_isets; ++s) {
    isets_[s].search_batch({vals.data() + s * kTile, tile},
                           {preds.data() + s * kTile, tile},
                           {pos.data() + s * kTile, tile});
  }
  // Stage 3: validation per packet, recording the skip bit of the hit that
  // set the running best.
  for (size_t t = 0; t < tile; ++t) {
    int32_t floor = std::numeric_limits<int32_t>::max();
    out[t] = validate_isets(packets[t], pos.data() + t, kTile, floor, skip[t]);
  }
}

MatchResult NuevoMatch::match_with_floor(const Packet& p, int32_t priority_floor) const {
  return match_with_floor(p, priority_floor, *remainder_);
}

void NuevoMatch::match_batch(std::span<const Packet> packets,
                             std::span<MatchResult> out) const {
  match_batch(packets, out, *remainder_);
}

bool NuevoMatch::supports_updates() const { return remainder_->supports_updates(); }

bool NuevoMatch::insert(const Rule& r) {
  // Ids are unique and priority INT32_MAX is the miss sentinel; see header.
  if (r.priority == std::numeric_limits<int32_t>::max() || pos_by_id_.contains(r.id))
    return false;
  if (!remainder_->insert(r)) return false;
  for (IsetIndex& is : isets_) is.mark_remainder_rule(r);
  pos_by_id_.emplace(r.id, rules_.size());
  rules_.push_back(r);
  ++migrated_;
  return true;
}

bool NuevoMatch::erase_in_place(uint32_t rule_id) noexcept {
  for (IsetIndex& is : isets_) {
    if (is.erase(rule_id)) return true;
  }
  auto* tm = dynamic_cast<TupleMerge*>(remainder_.get());
  return tm != nullptr && tm->tombstone(rule_id);
}

bool NuevoMatch::erase(uint32_t rule_id) {
  const auto it = pos_by_id_.find(rule_id);
  if (it == pos_by_id_.end()) return false;
  bool removed = false;
  for (IsetIndex& is : isets_) {
    if (is.erase(rule_id)) {
      removed = true;
      break;
    }
  }
  if (!removed && !remainder_->erase(rule_id)) return false;
  // Swap-and-pop: the logical rule list is unordered (partitioning re-sorts
  // on rebuild), so erasure stays O(1).
  const size_t pos = it->second;
  const size_t last = rules_.size() - 1;
  if (pos != last) {
    rules_[pos] = std::move(rules_[last]);
    pos_by_id_[rules_[pos].id] = pos;
  }
  rules_.pop_back();
  pos_by_id_.erase(rule_id);
  return true;
}

std::vector<Rule> NuevoMatch::remainder_rules() const {
  // rules_ is the logical rule list; subtract live iSet membership (a hash
  // set, NOT an id-indexed array: update ids are caller-chosen uint32s, so
  // indexing by id would let one large id force a multi-GB allocation).
  // Rules erased from an iSet are tombstoned there and absent from rules_ —
  // and must not mark their id here: the id may have been reinserted since,
  // and that reincarnation lives in the remainder.
  std::unordered_set<uint32_t> in_iset;
  for (const IsetIndex& is : isets_) {
    for (size_t i = 0; i < is.size(); ++i) {
      if (is.alive(i)) in_iset.insert(is.rule(i).id);
    }
  }
  std::vector<Rule> out;
  for (const Rule& r : rules_) {
    if (!in_iset.contains(r.id)) out.push_back(r);
  }
  return out;
}

double NuevoMatch::update_pressure() const noexcept {
  if (built_size_ == 0) return 0.0;
  return static_cast<double>(migrated_) / static_cast<double>(built_size_);
}

void NuevoMatch::rebuild() {
  const std::vector<Rule> snapshot = rules_;
  build(snapshot);
}

void NuevoMatch::restore(std::vector<IsetIndex> isets, std::vector<Rule> remainder_rules) {
  restore(std::move(isets), std::move(remainder_rules), {}, kAutoBuiltSize, 0);
}

void NuevoMatch::restore(std::vector<IsetIndex> isets, std::vector<Rule> remainder_rules,
                         std::span<const uint32_t> erased_ids, size_t built_size,
                         size_t migrated) {
  if (isets.size() > kMaxIsets)
    throw std::invalid_argument{"NuevoMatch::restore: more iSets than kMaxIsets"};
  isets_ = std::move(isets);
  // Deletions applied after the last (re)build live as tombstones inside the
  // iSet arrays (the model needs the full array); re-apply them FIRST, so
  // the logical rule list below contains only live rules — in particular,
  // an id that was erased from an iSet and later reinserted (now living in
  // the remainder) must appear exactly once.
  for (const uint32_t id : erased_ids) {
    for (IsetIndex& is : isets_) {
      if (is.erase(id)) break;
    }
  }
  rules_.clear();
  for (const IsetIndex& is : isets_) {
    for (size_t i = 0; i < is.size(); ++i) {
      if (is.alive(i)) rules_.push_back(is.rule(i));
    }
  }
  rules_.insert(rules_.end(), remainder_rules.begin(), remainder_rules.end());
  rebuild_pos_map();
  built_size_ = built_size == kAutoBuiltSize ? rules_.size() : built_size;
  migrated_ = migrated;
  remainder_ = cfg_.remainder_factory();
  remainder_->build(remainder_rules);
  mark_remainder(remainder_rules);
}

size_t NuevoMatch::memory_bytes() const {
  size_t bytes = remainder_->memory_bytes();
  for (const IsetIndex& is : isets_) bytes += is.model_bytes();
  return bytes;
}

std::string NuevoMatch::name() const { return "nuevomatch(" + remainder_->name() + ")"; }

double NuevoMatch::coverage() const noexcept {
  if (built_size_ == 0) return 0.0;
  size_t covered = 0;
  for (const IsetIndex& is : isets_) covered += is.size();
  return static_cast<double>(covered) / static_cast<double>(built_size_);
}

double NuevoMatch::remainder_skip_fraction() const noexcept {
  size_t live = 0;
  size_t clear = 0;
  for (const IsetIndex& is : isets_) {
    for (size_t i = 0; i < is.size(); ++i) {
      if (!is.alive(i)) continue;
      ++live;
      if (!is.needs_remainder(i)) ++clear;
    }
  }
  return live == 0 ? 0.0 : static_cast<double>(clear) / static_cast<double>(live);
}

uint32_t NuevoMatch::max_search_error() const noexcept {
  uint32_t e = 0;
  for (const IsetIndex& is : isets_) e = std::max(e, is.max_search_error());
  return e;
}

}  // namespace nuevomatch
