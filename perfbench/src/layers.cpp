#include "layers.hpp"

#include <array>
#include <chrono>
#include <deque>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace perfbench {

namespace {
constexpr size_t kBurst = 32;  ///< the pipeline's burst and match_batch's tile width
constexpr size_t kMaxIsets = 8;

/// Sleep to just before `due`, then spin, so sleep overshoot does not count
/// as commit latency.
void wait_until(uint64_t due) {
  constexpr uint64_t kSpinNs = 200'000;
  const uint64_t now = now_ns();
  if (due > now + kSpinNs)
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
  while (now_ns() < due) {
  }
}
}  // namespace

ReplayStats engine_replay(const nuevomatch::NuevoMatch& nm, std::span<const Packet> pkts,
                          uint64_t deadline, Tracer& tr) {
  const auto& isets = nm.isets();
  const size_t n_isets = isets.size();
  if (n_isets > kMaxIsets) throw std::runtime_error("replay: more iSets than the stage arrays hold");
  const auto* tm = dynamic_cast<const nuevomatch::TupleMerge*>(&nm.remainder());
  const size_t n = pkts.size();
  std::vector<MatchResult> whole(n), staged(n), iset_best(n);
  uint64_t whole_ns = 0, staged_ns = 0;
  std::array<uint32_t, kBurst * kMaxIsets> vals{};
  std::array<nuevomatch::rqrmi::Prediction, kBurst * kMaxIsets> preds{};
  std::array<int32_t, kBurst * kMaxIsets> pos{};
  const uint64_t infer0 = tr.self_ns(Layer::kRqrmi), search0 = tr.self_ns(Layer::kSearch),
                 validate0 = tr.self_ns(Layer::kValidate),
                 remainder0 = tr.self_ns(Layer::kRemainder);
  ReplayStats s;
  uint64_t traced_packets = 0, hits = 0, admitted = 0, wins = 0, burst_id = 0;

  do {
    uint64_t t0 = now_ns();
    for (size_t b = 0; b < n; b += kBurst) {
      const size_t len = std::min(kBurst, n - b);
      nm.match_batch(pkts.subspan(b, len), std::span(whole).subspan(b, len));
    }
    uint64_t t1 = now_ns();
    whole_ns += t1 - t0;

    t0 = now_ns();
    for (size_t b = 0; b < n; b += kBurst) {
      const size_t len = std::min(kBurst, n - b);
      const Packet* p = pkts.data() + b;
      tr.set_burst(++burst_id);
      for (size_t k = 0; k < n_isets; ++k) {
        tr.begin(Layer::kRqrmi);
        uint32_t* v = vals.data() + k * kBurst;
        for (size_t t = 0; t < len; ++t) v[t] = p[t][isets[k].field()];
        isets[k].predict_batch({v, len}, {preds.data() + k * kBurst, len});
        tr.end();
      }
      for (size_t k = 0; k < n_isets; ++k) {
        tr.begin(Layer::kSearch);
        isets[k].search_batch({vals.data() + k * kBurst, len}, {preds.data() + k * kBurst, len},
                              {pos.data() + k * kBurst, len});
        tr.end();
      }
      tr.begin(Layer::kValidate);
      for (size_t t = 0; t < len; ++t) {
        MatchResult best;
        for (size_t k = 0; k < n_isets; ++k) {
          const MatchResult r = isets[k].validate(pos[k * kBurst + t], p[t], best.priority);
          if (r.beats(best)) best = r;
        }
        iset_best[b + t] = best;
      }
      tr.end();
      tr.begin(Layer::kRemainder);
      for (size_t t = 0; t < len; ++t) {
        const MatchResult best = iset_best[b + t];
        const MatchResult rem = best.hit() ? nm.remainder().match_with_floor(p[t], best.priority)
                                           : nm.remainder().match(p[t]);
        staged[b + t] = rem.beats(best) ? rem : best;
      }
      tr.end();
    }
    t1 = now_ns();
    staged_ns += t1 - t0;
    traced_packets += n;

    // Untimed: the staged answers must equal match_batch's, then the counts.
    for (size_t i = 0; i < n; ++i) {
      s.wrong += staged[i].rule_id != whole[i].rule_id ? 1 : 0;
      hits += iset_best[i].hit() ? 1 : 0;
      wins += staged[i].rule_id != iset_best[i].rule_id ? 1 : 0;
      if (tm != nullptr) {
        const int32_t floor = iset_best[i].hit() ? iset_best[i].priority
                                                 : std::numeric_limits<int32_t>::max();
        for (const auto& table : tm->tables()) admitted += table->best_priority() < floor ? 1 : 0;
      }
    }
    s.checked += n;
  } while (now_ns() < deadline);

  const auto per_packet = [&](uint64_t ns) {
    return static_cast<double>(ns) / static_cast<double>(traced_packets);
  };
  const auto tp = static_cast<double>(traced_packets);
  s.whole_ns = per_packet(whole_ns);
  s.staged_ns = per_packet(staged_ns);
  s.infer_ns = per_packet(tr.self_ns(Layer::kRqrmi) - infer0);
  s.search_ns = per_packet(tr.self_ns(Layer::kSearch) - search0);
  s.validate_ns = per_packet(tr.self_ns(Layer::kValidate) - validate0);
  s.remainder_ns = per_packet(tr.self_ns(Layer::kRemainder) - remainder0);
  s.hit_ratio = static_cast<double>(hits) / tp;
  s.admitted = static_cast<double>(admitted) / tp;
  s.tables = tm != nullptr ? static_cast<double>(tm->num_tables()) : 0.0;
  s.win_ratio = static_cast<double>(wins) / tp;
  return s;
}

Writer::Writer(nuevomatch::OnlineNuevoMatch& engine, std::span<const Rule> rules, uint64_t seed,
               uint64_t period_ns)
    : engine_(engine),
      rules_(rules),
      period_ns_(period_ns),
      rng_{seed * 0x9E3779B97F4A7C15ull + 17},
      last_gen_(engine.generations()) {}

void Writer::run_until(uint64_t deadline) {
  std::vector<Rule> burst(kUpdateBurst);
  std::vector<uint32_t> ids(kUpdateBurst);
  const size_t first = w_.update_us.size();
  const uint64_t start = now_ns();
  for (uint64_t k = 1;; ++k) {
    const uint64_t due = start + k * period_ns_;
    if (due >= deadline) break;
    const bool insert = ++commits_due_ % 2 == 1;
    if (insert) {
      for (size_t i = 0; i < kUpdateBurst; ++i) {
        const Rule& r = rules_[rng_.below(rules_.size())];
        burst[i] = r;
        burst[i].id = next_id_++;
        burst[i].priority = r.priority + 1;
        ids[i] = burst[i].id;
      }
    } else if (live_.size() < kEraseLag) {
      continue;  // nothing old enough to erase yet
    }
    wait_until(due);
    const uint64_t t0 = now_ns();
    size_t accepted = 0;
    if (insert) {
      accepted = engine_.insert_batch(burst);
      live_.push_back(ids);
    } else {
      accepted = engine_.erase_batch(live_.front());
      live_.pop_front();
    }
    const uint64_t t1 = now_ns();
    w_.update_us.push_back(static_cast<double>(t1 - due) * 1e-3);
    w_.commit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    w_.late_us.push_back(static_cast<double>(t0 > due ? t0 - due : 0) * 1e-3);
    w_.offered += kUpdateBurst;
    w_.accepted += accepted;

    const uint64_t gen = engine_.generations();
    if (gen != last_gen_) {
      w_.swaps += gen - last_gen_;
      last_gen_ = gen;
      if (pending_since_ != 0)
        w_.retrain_s.push_back(static_cast<double>(t1 - pending_since_) * 1e-9);
      pending_since_ = 0;
    }
    if (pending_since_ == 0 && engine_.retrain_in_progress()) pending_since_ = t1;
    if (insert) {
      churn_sum_ += static_cast<double>(engine_.health().churn_rules);
      ++churn_samples_;
    }
  }
  if (w_.update_us.size() > first)
    w_.slice_p50_us.push_back(
        median({w_.update_us.begin() + static_cast<std::ptrdiff_t>(first), w_.update_us.end()}));
}

WriterStats Writer::stats() const {
  WriterStats w = w_;
  w.churn_rules = churn_samples_ == 0 ? 0.0 : churn_sum_ / static_cast<double>(churn_samples_);
  return w;
}

WriterStats run_writer(nuevomatch::OnlineNuevoMatch& engine, std::span<const Rule> rules,
                       uint64_t seed, uint64_t period_ns, uint64_t deadline) {
  Writer w{engine, rules, seed, period_ns};
  w.run_until(deadline);
  return w.stats();
}

void timed_retrain(nuevomatch::OnlineNuevoMatch& engine, WriterStats& w) {
  const uint64_t gen = engine.generations();
  const uint64_t t0 = now_ns();
  engine.retrain_now();
  engine.quiesce();
  w.retrain_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  w.swaps += engine.generations() - gen;
}

}  // namespace perfbench
