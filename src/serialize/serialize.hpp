// Binary serialization of trained NuevoMatch classifiers.
//
// Training an RQ-RMI takes seconds-to-minutes (paper Section 5.3.4); looking
// one up takes nanoseconds. Deployments therefore train offline and ship the
// weights — this module provides the wire format: a versioned, CRC-32
// protected encoding of the RQ-RMI stages, per-leaf error bounds, iSet rule
// arrays and the remainder rule-set. The remainder's external classifier is
// NOT serialized: it is rebuilt on load through the caller's factory, since
// external engines build in milliseconds and their in-memory layout is not a
// stable contract.
//
// Every load_* returns std::nullopt on any malformed input: truncated
// buffers, bad magic/version, CRC mismatch, or shape violations. Corrupted
// input can never produce a classifier that answers queries.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nuevomatch/nuevomatch.hpp"
#include "nuevomatch/online.hpp"
#include "rqrmi/model.hpp"

namespace nuevomatch::serialize {

/// v2 added the updatable state to classifier checkpoints: per-iSet
/// tombstone (dead-id) lists and the update-pressure counters, so a
/// classifier with pending remainder rules round-trips exactly. v3 gives the
/// online checkpoint its own frame: a counter count plus that many applied-op
/// counters ahead of the classifier body, so churn accounting survives a
/// checkpoint. save_online writes one counter; load_online accepts any count
/// (frames from the former sharded journal carry one per shard) and sums
/// them. Version mismatches are rejected outright — no compatibility shims
/// until a release has shipped artifacts worth migrating.
inline constexpr uint32_t kFormatVersion = 3;

/// --- RQ-RMI model ----------------------------------------------------------
[[nodiscard]] std::vector<uint8_t> save_model(const rqrmi::RqRmi& model);
[[nodiscard]] std::optional<rqrmi::RqRmi> load_model(std::span<const uint8_t> bytes);

/// --- rule-sets --------------------------------------------------------------
[[nodiscard]] std::vector<uint8_t> save_rules(std::span<const Rule> rules);
[[nodiscard]] std::optional<RuleSet> load_rules(std::span<const uint8_t> bytes);

/// --- full classifier --------------------------------------------------------
/// Serialized: every iSet (field, rules, trained model, dead ids) + remainder
/// rules (including rules migrated there by updates) + update-pressure
/// counters. A classifier with pending updates — tombstoned deletions and
/// rules absorbed by the remainder since the last (re)build — round-trips
/// exactly; rebuild() before saving is no longer required.
[[nodiscard]] std::vector<uint8_t> save_classifier(const NuevoMatch& nm);
/// `cfg` supplies the remainder factory (and runtime knobs); the trained
/// state comes from `bytes`.
[[nodiscard]] std::optional<NuevoMatch> load_classifier(std::span<const uint8_t> bytes,
                                                        NuevoMatchConfig cfg);

/// --- online classifier -------------------------------------------------------
/// Checkpoint the live view of an online classifier plus its applied-op
/// counter. The classifier body is the epoch engine's *composed* stable
/// view — the frozen generation with the copy-on-write update layer folded
/// back in (churn inserts in the remainder rule-set, base-remainder deletions
/// dropped, iSet tombstones as v2 dead-id lists) — so the frame carries no
/// per-reader or per-layer runtime state and the v3 wire format is
/// unchanged from the rwlock-era encoder. Snapshots with writers excluded
/// (but without waiting out churn or an in-flight retrain — see
/// OnlineNuevoMatch::with_stable_view), so the bytes are a consistent view
/// and the call is bounded even under sustained updates.
[[nodiscard]] std::vector<uint8_t> save_online(const OnlineNuevoMatch& nm);
/// Restore into a fresh online classifier: the journal starts empty, the
/// absorption and the applied-op counter resume where the checkpoint left
/// them (update_ops() is the sum of the frame's counters). Returns
/// nullptr on malformed input (the class is not movable, so this is the one
/// loader that hands back a pointer instead of an optional).
[[nodiscard]] std::unique_ptr<OnlineNuevoMatch> load_online(
    std::span<const uint8_t> bytes, OnlineConfig cfg);

/// --- files -------------------------------------------------------------------
[[nodiscard]] bool write_file(const std::string& path, std::span<const uint8_t> bytes);
[[nodiscard]] std::optional<std::vector<uint8_t>> read_file(const std::string& path);

}  // namespace nuevomatch::serialize
