// Priority-ordered linear scan. O(n) per lookup; the correctness oracle for
// every other engine and the paper's implicit ground truth.
#pragma once

#include <vector>

#include "classifiers/classifier.hpp"

namespace nuevomatch {

class LinearSearch final : public Classifier {
 public:
  void build(std::span<const Rule> rules) override;
  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const override;

  [[nodiscard]] bool supports_updates() const override { return true; }
  bool insert(const Rule& r) override;
  bool erase(uint32_t rule_id) override;

  [[nodiscard]] size_t memory_bytes() const override;
  [[nodiscard]] size_t size() const override { return rules_.size(); }
  [[nodiscard]] std::string name() const override { return "linear"; }

 private:
  std::vector<Rule> rules_;  // sorted by (priority, id)
};

}  // namespace nuevomatch
