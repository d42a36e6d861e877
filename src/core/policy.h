// The ε-greedy stochastic policy of ALEX (paper §4.4.1 / Algorithm 1).
//
// The action space of a state (a link) is the set of features of its
// feature set: "choose feature f to explore around". Before the first
// policy improvement of a state the policy is arbitrary — a uniformly
// random feature. After improvement, the greedy action is chosen with
// probability 1 − ε and a uniformly random action with probability ε, so
// π(s, a) ≥ ε / |A(s)| > 0 for every action: continuous exploration.
#ifndef ALEX_CORE_POLICY_H_
#define ALEX_CORE_POLICY_H_

#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "core/feature_space.h"

namespace alex::core {

class EpsilonGreedyPolicy {
 public:
  explicit EpsilonGreedyPolicy(double epsilon) : epsilon_(epsilon) {}

  double epsilon() const { return epsilon_; }

  // Chooses the action (feature to explore around) for `state` whose action
  // space is `actions` (must be non-empty).
  FeatureId ChooseAction(PairId state, FeatureSetView actions,
                         Rng* rng) const;

  // Probability that ChooseAction(state) returns `action` — used by tests
  // and by the soundness property checks. Returns 0 for actions outside
  // `actions`.
  double ActionProbability(PairId state, FeatureSetView actions,
                           FeatureId action) const;

  // Policy improvement for one state: make `action` the greedy choice.
  void SetGreedy(PairId state, FeatureId action);

  std::optional<FeatureId> GreedyAction(PairId state) const;

  size_t improved_state_count() const { return greedy_.size(); }

  // All (state -> greedy action) entries; used for learning reports.
  const std::unordered_map<PairId, FeatureId>& greedy_map() const {
    return greedy_;
  }

 private:
  double epsilon_;
  std::unordered_map<PairId, FeatureId> greedy_;
};

}  // namespace alex::core

#endif  // ALEX_CORE_POLICY_H_
