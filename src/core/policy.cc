#include "core/policy.h"

#include "common/logging.h"

namespace alex::core {

FeatureId EpsilonGreedyPolicy::ChooseAction(PairId state,
                                            FeatureSetView actions,
                                            Rng* rng) const {
  ALEX_CHECK(!actions.empty()) << "state " << state << " has no actions";
  auto it = greedy_.find(state);
  if (it == greedy_.end() || rng->NextBool(epsilon_)) {
    // Arbitrary policy before the first improvement; afterwards the ε
    // branch explores uniformly.
    size_t idx = static_cast<size_t>(rng->NextBounded(actions.size()));
    return actions.feature(idx);
  }
  return it->second;
}

double EpsilonGreedyPolicy::ActionProbability(PairId state,
                                              FeatureSetView actions,
                                              FeatureId action) const {
  bool present = false;
  for (const auto& [f, score] : actions) {
    if (f == action) present = true;
  }
  if (!present) return 0.0;
  auto it = greedy_.find(state);
  double uniform = 1.0 / static_cast<double>(actions.size());
  if (it == greedy_.end()) return uniform;
  if (it->second == action) {
    return (1.0 - epsilon_) + epsilon_ * uniform;
  }
  return epsilon_ * uniform;
}

void EpsilonGreedyPolicy::SetGreedy(PairId state, FeatureId action) {
  greedy_[state] = action;
}

std::optional<FeatureId> EpsilonGreedyPolicy::GreedyAction(
    PairId state) const {
  auto it = greedy_.find(state);
  if (it == greedy_.end()) return std::nullopt;
  return it->second;
}

}  // namespace alex::core
