// First-visit Monte Carlo policy evaluation (paper §4.4.1).
//
// Q(s, a) is estimated as the average of the returns collected for the
// state-action pair. When feedback arrives on a link s' during an episode,
// and this is the first visit of s' in the episode, the feedback value is
// appended to the Returns of every state-action pair that led to s' (the
// full generation chain, per the paper's s1 → s2 → s3 example).
#ifndef ALEX_CORE_MC_LEARNER_H_
#define ALEX_CORE_MC_LEARNER_H_

#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/feature_space.h"

namespace alex::core {

struct StateAction {
  PairId state = kInvalidPairId;
  FeatureId action = kInvalidFeatureId;

  friend bool operator==(const StateAction& a, const StateAction& b) {
    return a.state == b.state && a.action == b.action;
  }
};

struct StateActionHash {
  size_t operator()(const StateAction& sa) const {
    return std::hash<uint64_t>{}((static_cast<uint64_t>(sa.state) << 32) |
                                 sa.action);
  }
};

class McLearner {
 public:
  McLearner() = default;

  // Appends `reward` to Returns(s, a) and remembers the state for the next
  // policy-improvement pass.
  void AppendReturn(const StateAction& sa, double reward);

  // Average of Returns(s, a). `defined` reports whether any return exists.
  double Q(const StateAction& sa, bool* defined = nullptr) const;

  // argmax_a Q(state, a) over the actions in `actions` that have defined
  // Q values; kInvalidFeatureId when none is defined.
  FeatureId ArgmaxAction(PairId state, FeatureSetView actions) const;

  // Episode lifecycle: clears the first-visit marks.
  void BeginEpisode();

  // First-visit test-and-set for a link within the current episode.
  bool IsFirstVisit(PairId pair);

  // States whose Returns changed since the last TakeStatesToImprove() call;
  // the engine improves the policy at exactly these states (Algorithm 1,
  // lines 24-33).
  std::vector<PairId> TakeStatesToImprove();

  // Scratch-buffer variant: clears `out` and fills it with the same states,
  // reusing its capacity across episodes.
  void TakeStatesToImprove(std::vector<PairId>* out);

  // Cross-state feature prior: the average return collected by an action
  // (feature) across ALL states of the partition. §4.2 observes that ALEX
  // "can learn that this feature is not distinctive and avoid exploring
  // around it in the future"; the prior generalizes that lesson to states
  // that have not been visited yet.
  double FeaturePrior(FeatureId feature, bool* defined = nullptr) const;

  // argmax over `actions` of FeaturePrior (undefined priors count as 0),
  // tie-breaking toward the higher similarity score.
  FeatureId ArgmaxFeaturePrior(FeatureSetView actions) const;

  // (feature -> {average return, sample count}) for every feature that has
  // collected at least one return; used for learning reports.
  std::unordered_map<FeatureId, std::pair<double, uint64_t>> FeaturePriors()
      const;

  size_t return_count() const { return returns_.size(); }

  // Export every (state-action, sum, count) accumulator (for persistence).
  std::vector<std::tuple<StateAction, double, uint64_t>> ExportReturns()
      const;

  // Restores one accumulator (adds to any existing one) and updates the
  // cross-state feature prior consistently.
  void RestoreReturn(const StateAction& sa, double sum, uint64_t count);

 private:
  struct Accumulated {
    double sum = 0.0;
    uint64_t count = 0;
  };
  std::unordered_map<StateAction, Accumulated, StateActionHash> returns_;
  std::unordered_map<FeatureId, Accumulated> feature_returns_;
  std::unordered_set<PairId> visited_this_episode_;
  std::unordered_set<PairId> states_to_improve_;
};

}  // namespace alex::core

#endif  // ALEX_CORE_MC_LEARNER_H_
