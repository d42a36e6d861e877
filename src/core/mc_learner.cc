#include "core/mc_learner.h"

#include <cmath>

namespace alex::core {

void McLearner::AppendReturn(const StateAction& sa, double reward) {
  Accumulated& acc = returns_[sa];
  acc.sum += reward;
  acc.count += 1;
  Accumulated& feature_acc = feature_returns_[sa.action];
  feature_acc.sum += reward;
  feature_acc.count += 1;
  states_to_improve_.insert(sa.state);
}

double McLearner::FeaturePrior(FeatureId feature, bool* defined) const {
  auto it = feature_returns_.find(feature);
  if (it == feature_returns_.end() || it->second.count == 0) {
    if (defined != nullptr) *defined = false;
    return 0.0;
  }
  if (defined != nullptr) *defined = true;
  return it->second.sum / static_cast<double>(it->second.count);
}

FeatureId McLearner::ArgmaxFeaturePrior(FeatureSetView actions) const {
  FeatureId best = kInvalidFeatureId;
  double best_prior = 0.0;
  double best_score = 0.0;
  for (const auto& [feature, score] : actions) {
    double prior = FeaturePrior(feature);
    if (best == kInvalidFeatureId || prior > best_prior ||
        (prior == best_prior && score > best_score)) {
      best = feature;
      best_prior = prior;
      best_score = score;
    }
  }
  return best;
}

double McLearner::Q(const StateAction& sa, bool* defined) const {
  auto it = returns_.find(sa);
  if (it == returns_.end() || it->second.count == 0) {
    if (defined != nullptr) *defined = false;
    return 0.0;
  }
  if (defined != nullptr) *defined = true;
  return it->second.sum / static_cast<double>(it->second.count);
}

FeatureId McLearner::ArgmaxAction(PairId state,
                                  FeatureSetView actions) const {
  // Untried actions count as Q = 0 (neutral). Without this, a state whose
  // only sampled action earned a negative return would greedily re-take
  // that action. Ties (e.g., among untried actions) break toward the
  // feature with the higher similarity score.
  FeatureId best = kInvalidFeatureId;
  double best_q = 0.0;
  double best_score = 0.0;
  for (const auto& [feature, score] : actions) {
    double q = Q(StateAction{state, feature});
    if (best == kInvalidFeatureId || q > best_q ||
        (q == best_q && score > best_score)) {
      best = feature;
      best_q = q;
      best_score = score;
    }
  }
  return best;
}

std::unordered_map<FeatureId, std::pair<double, uint64_t>>
McLearner::FeaturePriors() const {
  std::unordered_map<FeatureId, std::pair<double, uint64_t>> out;
  for (const auto& [feature, acc] : feature_returns_) {
    if (acc.count == 0) continue;
    out.emplace(feature, std::make_pair(
                             acc.sum / static_cast<double>(acc.count),
                             acc.count));
  }
  return out;
}

std::vector<std::tuple<StateAction, double, uint64_t>>
McLearner::ExportReturns() const {
  std::vector<std::tuple<StateAction, double, uint64_t>> out;
  out.reserve(returns_.size());
  for (const auto& [sa, acc] : returns_) {
    out.emplace_back(sa, acc.sum, acc.count);
  }
  return out;
}

void McLearner::RestoreReturn(const StateAction& sa, double sum,
                              uint64_t count) {
  Accumulated& acc = returns_[sa];
  acc.sum += sum;
  acc.count += count;
  Accumulated& feature_acc = feature_returns_[sa.action];
  feature_acc.sum += sum;
  feature_acc.count += count;
}

void McLearner::BeginEpisode() { visited_this_episode_.clear(); }

bool McLearner::IsFirstVisit(PairId pair) {
  return visited_this_episode_.insert(pair).second;
}

std::vector<PairId> McLearner::TakeStatesToImprove() {
  std::vector<PairId> out;
  TakeStatesToImprove(&out);
  return out;
}

void McLearner::TakeStatesToImprove(std::vector<PairId>* out) {
  out->assign(states_to_improve_.begin(), states_to_improve_.end());
  states_to_improve_.clear();
}

}  // namespace alex::core
