#include "core/candidate_set.h"

#include <algorithm>

namespace alex::core {

CandidateSet::CandidateSet(size_t universe)
    : positions_(universe, kAbsent), delta_(universe, 0) {}

void CandidateSet::Grow(size_t universe) {
  if (universe <= positions_.size()) return;
  positions_.reserve(universe);
  positions_.resize(universe, kAbsent);
  delta_.reserve(universe);
  delta_.resize(universe, 0);
}

bool CandidateSet::Add(PairId pair) {
  uint32_t& position = positions_[pair];
  if (position != kAbsent) return false;
  position = static_cast<uint32_t>(items_.size());
  items_.push_back(pair);
  BumpDelta(pair, kNetAdded);
  return true;
}

bool CandidateSet::Remove(PairId pair) {
  const uint32_t position = positions_[pair];
  if (position == kAbsent) return false;
  PairId last = items_.back();
  items_[position] = last;
  positions_[last] = position;
  items_.pop_back();
  positions_[pair] = kAbsent;
  BumpDelta(pair, kNetRemoved);
  return true;
}

void CandidateSet::BumpDelta(PairId pair, uint8_t net) {
  uint8_t& state = delta_[pair];
  if ((state & kTouched) == 0) {
    state = kTouched;
    touched_.push_back(pair);
  }
  // Add and Remove alternate per pair, so a non-zero net is always undone
  // by the next mutation: the pair returns to its epoch-start membership.
  if ((state & (kNetAdded | kNetRemoved)) != 0) {
    state = kTouched;
    --changed_;
  } else {
    state |= net;
    ++changed_;
  }
}

size_t CandidateSet::TakeEpochChanges() {
  for (PairId pair : touched_) delta_[pair] = 0;
  touched_.clear();
  const size_t changes = changed_;
  changed_ = 0;
  return changes;
}

PairId CandidateSet::Sample(Rng* rng) const {
  return items_[rng->NextBounded(items_.size())];
}

void CandidateSet::SortedEpochDelta(std::vector<PairId>* added,
                                    std::vector<PairId>* removed) const {
  added->clear();
  removed->clear();
  for (PairId pair : touched_) {
    const uint8_t state = delta_[pair];
    if ((state & kNetAdded) != 0) {
      added->push_back(pair);
    } else if ((state & kNetRemoved) != 0) {
      removed->push_back(pair);
    }
  }
  std::sort(added->begin(), added->end());
  std::sort(removed->begin(), removed->end());
}

std::vector<PairId> CandidateSet::SortedSnapshot() const {
  std::vector<PairId> snapshot = items_;
  std::sort(snapshot.begin(), snapshot.end());
  return snapshot;
}

}  // namespace alex::core
