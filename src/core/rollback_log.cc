#include "core/rollback_log.h"

#include <unordered_set>

namespace alex::core {

namespace {

size_t BitWords(size_t universe) { return (universe + 63) / 64; }

}  // namespace

RollbackLog::RollbackLog(size_t universe)
    : parent_slot_(universe, 0), visited_(BitWords(universe), 0) {}

void RollbackLog::Grow(size_t universe) {
  if (universe <= parent_slot_.size()) return;
  parent_slot_.reserve(universe);
  parent_slot_.resize(universe, 0);
  visited_.reserve(BitWords(universe));
  visited_.resize(BitWords(universe), 0);
}

void RollbackLog::RecordGeneration(const StateAction& sa,
                                   const std::vector<PairId>& pairs) {
  if (pairs.empty()) return;
  std::vector<PairId>& generated = generated_by_[sa];
  generated.insert(generated.end(), pairs.begin(), pairs.end());
  for (PairId pair : pairs) {
    uint32_t& slot = parent_slot_[pair];
    if (slot == 0) {
      if (free_lists_.empty()) {
        parent_lists_.emplace_back();
        slot = static_cast<uint32_t>(parent_lists_.size());
      } else {
        slot = free_lists_.back();
        free_lists_.pop_back();
      }
    }
    parent_lists_[slot - 1].push_back(sa);
  }
}

const std::vector<StateAction>& RollbackLog::ParentsOf(PairId pair) const {
  const uint32_t slot = parent_slot_[pair];
  return slot == 0 ? empty_ : parent_lists_[slot - 1];
}

std::vector<StateAction> RollbackLog::AncestorsOf(PairId pair) {
  std::vector<StateAction> out;
  AncestorsOf(pair, &out);
  return out;
}

void RollbackLog::AncestorsOf(PairId pair, std::vector<StateAction>* out) {
  out->clear();
  if (parent_slot_[pair] == 0) return;
  std::unordered_set<StateAction, StateActionHash> seen;
  auto visit = [this](PairId state) {
    uint64_t& word = visited_[state / 64];
    const uint64_t bit = uint64_t{1} << (state % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    walk_.push_back(state);
  };
  walk_.clear();
  visit(pair);
  for (size_t head = 0; head < walk_.size(); ++head) {
    for (const StateAction& sa : ParentsOf(walk_[head])) {
      if (seen.insert(sa).second) out->push_back(sa);
      visit(sa.state);
    }
  }
  for (PairId state : walk_) visited_[state / 64] = 0;
}

std::vector<StateAction> RollbackLog::AddNegative(PairId pair,
                                                  int threshold) {
  std::vector<StateAction> fired;
  for (const StateAction& sa : ParentsOf(pair)) {
    int& count = negative_counts_[sa];
    ++count;
    if (count >= threshold) {
      count = 0;
      fired.push_back(sa);
    }
  }
  return fired;
}

std::vector<PairId> RollbackLog::TakeGenerated(const StateAction& sa) {
  auto it = generated_by_.find(sa);
  if (it == generated_by_.end()) return {};
  std::vector<PairId> out = std::move(it->second);
  generated_by_.erase(it);
  // Remove `sa` from the parent lists of the pairs it generated so that
  // future negative feedback is not attributed to a generator that has
  // already been rolled back.
  for (PairId pair : out) {
    uint32_t& slot = parent_slot_[pair];
    if (slot == 0) continue;
    std::vector<StateAction>& list = parent_lists_[slot - 1];
    for (size_t i = 0; i < list.size();) {
      if (list[i] == sa) {
        list[i] = list.back();
        list.pop_back();
      } else {
        ++i;
      }
    }
    if (list.empty()) {
      free_lists_.push_back(slot);
      slot = 0;
    }
  }
  return out;
}

}  // namespace alex::core
