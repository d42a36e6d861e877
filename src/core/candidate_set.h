// The set of candidate links of one partition, as PairIds into that
// partition's FeatureSpace. Supports O(1) add / remove / contains and O(1)
// uniform random sampling (the feedback oracle draws random candidate
// links, paper §7.1).
//
// PairIds are dense (0 .. space size - 1), so every per-pair field is a
// flat array over a fixed PairId universe: 4 bytes of position and 1 byte
// of epoch delta per pair. The universe is set at construction and only
// extended by Grow (triple ingest appends PairIds); every PairId passed in
// must lie below universe().
#ifndef ALEX_CORE_CANDIDATE_SET_H_
#define ALEX_CORE_CANDIDATE_SET_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/feature_space.h"

namespace alex::core {

class CandidateSet {
 public:
  // An empty set over the PairIds [0, universe).
  explicit CandidateSet(size_t universe = 0);

  // Extends the PairId universe to [0, universe); the new ids start absent
  // and unchanged. Never shrinks. Reserves exactly, so the arrays stay at
  // their nominal bytes per pair.
  void Grow(size_t universe);
  size_t universe() const { return positions_.size(); }

  // Returns true if `pair` was not present.
  bool Add(PairId pair);
  // Returns true if `pair` was present.
  bool Remove(PairId pair);
  bool Contains(PairId pair) const { return positions_[pair] != kAbsent; }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  // Uniform random member. Must not be empty.
  PairId Sample(Rng* rng) const;

  // Unordered view of the members: insertion order, with each removal
  // moving the last member into the freed slot.
  const std::vector<PairId>& items() const { return items_; }

  // Sorted snapshot (for set-difference-based convergence checks).
  std::vector<PairId> SortedSnapshot() const;

  // Number of pairs whose membership differs from the last epoch mark
  // (construction or the last TakeEpochChanges call). An add that cancels
  // an earlier remove — or vice versa — nets to zero, so this is exactly
  // the size of the symmetric difference with the epoch-start contents,
  // maintained in O(1) per mutation instead of by snapshot + sort + diff.
  size_t EpochChangeCount() const { return changed_; }

  // Returns EpochChangeCount() and marks the current contents as the new
  // epoch baseline. O(pairs touched this epoch).
  size_t TakeEpochChanges();

  // The net changes since the epoch mark split into ascending-PairId lists
  // (added = entered the set, removed = left it), into caller-owned scratch
  // buffers (cleared first). This is the canonical delta order consumed by
  // FeatureSpace::SetLiveness and the engine's link-change observer: a pure
  // function of the membership history. O(t log t) in the t pairs touched
  // this epoch.
  void SortedEpochDelta(std::vector<PairId>* added,
                        std::vector<PairId>* removed) const;

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  // delta_ bits: the net change since the epoch mark (at most one of
  // kNetAdded / kNetRemoved), and kTouched once the pair is in touched_.
  static constexpr uint8_t kNetAdded = 1;
  static constexpr uint8_t kNetRemoved = 2;
  static constexpr uint8_t kTouched = 4;

  void BumpDelta(PairId pair, uint8_t net);

  std::vector<PairId> items_;
  // Index of each member in items_; kAbsent for non-members.
  std::vector<uint32_t> positions_;
  std::vector<uint8_t> delta_;
  // Every pair mutated since the epoch mark, once each, in first-touch
  // order; TakeEpochChanges resets exactly these.
  std::vector<PairId> touched_;
  // Pairs whose net change is non-zero (EpochChangeCount).
  size_t changed_ = 0;
};

}  // namespace alex::core

#endif  // ALEX_CORE_CANDIDATE_SET_H_
