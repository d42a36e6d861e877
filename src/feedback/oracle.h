// Simulated user feedback (paper §7.1, "Generating Feedback"): a feedback
// item on a candidate link is positive iff the link exists in the ground
// truth — optionally corrupted with a configurable error rate (Appendix C
// evaluates ALEX under 10% incorrect feedback).
#ifndef ALEX_FEEDBACK_ORACLE_H_
#define ALEX_FEEDBACK_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "linking/link.h"

namespace alex::feedback {

// The curated set of correct links between the two data sets.
class GroundTruth {
 public:
  GroundTruth() = default;
  explicit GroundTruth(const std::vector<linking::Link>& links) {
    for (const linking::Link& link : links) Add(link);
  }

  void Add(linking::Link link) { links_.insert(std::move(link)); }
  bool Contains(const linking::Link& link) const {
    return links_.count(link) > 0;
  }
  size_t size() const { return links_.size(); }

  const std::unordered_set<linking::Link, linking::LinkHash>& links() const {
    return links_;
  }

 private:
  std::unordered_set<linking::Link, linking::LinkHash> links_;
};

// Uniform double in [0, 1) from (seed, link, k): a pure hash, so a flip
// drawn from it depends on what is judged, never on which thread judges it
// or in what order. The oracle's k-th answer on a link and the simulated
// users' votes (eval/vote_driven.h, serving/serving_loop.h) flip by it.
double HashToUnit(uint64_t seed, const linking::Link& link, uint64_t k);

// A feedback oracle with an error rate: with probability `error_rate` the
// correct feedback is flipped (approve a wrong answer / reject a correct
// one).
//
// Thread-safe and interleaving-independent: the flip for the k-th query of
// a given link is a pure hash of (seed, link, k), not a draw from a shared
// RNG stream. Concurrent partition episodes may interleave queries to
// DIFFERENT links in any order without changing any answer — each link's
// queries happen in a deterministic order because every link belongs to
// exactly one partition (or to the extras shard).
class Oracle {
 public:
  // `truth` must outlive the oracle.
  Oracle(const GroundTruth* truth, double error_rate, uint64_t seed)
      : truth_(truth), error_rate_(error_rate), seed_(seed) {}

  // Feedback for one candidate link.
  bool Feedback(const linking::Link& link);

  size_t items() const { return items_.load(std::memory_order_relaxed); }
  size_t errors() const { return errors_.load(std::memory_order_relaxed); }

 private:
  const GroundTruth* truth_;
  double error_rate_;
  uint64_t seed_;
  std::mutex mu_;
  // Per-link query counters (k of the next query), guarded by mu_. Only
  // touched when error_rate_ > 0.
  std::unordered_map<linking::Link, uint64_t, linking::LinkHash>
      draw_counts_;
  std::atomic<size_t> items_{0};
  std::atomic<size_t> errors_{0};
};

}  // namespace alex::feedback

#endif  // ALEX_FEEDBACK_ORACLE_H_
