// The owl:sameAs links between two data sets, staged and published as
// immutable per-epoch views keyed by dictionary ids.
//
// The federated engine reads a LinkView to bridge entities across sources.
// The learner changes candidate links at every episode boundary while
// in-flight queries must keep seeing the epoch they started on, so links
// only ever change by staging adds/removes into a StagedLinkSet and
// publishing them: Publish() freezes the staged changes into a new
// immutable LinkView that readers pin.
//
// The publisher interns each IRI once into a dense id (rdf::IriIndex, the
// table the vote aggregator and the engine's verdict lookup use too), so
// staging appends one integer key per change and publishing never hashes,
// copies or sorts an IRI string. Publish nets the epoch's changes (the last
// staged state of a pair wins), merges them into the previous epoch's
// sorted (left, right) key array in one linear pass, and derives the
// (right, left) array by a counting sort. Each view carries its own
// immutable copy of the IRI lookup, so readers never touch publisher
// state, and it returns neighbours in ascending lexicographic order, so
// query results are independent of the interning order (asserted by
// tests/federation against a brute-force set of IRI pairs). Interned IRIs
// are never dropped; the stores' entities bound them.
//
// Thread-safety: Stage, EpochDeltaIris and Publish happen on one publisher
// thread; published views are immutable and safe to read from any thread.
#ifndef ALEX_FEDERATION_LINK_SET_H_
#define ALEX_FEDERATION_LINK_SET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linking/link.h"
#include "rdf/iri_index.h"

namespace alex::fed {

// One published epoch of links: sorted (left, right) and (right, left) id
// keys with per-id run offsets, over an immutable copy of the IRI index.
// Links are directional: (a, x) links left entity a to right entity x.
class LinkView {
 public:
  // No links.
  LinkView() : LinkView(rdf::IriIndex(), {}) {}

  bool Contains(const std::string& left, const std::string& right) const;
  // Counterparts of a left-side / right-side entity, sorted ascending.
  std::vector<std::string> RightsOf(const std::string& left) const;
  std::vector<std::string> LeftsOf(const std::string& right) const;

  size_t size() const { return by_left_.size(); }

 private:
  friend class StagedLinkSet;

  LinkView(rdf::IriIndex iris, std::vector<uint64_t> by_left);

  // The IRIs keyed under `iri` in `keys`, in ascending lexicographic order
  // (ids follow interning order, not IRI order).
  std::vector<std::string> Neighbors(const std::vector<uint64_t>& keys,
                                     const std::vector<size_t>& start,
                                     const std::string& iri) const;

  const rdf::IriIndex iris_;
  const std::vector<uint64_t> by_left_;  // left << 32 | right, ascending
  const std::vector<size_t> left_start_;
  const std::vector<size_t> right_start_;
  std::vector<uint64_t> by_right_;  // right << 32 | left, ascending
};

class StagedLinkSet {
 public:
  // Starts empty; stage the initial links and Publish for the epoch-0 view.
  StagedLinkSet();

  // Stages a membership change relative to the last published view. The
  // last change staged for a pair before Publish decides its membership, so
  // add-then-remove cancels out.
  void Stage(const linking::Link& link, bool added);

  // The distinct IRIs of every link staged since the previous Publish (both
  // endpoints, cancelled pairs included), in ascending order: exactly the
  // IRIs whose cached federated answers the next epoch must invalidate.
  // Call before Publish, which clears the staged changes.
  std::vector<std::string> EpochDeltaIris() const;

  // Merges the staged changes into a new immutable view. Previously
  // returned views stay valid and unchanged (readers pin them).
  std::shared_ptr<const LinkView> Publish();

 private:
  struct Change {
    uint64_t key;  // left id << 32 | right id
    bool added;
  };

  rdf::IriIndex iris_;
  std::vector<Change> staged_;  // since the last Publish, in staging order
  std::shared_ptr<const LinkView> published_;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_LINK_SET_H_
