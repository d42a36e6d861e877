// Epoch-versioned staging of link-set changes, keyed by dictionary ids.
//
// The learner mutates candidate links at every episode boundary while
// in-flight queries must keep seeing the epoch they started on. The learner
// stages adds/removes into a StagedLinkSet; Publish() freezes them into a
// new immutable LinkView that readers pin.
//
// The publisher interns each IRI once into a dense id, so staging appends
// one integer key per change and publishing never hashes, copies or sorts
// an IRI string (RDF-3X dictionary-encodes its terms the same way). Publish
// nets the epoch's changes (the last staged state of a pair wins), merges
// them into the previous epoch's sorted (left, right) key array in one
// linear pass, and derives the (right, left) array by a counting sort. Each
// view carries its own immutable copy of the IRI lookup, so readers never
// touch publisher state, and answers byte-identically to a LinkSet
// materialized from the same links, neighbor order included (asserted by
// tests/serving). Interned IRIs are never dropped; the stores' entities
// bound them.
//
// Thread-safety: Stage, EpochDeltaIris and Publish happen on one publisher
// thread; published views are immutable and safe to read from any thread.
#ifndef ALEX_SERVING_STAGED_LINK_SET_H_
#define ALEX_SERVING_STAGED_LINK_SET_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "federation/link_set.h"
#include "linking/link.h"

namespace alex::serving {

// IRI <-> dense 32-bit id, by open addressing over the ids. The strings
// live in append-only storage that every copy shares and where they never
// move, so a copy taken at publish stays a valid immutable lookup while the
// publisher interns more.
class IriIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // The id of `iri`, or kNone.
  uint32_t Find(std::string_view iri) const;
  // The id of `iri`, interning it if new. Publisher only.
  uint32_t Intern(const std::string& iri);

  const std::string& iri(uint32_t id) const { return *iris_[id]; }
  size_t size() const { return iris_.size(); }

 private:
  // The slot holding `iri`, or the empty slot where it would go.
  size_t Probe(std::string_view iri, uint64_t hash) const;

  std::shared_ptr<std::deque<std::string>> storage_ =
      std::make_shared<std::deque<std::string>>();
  std::vector<const std::string*> iris_;  // id -> IRI in storage_
  // Power-of-two table; each slot is (hash >> 32) << 32 | (id + 1), and 0
  // marks an empty slot.
  std::vector<uint64_t> slots_ = std::vector<uint64_t>(64, 0);
};

class IdLinkView;

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
  std::shared_ptr<const fed::LinkView> Publish();

 private:
  struct Change {
    uint64_t key;  // left id << 32 | right id
    bool added;
  };

  IriIndex iris_;
  std::vector<Change> staged_;  // since the last Publish, in staging order
  std::shared_ptr<const IdLinkView> published_;
};

}  // namespace alex::serving

#endif  // ALEX_SERVING_STAGED_LINK_SET_H_
