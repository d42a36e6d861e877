// IRI <-> dense 32-bit id, the one string-to-id table of the link layers.
//
// Links cross the layers as IRI strings (linking::Link). The serving link
// store (federation/link_set.h), the vote aggregator (feedback/aggregator.h)
// and the engine's verdict lookup (core/alex_engine.h) each intern the IRIs
// they see once and then hash, compare, sort and store integers, decoding
// strings only for output — RDF-3X dictionary-encodes its terms the same
// way. Ids are dense in interning order, so per-IRI data sits in plain
// vectors indexed by id.
//
// The table is open addressing over the ids. The strings live in
// append-only storage that every copy shares and where they never move, so
// a copy taken at one point stays a valid immutable lookup while the
// original interns more (the link store hands such copies to readers).
// Interned IRIs are never dropped: each user interns only IRIs of entities
// it links or is voted on, which the data sets bound.
//
// Thread-safety: Find on a table no one is interning into is safe from any
// thread; Intern needs exclusive access to the table, and two copies must
// not intern concurrently (they append to the same storage).
#ifndef ALEX_RDF_IRI_INDEX_H_
#define ALEX_RDF_IRI_INDEX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace alex::rdf {

class IriIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // The id of `iri`, or kNone.
  uint32_t Find(std::string_view iri) const;
  // The id of `iri`, interning it if new.
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

}  // namespace alex::rdf

#endif  // ALEX_RDF_IRI_INDEX_H_
