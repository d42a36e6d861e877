#include "rdf/iri_index.h"

#include <functional>

#include "common/logging.h"

namespace alex::rdf {
namespace {

uint64_t Hash(std::string_view iri) {
  return std::hash<std::string_view>{}(iri);
}

uint64_t Slot(uint64_t hash, uint32_t id) {
  return hash >> 32 << 32 | (uint64_t{id} + 1);
}
uint32_t HashTag(uint64_t value) { return static_cast<uint32_t>(value >> 32); }
uint32_t Low(uint64_t value) { return static_cast<uint32_t>(value); }

}  // namespace

size_t IriIndex::Probe(std::string_view iri, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const uint64_t slot = slots_[s];
    if (slot == 0 ||
        (HashTag(slot) == HashTag(hash) && *iris_[Low(slot) - 1] == iri)) {
      return s;
    }
  }
}

uint32_t IriIndex::Find(std::string_view iri) const {
  const uint64_t slot = slots_[Probe(iri, Hash(iri))];
  return slot == 0 ? kNone : Low(slot) - 1;
}

uint32_t IriIndex::Intern(const std::string& iri) {
  if (2 * (iris_.size() + 1) > slots_.size()) {
    // Keep the load at most one half: double the table and re-place every
    // id (all distinct, so each probe ends on an empty slot).
    slots_.assign(2 * slots_.size(), 0);
    for (uint32_t id = 0; id < iris_.size(); ++id) {
      const uint64_t hash = Hash(*iris_[id]);
      slots_[Probe(*iris_[id], hash)] = Slot(hash, id);
    }
  }
  const uint64_t hash = Hash(iri);
  uint64_t& slot = slots_[Probe(iri, hash)];
  if (slot != 0) return Low(slot) - 1;
  ALEX_CHECK(iris_.size() < kNone) << "IRI index full";
  const auto id = static_cast<uint32_t>(iris_.size());
  storage_->push_back(iri);
  iris_.push_back(&storage_->back());
  slot = Slot(hash, id);
  return id;
}

}  // namespace alex::rdf
