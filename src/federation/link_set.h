// A mutable set of owl:sameAs links between two data sets.
//
// The federated engine consults a LinkSet to bridge entities across sources;
// ALEX mutates it as feedback arrives (add explored links, remove rejected
// ones). Lookup by either side is O(1) amortized.
#ifndef ALEX_FEDERATION_LINK_SET_H_
#define ALEX_FEDERATION_LINK_SET_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "linking/link.h"

namespace alex::fed {

// Read interface over a link collection: everything federated evaluation
// needs to bridge entities. LinkSet is the canonical mutable implementation;
// the serving tier publishes immutable per-epoch views over sorted id keys
// (serving::StagedLinkSet) behind the same interface. Implementations must
// return RightsOf/LeftsOf in ascending lexicographic order so query results
// are independent of the physical representation.
class LinkView {
 public:
  virtual ~LinkView() = default;

  virtual bool Contains(const std::string& left,
                        const std::string& right) const = 0;
  // Counterparts of a left-side / right-side entity, sorted ascending.
  virtual std::vector<std::string> RightsOf(const std::string& left) const = 0;
  virtual std::vector<std::string> LeftsOf(const std::string& right) const = 0;
};

class LinkSet : public LinkView {
 public:
  LinkSet() = default;

  // Adds `link`; returns true if it was new. Keeps the higher score when the
  // same IRI pair is re-added.
  bool Add(const linking::Link& link);

  // Removes the link with this IRI pair; returns true if it existed.
  bool Remove(const std::string& left, const std::string& right);

  bool Contains(const std::string& left,
                const std::string& right) const override;

  // Counterparts of a left-side / right-side entity.
  std::vector<std::string> RightsOf(
      const std::string& left) const override;
  std::vector<std::string> LeftsOf(
      const std::string& right) const override;

  size_t size() const { return links_.size(); }
  bool empty() const { return links_.empty(); }

  // Snapshot of all links (unspecified order).
  std::vector<linking::Link> All() const;

 private:
  std::unordered_map<std::string, std::unordered_map<std::string, double>>
      by_left_;  // left -> right -> score
  std::unordered_map<std::string, std::unordered_set<std::string>>
      by_right_;  // right -> lefts
  std::unordered_set<linking::Link, linking::LinkHash> links_;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_LINK_SET_H_
