// Link types shared by the automatic linkers, the federation layer, and the
// ALEX core.
//
// A Link is an owl:sameAs assertion between an entity of the "left" data set
// and an entity of the "right" data set, identified by their IRIs. Scores
// come from the automatic linking algorithm (PARIS assigns probabilities);
// links added by ALEX exploration carry score 1.0.
#ifndef ALEX_LINKING_LINK_H_
#define ALEX_LINKING_LINK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace alex::linking {

struct Link {
  std::string left;   // IRI in the left data set
  std::string right;  // IRI in the right data set
  double score = 1.0;

  friend bool operator==(const Link& a, const Link& b) {
    return a.left == b.left && a.right == b.right;
  }
  // One three-way comparison per side: shared IRI prefixes are walked once.
  friend bool operator<(const Link& a, const Link& b) {
    const int left = a.left.compare(b.left);
    return left != 0 ? left < 0 : a.right.compare(b.right) < 0;
  }
};

// Hash over the IRI pair (score is not part of link identity).
struct LinkHash {
  size_t operator()(const Link& link) const {
    size_t h1 = std::hash<std::string>{}(link.left);
    size_t h2 = std::hash<std::string>{}(link.right);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};

// The IRI of the owl:sameAs predicate.
inline constexpr const char kOwlSameAs[] =
    "http://www.w3.org/2002/07/owl#sameAs";

}  // namespace alex::linking

#endif  // ALEX_LINKING_LINK_H_
