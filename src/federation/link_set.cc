#include "federation/link_set.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace alex::fed {
namespace {

uint64_t Key(uint32_t high, uint32_t low) {
  return uint64_t{high} << 32 | low;
}
uint32_t High(uint64_t key) { return static_cast<uint32_t>(key >> 32); }
uint32_t Low(uint64_t key) { return static_cast<uint32_t>(key); }

// Where each id's run starts in `keys`, ordered by `id_of`: the run of id i
// is [start[i], start[i + 1]).
std::vector<size_t> Starts(const std::vector<uint64_t>& keys, size_t ids,
                           uint32_t (*id_of)(uint64_t)) {
  std::vector<size_t> start(ids + 1, 0);
  for (const uint64_t key : keys) ++start[id_of(key) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  return start;
}

}  // namespace

LinkView::LinkView(rdf::IriIndex iris, std::vector<uint64_t> by_left)
    : iris_(std::move(iris)),
      by_left_(std::move(by_left)),
      left_start_(Starts(by_left_, iris_.size(), High)),
      right_start_(Starts(by_left_, iris_.size(), Low)),
      by_right_(by_left_.size()) {
  // Counting sort on the right id; taking by_left_ in order keeps each
  // right's lefts ascending.
  std::vector<size_t> next = right_start_;
  for (const uint64_t key : by_left_) {
    by_right_[next[Low(key)]++] = Key(Low(key), High(key));
  }
}

bool LinkView::Contains(const std::string& left,
                        const std::string& right) const {
  const uint32_t l = iris_.Find(left);
  const uint32_t r = iris_.Find(right);
  return l != rdf::IriIndex::kNone && r != rdf::IriIndex::kNone &&
         std::binary_search(by_left_.begin(), by_left_.end(), Key(l, r));
}

std::vector<std::string> LinkView::RightsOf(const std::string& left) const {
  return Neighbors(by_left_, left_start_, left);
}

std::vector<std::string> LinkView::LeftsOf(const std::string& right) const {
  return Neighbors(by_right_, right_start_, right);
}

std::vector<std::string> LinkView::Neighbors(
    const std::vector<uint64_t>& keys, const std::vector<size_t>& start,
    const std::string& iri) const {
  std::vector<std::string> out;
  const uint32_t id = iris_.Find(iri);
  if (id == rdf::IriIndex::kNone) return out;
  for (size_t k = start[id]; k < start[id + 1]; ++k) {
    out.push_back(iris_.iri(Low(keys[k])));
  }
  std::sort(out.begin(), out.end());
  return out;
}

StagedLinkSet::StagedLinkSet() : published_(std::make_shared<LinkView>()) {}

void StagedLinkSet::Stage(const linking::Link& link, bool added) {
  // Interned in a fixed order (argument evaluation order is unspecified).
  const uint32_t left = iris_.Intern(link.left);
  staged_.push_back(Change{Key(left, iris_.Intern(link.right)), added});
}

std::vector<std::string> StagedLinkSet::EpochDeltaIris() const {
  std::vector<bool> seen(iris_.size(), false);
  std::vector<std::string> out;
  for (const Change& change : staged_) {
    for (const uint32_t id : {High(change.key), Low(change.key)}) {
      if (!seen[id]) out.push_back(iris_.iri(id));
      seen[id] = true;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::shared_ptr<const LinkView> StagedLinkSet::Publish() {
  // Net the epoch: after a stable sort by key, the last change of each run
  // is the pair's final state.
  std::stable_sort(
      staged_.begin(), staged_.end(),
      [](const Change& a, const Change& b) { return a.key < b.key; });
  const std::vector<uint64_t>& previous = published_->by_left_;
  std::vector<uint64_t> by_left;
  by_left.reserve(previous.size() + staged_.size());
  auto kept = previous.begin();
  for (size_t i = 0; i < staged_.size(); ++i) {
    const uint64_t key = staged_[i].key;
    if (i + 1 < staged_.size() && staged_[i + 1].key == key) continue;
    while (kept != previous.end() && *kept < key) by_left.push_back(*kept++);
    if (kept != previous.end() && *kept == key) ++kept;
    if (staged_[i].added) by_left.push_back(key);
  }
  by_left.insert(by_left.end(), kept, previous.end());
  staged_.clear();
  // The view's constructor is private: make_shared cannot reach it.
  published_.reset(new LinkView(iris_, std::move(by_left)));
  return published_;
}

}  // namespace alex::fed
