#include "federation/query_cache.h"

#include <mutex>

namespace alex::fed {

uint64_t QueryFingerprint(const std::string& query_text, size_t max_rows) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a
  auto mix = [&hash](uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (unsigned char c : query_text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  mix(query_text.size());
  mix(static_cast<uint64_t>(max_rows));
  return hash;
}

FederatedQueryCache::FederatedQueryCache(
    const FederatedQueryCache& parent,
    std::span<const std::string> invalidated_iris) {
  {
    std::shared_lock parent_lock(parent.mu_);
    entries_ = parent.entries_;
    by_iri_ = parent.by_iri_;
  }
  // No lock needed below: nobody else can see *this during construction.
  for (const std::string& iri : invalidated_iris) InvalidateIriLocked(iri);
}

std::shared_ptr<const std::vector<FederatedAnswer>> FederatedQueryCache::Lookup(
    uint64_t fingerprint) {
  std::shared_lock lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.answers;
}

void FederatedQueryCache::Insert(
    uint64_t fingerprint, std::vector<FederatedAnswer> answers,
    const std::unordered_set<std::string>& consulted_iris) {
  std::unique_lock lock(mu_);
  EraseLocked(fingerprint);  // replace any stale entry for this fingerprint
  Entry& entry = entries_[fingerprint];
  entry.answers = std::make_shared<const std::vector<FederatedAnswer>>(
      std::move(answers));
  entry.consulted.assign(consulted_iris.begin(), consulted_iris.end());
  for (const std::string& iri : entry.consulted) {
    by_iri_[iri].insert(fingerprint);
  }
}

void FederatedQueryCache::InvalidateIriLocked(const std::string& iri) {
  auto it = by_iri_.find(iri);
  if (it == by_iri_.end()) return;
  // EraseLocked mutates by_iri_; copy the fingerprint set first.
  std::vector<uint64_t> fingerprints(it->second.begin(), it->second.end());
  for (uint64_t fingerprint : fingerprints) {
    EraseLocked(fingerprint);
    invalidated_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t FederatedQueryCache::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

FederatedQueryCache::Stats FederatedQueryCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.invalidated = invalidated_.load(std::memory_order_relaxed);
  return out;
}

FederatedQueryCache::Stats FederatedQueryCache::TakeStats() {
  Stats out;
  out.hits = hits_.exchange(0, std::memory_order_relaxed);
  out.misses = misses_.exchange(0, std::memory_order_relaxed);
  out.invalidated = invalidated_.exchange(0, std::memory_order_relaxed);
  return out;
}

void FederatedQueryCache::EraseLocked(uint64_t fingerprint) {
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return;
  for (const std::string& iri : it->second.consulted) {
    auto by = by_iri_.find(iri);
    if (by == by_iri_.end()) continue;
    by->second.erase(fingerprint);
    if (by->second.empty()) by_iri_.erase(by);
  }
  entries_.erase(it);
}

}  // namespace alex::fed
