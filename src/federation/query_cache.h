// Federated query result cache with exact link-epoch invalidation.
//
// ALEX re-runs the same federated workload every episode, but between
// episodes only a small fraction of the candidate link set changes (the
// links staged for the next published epoch). A
// federated answer can only depend on the link set through the IRIs whose
// sameAs neighborhoods the evaluator consulted while producing it — every
// bound IRI it tried to bridge, whether or not a counterpart existed. So a
// cached result is replay-exact as long as none of its consulted IRIs
// gained or lost a link:
//
//   The evaluation is deterministic given (sources, link neighborhoods of
//   consulted IRIs). By induction over evaluator steps, if every consulted
//   IRI has an unchanged neighborhood, the re-run consults the same IRIs,
//   makes the same choices, and emits the same answers in the same order.
//   A link change on a never-consulted IRI cannot alter any step.
//
// The cache therefore keys entries by a fingerprint of (query text,
// max_rows) and indexes them by consulted IRI. Its one invalidation is the
// carry-forward constructor: publishing an epoch clones the parent epoch's
// cache minus every entry that consulted an IRI of the epoch's staged
// links, so all still-exact results carry forward instead of starting every
// epoch cold. Invalidation can only be spuriously broad (dropping a
// still-valid entry costs a re-run), never stale. Sources must be immutable
// while the cache is live.
//
// Thread-safety: the cache is shared by every query stream of a serving
// epoch, so the hot path takes a SHARED lock (concurrent lookups never
// serialize on each other) with hit/miss counters as relaxed atomics;
// Insert takes the exclusive lock. Answer payloads are shared_ptr-held so a
// Lookup result stays valid after its entry is replaced or its cache (an
// epoch's) is destroyed while the caller is still reading it.
#ifndef ALEX_FEDERATION_QUERY_CACHE_H_
#define ALEX_FEDERATION_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "federation/federated_engine.h"

namespace alex::fed {

// Fingerprint of a federated query execution request. Collisions are
// 64-bit-unlikely; a collision would serve the other query's rows, so the
// fingerprint hashes the full text, not a truncation.
uint64_t QueryFingerprint(const std::string& query_text, size_t max_rows);

class FederatedQueryCache {
 public:
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t invalidated = 0;  // entries the carry-forward dropped
  };

  FederatedQueryCache() = default;

  // Carry-forward constructor: clones `parent` (under its shared lock) and
  // then drops every entry that consulted an IRI in `invalidated_iris` (the
  // endpoints of the epoch's staged links); every other entry stays
  // replay-exact. Counters start at zero except `invalidated` (the drops).
  FederatedQueryCache(const FederatedQueryCache& parent,
                      std::span<const std::string> invalidated_iris);

  FederatedQueryCache(const FederatedQueryCache&) = delete;
  FederatedQueryCache& operator=(const FederatedQueryCache&) = delete;

  // Cached answers for `fingerprint`, or nullptr. Counts a hit or a miss.
  // The returned pointer keeps the answer vector alive independently of the
  // entry's lifetime in the cache.
  std::shared_ptr<const std::vector<FederatedAnswer>> Lookup(
      uint64_t fingerprint);

  // Stores the result of a (cache-miss) execution together with the IRIs
  // whose link neighborhoods the evaluator consulted. Replaces any previous
  // entry for the fingerprint.
  void Insert(uint64_t fingerprint, std::vector<FederatedAnswer> answers,
              const std::unordered_set<std::string>& consulted_iris);

  size_t size() const;
  // Snapshot of the hit/miss/invalidation counters.
  Stats stats() const;
  // Returns the counters accumulated since the last TakeStats() and resets
  // them (entries are kept); used for per-episode accounting.
  Stats TakeStats();

 private:
  struct Entry {
    std::shared_ptr<const std::vector<FederatedAnswer>> answers;
    std::vector<std::string> consulted;  // for inverted-index cleanup
  };

  // mu_ must be held exclusively.
  void EraseLocked(uint64_t fingerprint);
  // Drops every entry that consulted `iri`; mu_ must be held exclusively.
  void InvalidateIriLocked(const std::string& iri);

  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  // IRI -> fingerprints of entries that consulted it.
  std::unordered_map<std::string, std::unordered_set<uint64_t>> by_iri_;
  // Counters live outside the map state so the shared-lock hot path can
  // bump them without upgrading to the exclusive lock.
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> invalidated_{0};
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_QUERY_CACHE_H_
