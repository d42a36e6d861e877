// One immutable published epoch of the serving tier.
//
// An EpochSnapshot bundles everything a query needs to run against one
// consistent point of the learning timeline: the frozen link view published
// at an episode boundary, the per-epoch federated result cache (cloned from
// the parent epoch minus the entries the epoch delta invalidated), the
// SPARQL parse cache and the fed::Federation (endpoints and breaker
// state) shared across epochs, and a FederatedEngine wired over all of
// them. Once constructed it never changes, so any number of
// reader threads execute against it without locks; the caches it holds are
// internally thread-safe.
//
// Lifetime IS the reclamation protocol: snapshots are held only through
// shared_ptr. The ServingEngine's atomic current-snapshot pointer holds one
// reference; every in-flight query pins another. Publishing a new epoch
// swaps the current pointer, after which the old snapshot drains — it is
// destroyed exactly when its last in-flight reader releases it, never
// earlier (no reader can observe a freed epoch) and never later (no
// grace-period delay). The destructor reports the retirement on the shared
// counter, which outlives both the snapshot and, if need be, the engine.
#ifndef ALEX_SERVING_EPOCH_SNAPSHOT_H_
#define ALEX_SERVING_EPOCH_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "federation/query_cache.h"
#include "sparql/plan_cache.h"

namespace alex::serving {

class EpochSnapshot {
 public:
  struct Components {
    uint64_t epoch = 0;
    // The frozen link view (fed::StagedLinkSet::Publish output). Required.
    std::shared_ptr<const fed::LinkView> links;
    // Per-epoch result cache; may be null (caching off).
    std::shared_ptr<fed::FederatedQueryCache> cache;
    // Parse cache, typically SHARED with other epochs; may be null.
    std::shared_ptr<sparql::PlanCache> plan_cache;
    // The endpoints over immutable stores, with their failure state,
    // typically SHARED with other epochs. Required.
    std::shared_ptr<fed::Federation> federation;
    // Bumped once by the destructor; may be null.
    std::shared_ptr<std::atomic<uint64_t>> retired_counter;
  };

  explicit EpochSnapshot(Components components);
  ~EpochSnapshot();

  EpochSnapshot(const EpochSnapshot&) = delete;
  EpochSnapshot& operator=(const EpochSnapshot&) = delete;

  // Executes a federated SELECT against this epoch. Safe to call
  // concurrently from any number of threads; results are bitwise-identical
  // to a sequential replay against the same snapshot.
  Result<fed::FederatedResult> ExecuteText(
      const std::string& query_text,
      const fed::FederatedOptions& options = {}) const;

  uint64_t epoch() const { return components_.epoch; }
  const fed::LinkView& links() const { return *components_.links; }
  fed::FederatedQueryCache* cache() const { return components_.cache.get(); }
  sparql::PlanCache* plan_cache() const {
    return components_.plan_cache.get();
  }

 private:
  Components components_;
  fed::FederatedEngine engine_;  // wired over components_ at construction
};

}  // namespace alex::serving

#endif  // ALEX_SERVING_EPOCH_SNAPSHOT_H_
