#include "serving/serving_engine.h"

#include <utility>

namespace alex::serving {

ServingEngine::ServingEngine(ServingOptions options,
                             std::span<const linking::Link> initial_links)
    : options_(std::move(options)),
      federation_(std::make_shared<fed::Federation>(options_.sources,
                                                    options_.fault_profile)),
      retired_(std::make_shared<std::atomic<uint64_t>>(0)) {
  federation_->set_resilience(options_.resilience);
  // size() builds a store's lazy indexes; every later read only reads them.
  for (const rdf::TripleStore* source : options_.sources) {
    (void)source->size();
  }
  if (options_.use_plan_cache) {
    plan_cache_ = std::make_shared<sparql::PlanCache>();
  }
  for (const linking::Link& link : initial_links) StageLink(link, true);
  Publish();
}

void ServingEngine::StageLink(const linking::Link& link, bool added) {
  staged_.Stage(link, added);
}

std::shared_ptr<const EpochSnapshot> ServingEngine::Freeze() {
  EpochSnapshot::Components parts;
  parts.epoch = next_epoch_++;
  parts.federation = federation_;
  parts.retired_counter = retired_;

  // Order matters: Publish clears the staged changes the IRIs come from.
  const std::vector<std::string> delta_iris = staged_.EpochDeltaIris();
  parts.links = staged_.Publish();

  if (options_.use_query_cache) {
    std::shared_ptr<const EpochSnapshot> parent = current_.Load();
    if (flush_query_cache_) {
      // A source ingest invalidated results wholesale: new triples add
      // answers to queries that never consulted the new IRIs, so the
      // consulted-set delta subtraction cannot identify the stale entries.
      // Start cold; steady-state epochs repopulate it.
      parts.cache = std::make_shared<fed::FederatedQueryCache>();
      flush_query_cache_ = false;
    } else if (parent != nullptr && parent->cache() != nullptr) {
      // Carry the parent epoch's still-exact results forward: clone minus
      // the entries that consulted an IRI of the staged delta.
      parts.cache = std::make_shared<fed::FederatedQueryCache>(
          *parent->cache(), delta_iris);
    } else {
      parts.cache = std::make_shared<fed::FederatedQueryCache>();
    }
  }
  parts.plan_cache = plan_cache_;
  return std::make_shared<const EpochSnapshot>(std::move(parts));
}

std::shared_ptr<const EpochSnapshot> ServingEngine::Publish() {
  std::shared_ptr<const EpochSnapshot> snapshot = Freeze();
  // The RCU swap: readers that already pinned the old epoch keep it alive
  // through their own reference; new pins see the new epoch. The old
  // snapshot retires when its last reference (pin or caller-retained)
  // drops.
  current_.Store(snapshot);
  epochs_published_.fetch_add(1, std::memory_order_relaxed);
  return snapshot;
}

void ServingEngine::NoteSourceIngest() { flush_query_cache_ = true; }

std::shared_ptr<const EpochSnapshot> ServingEngine::Pin() const {
  return current_.Load();
}

Result<fed::FederatedResult> ServingEngine::ExecuteText(
    const std::string& query_text, const fed::FederatedOptions& options,
    std::shared_ptr<const EpochSnapshot>* pinned_out) {
  const uint64_t readers =
      active_readers_.fetch_add(1, std::memory_order_acq_rel) + 1;
  uint64_t seen_max = max_readers_.load(std::memory_order_relaxed);
  while (readers > seen_max && !max_readers_.compare_exchange_weak(
                                   seen_max, readers,
                                   std::memory_order_relaxed)) {
  }
  std::shared_ptr<const EpochSnapshot> pinned = Pin();
  Result<fed::FederatedResult> result =
      pinned->ExecuteText(query_text, options);
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  active_readers_.fetch_sub(1, std::memory_order_acq_rel);
  if (pinned_out != nullptr) *pinned_out = std::move(pinned);
  return result;
}

ServingEngine::Stats ServingEngine::stats() const {
  Stats out;
  out.epochs_published = epochs_published_.load(std::memory_order_relaxed);
  out.snapshots_retired = retired_->load(std::memory_order_relaxed);
  out.max_concurrent_readers = max_readers_.load(std::memory_order_relaxed);
  out.queries_served = queries_served_.load(std::memory_order_relaxed);
  out.link_merges = out.epochs_published;
  return out;
}

}  // namespace alex::serving
