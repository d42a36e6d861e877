#include "serving/epoch_snapshot.h"

#include <utility>

namespace alex::serving {

EpochSnapshot::EpochSnapshot(Components components)
    : components_(std::move(components)),
      engine_(components_.federation, components_.links.get()) {
  if (components_.cache != nullptr) engine_.set_cache(components_.cache.get());
  if (components_.plan_cache != nullptr) {
    engine_.set_plan_cache(components_.plan_cache.get());
  }
}

EpochSnapshot::~EpochSnapshot() {
  if (components_.retired_counter != nullptr) {
    components_.retired_counter->fetch_add(1, std::memory_order_relaxed);
  }
}

Result<fed::FederatedResult> EpochSnapshot::ExecuteText(
    const std::string& query_text, const fed::FederatedOptions& options) const {
  return engine_.ExecuteText(query_text, options);
}

}  // namespace alex::serving
