#include "sparql/plan_cache.h"

#include <mutex>
#include <utility>

#include "sparql/parser.h"

namespace alex::sparql {

Result<const Query*> PlanCache::Parsed(const Entry& entry) {
  if (!entry.parse_status.ok()) return entry.parse_status;
  return &entry.query;
}

Result<const Query*> PlanCache::GetParsed(const std::string& text) {
  {
    // Fast path: the text was parsed before. Entries are heap-allocated,
    // never evicted, and the parsed Query is never mutated after creation,
    // so the pointer stays valid after the shared lock is dropped.
    std::shared_lock lock(mu_);
    auto it = entries_.find(text);
    if (it != entries_.end()) {
      parse_hits_.fetch_add(1, std::memory_order_relaxed);
      return Parsed(*it->second);
    }
  }
  std::unique_lock lock(mu_);
  // Re-check under the exclusive lock: another thread may have parsed the
  // text between the two lock acquisitions.
  auto it = entries_.find(text);
  if (it != entries_.end()) {
    parse_hits_.fetch_add(1, std::memory_order_relaxed);
    return Parsed(*it->second);
  }
  parse_misses_.fetch_add(1, std::memory_order_relaxed);
  auto entry = std::make_unique<Entry>();
  Result<Query> parsed = ParseQuery(text);
  if (parsed.ok()) {
    entry->query = std::move(*parsed);
  } else {
    entry->parse_status = parsed.status();
  }
  const Entry& inserted = *entry;
  entries_.emplace(text, std::move(entry));
  return Parsed(inserted);
}

PlanCache::Stats PlanCache::TakeStats() {
  Stats out;
  out.parse_hits = parse_hits_.exchange(0, std::memory_order_relaxed);
  out.parse_misses = parse_misses_.exchange(0, std::memory_order_relaxed);
  return out;
}

PlanCache::Stats PlanCache::stats() const {
  Stats out;
  out.parse_hits = parse_hits_.load(std::memory_order_relaxed);
  out.parse_misses = parse_misses_.load(std::memory_order_relaxed);
  return out;
}

size_t PlanCache::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

}  // namespace alex::sparql
