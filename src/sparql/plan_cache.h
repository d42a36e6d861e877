// Caches parsed queries keyed by query text.
//
// The episode loop and the serving tier re-issue the same query texts epoch
// after epoch, and the federated engine parses each one through this cache
// (FederatedEngine::set_plan_cache): parsing is deterministic, so it is done
// once per distinct text and reused. Federated queries do not run on
// compiled plans, so the cache holds parses only.
//
// Returned pointers stay valid until destruction (entries are
// heap-allocated and never evicted). All methods are thread-safe, and the
// steady-state path — the text was parsed before — takes only a SHARED
// lock, so the many query streams of a serving epoch never serialize on
// each other just to reuse a parse. Only a miss takes the exclusive lock.
// Because entries are never evicted and a parsed Query is never mutated
// after creation, a pointer handed out under the shared lock stays stable.
// The cache never changes *what* a query returns, only whether parse work
// is repeated, so cached and uncached runs are bitwise identical.
#ifndef ALEX_SPARQL_PLAN_CACHE_H_
#define ALEX_SPARQL_PLAN_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "sparql/algebra.h"

namespace alex::sparql {

class PlanCache {
 public:
  struct Stats {
    size_t parse_hits = 0;
    size_t parse_misses = 0;
    // Always 0: the cache compiles no plans. Kept for readers of the
    // counters that report parse and plan traffic together.
    size_t plan_hits = 0;
    size_t plan_misses = 0;
  };

  // Returns the parsed form of `text`, parsing at most once per distinct
  // text. Parse errors are cached too (repeating a bad query is cheap).
  Result<const Query*> GetParsed(const std::string& text);

  // Returns counters accumulated since the last TakeStats() and resets
  // them.
  Stats TakeStats();
  // Snapshot of the counters without resetting.
  Stats stats() const;

  size_t size() const;

 private:
  struct Entry {
    Status parse_status;  // OK iff `query` is valid
    Query query;
  };

  // The entry's parsed query, or its cached parse error.
  static Result<const Query*> Parsed(const Entry& entry);

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  // Counters are atomics so the shared-lock fast path can bump them without
  // upgrading to the exclusive lock.
  std::atomic<size_t> parse_hits_{0};
  std::atomic<size_t> parse_misses_{0};
};

}  // namespace alex::sparql

#endif  // ALEX_SPARQL_PLAN_CACHE_H_
