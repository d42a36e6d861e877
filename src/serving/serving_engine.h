// Snapshot-isolated concurrent serving over a live-learning link set.
//
// The serving tier separates the two halves of a deployed ALEX instance:
//
//   * The LEARNER (single publisher thread) runs feedback episodes and
//     stages the resulting link changes as integer id pairs
//     (fed::StagedLinkSet). Nothing a reader can see changes while it
//     stages.
//   * READERS (any number of query streams) execute federated queries
//     against the current EpochSnapshot, pinned per query by one
//     spin-guarded shared_ptr copy (see EpochPivot) — no blocking locks
//     on the read hot path.
//
// Publish() merges the staged delta into a new immutable EpochSnapshot —
// links view, result cache carried forward from the parent epoch minus the
// delta-invalidated entries, one parse cache and one fed::Federation
// (the endpoints and their breaker state) shared by every epoch — and swaps
// it in with an RCU-style atomic store. Queries that pinned the
// old epoch keep running against it unperturbed; the old snapshot is
// reclaimed when its last reader drains (shared_ptr refcount = per-epoch
// reader count, so reclamation is exact: never while a reader is in
// flight, immediately after the last one leaves).
//
// Determinism: a query's answers depend only on the pinned snapshot, and a
// snapshot never changes after publication, so every answer set is
// bitwise-identical to a sequential replay against the same epoch — at any
// thread count, regardless of how executions interleave with publishes.
// The learner side is untouched by readers (they share no mutable state
// beyond thread-safe caches whose hits return byte-identical results), so
// the episode series is the same with serving on or off.
#ifndef ALEX_SERVING_SERVING_ENGINE_H_
#define ALEX_SERVING_SERVING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "federation/fault_injection.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "rdf/triple_store.h"
#include "serving/epoch_snapshot.h"
#include "sparql/plan_cache.h"

namespace alex::serving {

struct ServingOptions {
  // Immutable stores to federate over; must outlive the engine and every
  // snapshot it publishes. The constructor builds their indexes.
  std::vector<const rdf::TripleStore*> sources;
  // Carry federated results across queries and epochs (exact epoch-delta
  // invalidation at publish time).
  bool use_query_cache = true;
  // Share one parse cache (sparql::PlanCache) across epochs.
  bool use_plan_cache = true;
  // Endpoint fault model. A zero profile (the default) federates directly
  // over the stores. A non-zero profile wraps every source in a
  // fed::FaultInjectingEndpoint and runs the engines' resilient path, whose
  // breaker state, virtual clock and fault counters every epoch shares
  // (fed::Federation); its queries must then be issued one at a time, so no
  // concurrent readers.
  fed::FaultProfile fault_profile;
  // Retry/backoff and circuit-breaker configuration for the resilient path.
  fed::Resilience resilience;
};

// The epoch pivot: a shared_ptr readers copy and the publisher swaps,
// guarded by a one-word spinlock with acquire/release ordering. This is
// the same discipline libstdc++'s std::atomic<std::shared_ptr> uses
// internally (its lock bit on the refcount word — that implementation is
// not lock-free either), except the ordering here is TSan-visible: GCC
// 12's _Sp_atomic::load releases its lock bit with memory_order_relaxed,
// which ThreadSanitizer reports as a race against the publisher's swap.
// The critical section is a pointer copy plus one refcount increment — a
// handful of instructions, never blocking on I/O or allocation.
class EpochPivot {
 public:
  std::shared_ptr<const EpochSnapshot> Load() const {
    Lock();
    std::shared_ptr<const EpochSnapshot> copy = ptr_;
    Unlock();
    return copy;
  }

  void Store(std::shared_ptr<const EpochSnapshot> next) {
    Lock();
    ptr_.swap(next);
    Unlock();
    // `next` (the previous epoch) releases here, outside the critical
    // section — retirement destructors never run under the pivot lock.
  }

 private:
  void Lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
    }
  }
  void Unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<const EpochSnapshot> ptr_;
};

// Thread-safety: StageLink/Publish/NoteSourceIngest from ONE publisher
// thread; Pin/ExecuteText/stats from any thread concurrently with them.
// Under a non-zero fault profile every query (ExecuteText or a pinned
// snapshot's) runs the resilient path over the shared fed::Federation and
// must run one at a time; an overlapping one fails the Federation's check.
class ServingEngine {
 public:
  // Builds the sources' indexes (a store builds them lazily on first read,
  // which is not safe under concurrent readers), then publishes epoch 0
  // containing `initial_links`.
  ServingEngine(ServingOptions options,
                std::span<const linking::Link> initial_links);

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // -- Learner (publisher) side --------------------------------------------

  // Stages a candidate-link membership change for the NEXT epoch. Readers
  // keep seeing the current epoch until Publish.
  void StageLink(const linking::Link& link, bool added);

  // Merges the staged changes into a new EpochSnapshot and makes it current.
  // Returns the published snapshot (the caller may retain it, e.g. for
  // replay verification; retaining defers its retirement).
  std::shared_ptr<const EpochSnapshot> Publish();

  // Announces that the source stores were mutated in place by a triple
  // ingest (new triples, new entities). Epoch-delta invalidation is unsound
  // under ingest — new triples add answers to queries whose consulted set
  // never mentioned them — so the NEXT publish starts a cold federated
  // query cache instead of carrying the parent's forward. Snapshots already
  // published are NOT safe to read concurrently with the ingest itself:
  // quiesce in-flight readers of epochs that pinned the mutated stores
  // before mutating, then call this and Publish. (Pinned snapshots remain
  // valid for link-set reads; only federated execution touches the stores.)
  void NoteSourceIngest();

  // -- Reader side ---------------------------------------------------------

  // Pins the current epoch: one spin-guarded shared_ptr copy. The snapshot
  // stays valid (and immutable) for as long as the returned pointer is
  // held, no matter how many epochs are published meanwhile.
  std::shared_ptr<const EpochSnapshot> Pin() const;

  // Pins the current epoch and executes against it, recording
  // concurrent-reader accounting. When `pinned` is non-null it
  // receives the snapshot the query actually ran against (for replay
  // verification — the caller cannot learn it from a separate Pin(), which
  // could race a publish).
  Result<fed::FederatedResult> ExecuteText(
      const std::string& query_text, const fed::FederatedOptions& options = {},
      std::shared_ptr<const EpochSnapshot>* pinned = nullptr);

  struct Stats {
    uint64_t epochs_published = 0;
    // Snapshots whose last reference drained (destroyed). The current
    // snapshot and any caller-retained ones are alive, so this lags
    // epochs_published by at least one.
    uint64_t snapshots_retired = 0;
    // High-water mark of simultaneous ExecuteText calls.
    uint64_t max_concurrent_readers = 0;
    uint64_t queries_served = 0;
    // Link-store merges; every publish merges, so equals epochs_published.
    uint64_t link_merges = 0;
  };
  Stats stats() const;

  // The endpoints and their failure state, which every epoch's engine
  // shares. Publisher thread only.
  fed::Federation& federation() { return *federation_; }

 private:
  std::shared_ptr<const EpochSnapshot> Freeze();

  ServingOptions options_;
  // Shared with every snapshot, which may outlive the engine.
  std::shared_ptr<fed::Federation> federation_;
  fed::StagedLinkSet staged_;
  std::shared_ptr<sparql::PlanCache> plan_cache_;  // shared across epochs
  // Set by NoteSourceIngest; the next Freeze starts a cold query cache
  // (delta invalidation cannot see answers ADDED by new triples).
  bool flush_query_cache_ = false;
  uint64_t next_epoch_ = 0;
  // The RCU pivot: readers load, the publisher stores. Retired snapshots
  // report on retired_ (shared so a snapshot outliving the engine still has
  // somewhere to report).
  EpochPivot current_;
  std::shared_ptr<std::atomic<uint64_t>> retired_;
  std::atomic<uint64_t> epochs_published_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> active_readers_{0};
  std::atomic<uint64_t> max_readers_{0};
};

}  // namespace alex::serving

#endif  // ALEX_SERVING_SERVING_ENGINE_H_
