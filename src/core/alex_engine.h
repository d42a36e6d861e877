// The ALEX engine: feedback-driven link exploration with Monte Carlo
// reinforcement learning (paper §3-§6).
//
// Usage:
//   AlexOptions options;
//   AlexEngine engine(&left_store, &right_store, options);
//   engine.Initialize(paris_links);                 // pre-processing
//   auto feedback = [&](const linking::Link& l) {   // the "user"
//     return ground_truth.Contains(l);
//   };
//   EpisodeStats stats = engine.RunEpisode(feedback);  // one episode
//
// The engine partitions the left data set round-robin (§6.2), builds one
// feature space per partition (§3.2, §6.1), and alternates policy
// evaluation (one feedback episode) with policy improvement (§4.4).
// eval::RunEpisodes (eval/experiment.h) repeats episodes until the
// candidate link set stops changing or `max_episodes` is reached.
//
// By convention the LEFT store is the larger data set (the one that is
// partitioned); callers should orient their inputs accordingly.
#ifndef ALEX_CORE_ALEX_ENGINE_H_
#define ALEX_CORE_ALEX_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/candidate_set.h"
#include "core/feature_space.h"
#include "core/feedback_sampler.h"
#include "core/mc_learner.h"
#include "core/partitioner.h"
#include "core/policy.h"
#include "core/rollback_log.h"
#include "linking/link.h"
#include "rdf/iri_index.h"
#include "rdf/triple_store.h"

namespace alex::core {

struct AlexOptions {
  // Feature space construction (θ filtering, attribute caps).
  FeatureSpaceOptions space;
  // Exploration offset around the chosen feature's score (§4.2; default
  // from §7.1).
  double step_size = 0.05;
  // Feedback items per episode (§7.1: 1000 batch mode, 10 specific
  // domains).
  size_t episode_size = 1000;
  // ε of the ε-greedy policy.
  double epsilon = 0.05;
  // Rewards translated from feedback (§4.3; negative feedback may be
  // penalized more by increasing its magnitude).
  double positive_reward = 1.0;
  double negative_reward = -1.0;
  // Optimizations (§6.3).
  bool use_blacklist = true;
  bool use_rollback = true;
  // Generalize returns across states: when a state has no policy of its
  // own yet, pick the feature with the best average return across all
  // states (instead of a uniformly random feature), with probability
  // 1 - ε. This generalizes §4.2's "ALEX can learn that this feature is
  // not distinctive and avoid exploring around it in the future" across
  // states. OFF by default: Algorithm 1 prescribes an arbitrary initial
  // action, and the paper's precision-dip-then-recover curves (Fig. 2)
  // only arise without the prior. Measured as an extension in
  // bench_ablations.
  bool use_feature_prior = false;
  // Negative feedback items on the same link before it is blacklisted.
  // 1 blacklists immediately (the paper's literal description); the default
  // of 2 tolerates isolated incorrect negative feedback (Appendix C): one
  // erroneous rejection then cannot permanently bury a correct link,
  // because exploration can re-discover it and a later positive clears the
  // strike.
  int blacklist_strikes = 2;
  // Negative feedback items attributed to one state-action pair before its
  // generated links are rolled back.
  int rollback_threshold = 3;
  // "or when a maximum number of iterations is reached" — the paper uses
  // 100 (§7.3, rollback experiment).
  int max_episodes = 100;
  // Relaxed convergence: change in candidate links below this fraction.
  double relaxed_change_fraction = 0.05;
  // Equal-size partitions of the left data set (§6.2). The paper used 27 on
  // a 64-core machine; scaled down here.
  int num_partitions = 8;
  // Live triple ingest (IngestTriples): when true, the engine folds newly
  // ingested entities into its structures incrementally — AddRights on the
  // shared right-side blocking index, one exact reverse probe per new right
  // over an index of the lefts' probe keys to find the (old left, new
  // right) candidate pairs, and per-partition FeatureSpace::Grow with
  // pending-sidecar score entries.
  // When false, every ingest epoch rebuilds the blocking index and the
  // score arenas from scratch — the O(store) baseline the differential
  // suite compares against. Both modes yield the same logical state (same
  // PairIds, same fingerprints, bitwise-identical episode series).
  bool incremental_ingest = true;
  // Prioritized feedback sampling: draw each episode's feedback links by
  // uncertainty weight (tally entropy × proximity of the pair's best
  // feature score to θ; see core/feedback_sampler.h) instead of uniformly
  // over the candidate set. OFF by default: the paper's uniform feedback
  // model (§7.1) — and every bitwise-identity baseline built on it — stays
  // the default behavior, with the prioritized path opt-in.
  bool prioritized_sampling = false;
  // Fraction of prioritized draws that remain uniform over all candidates
  // (the exploration floor of the sampler; clamped to [0, 1]).
  double sampler_uniform_mix = 0.25;
  // Floor on a candidate's uncertainty weight; keeps unanimous or
  // far-from-θ links reachable in the weighted arm too.
  double sampler_min_weight = 1e-3;
  // Worker threads (0 = one per hardware thread) for parallel feature-space
  // construction AND parallel episode execution. During Initialize the
  // left-entity loop of every partition build is sharded across these
  // workers; during RunEpisode each partition processes its feedback quota
  // on its own worker. Episode results are bitwise-identical at any thread
  // count (see DESIGN.md, "The episode loop").
  int num_threads = 0;
  uint64_t seed = 42;
};

// Per-episode statistics (also the raw material for the paper's figures).
struct EpisodeStats {
  int episode = 0;  // 1-based
  size_t feedback_items = 0;
  size_t positive_feedback = 0;
  size_t negative_feedback = 0;
  size_t links_added = 0;
  size_t links_removed = 0;
  size_t rollbacks = 0;           // rollback events fired
  size_t rolled_back_links = 0;   // links removed by rollbacks
  size_t candidate_count = 0;     // after the episode
  double change_fraction = 1.0;   // |candidates Δ prev| / max(1, |prev|)
  double seconds = 0.0;           // wall clock for the episode
  double max_partition_seconds = 0.0;  // busiest partition (§7.3)
  double avg_partition_seconds = 0.0;
  // Federated query cache traffic during the episode (query-driven loop
  // only; zero when the episode was not query-driven or no cache was used).
  size_t query_cache_hits = 0;
  size_t query_cache_misses = 0;
  // SPARQL parse-cache traffic during the episode (query-driven loop only):
  // sparql::PlanCache reusing parsed queries across epochs; it compiles no
  // plans despite the name. Zero when no cache is attached.
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  // Fault-tolerant federation accounting (query-driven loop over unreliable
  // endpoints only; all zero otherwise). Probes count endpoint attempts,
  // retries included; short circuits are probes skipped by an open breaker.
  size_t query_probes = 0;
  size_t query_retries = 0;
  size_t breaker_short_circuits = 0;
  size_t breaker_opens = 0;
  size_t breaker_half_opens = 0;
  size_t breaker_closes = 0;
  // Queries whose answer set was incomplete (failed / truncating / blocked
  // sources, deadline overruns), and provenance links that consequently
  // received no feedback this episode — the loop never trains the policy on
  // degraded evidence.
  size_t incomplete_queries = 0;
  size_t skipped_feedback = 0;
  // Serving-tier accounting (serving::RunServingExperiment only; all zero
  // otherwise). Cumulative as of this episode's boundary: epochs published
  // so far, snapshots whose last in-flight reader drained, and the
  // high-water mark of concurrent reader executions.
  size_t epochs_published = 0;
  size_t snapshots_retired = 0;
  size_t max_concurrent_readers = 0;
  // Feedback-aggregation accounting (vote-driven loops over a
  // feedback::FeedbackAggregator only; all zero otherwise). Cumulative as
  // of this episode's drain, except aggregator_pending which is the open
  // tally count right after it. Suppressed votes are minority votes inside
  // emitted verdicts plus every vote of an evicted tally.
  size_t votes_recorded = 0;
  size_t verdicts_emitted = 0;
  size_t aggregator_pending = 0;
  size_t votes_suppressed = 0;
  size_t tallies_evicted = 0;
  // Live-ingest accounting (engines driven through IngestTriples only; all
  // zero otherwise). Cumulative as of this episode's boundary: triples
  // accepted by the stores, entities that joined either side, sidecar-into-
  // CSR merges across the right blocking index and the reverse-probe index,
  // score entries parked in feature-bucket overflow sidecars, and ingest
  // epochs applied.
  size_t triples_ingested = 0;
  size_t entities_added = 0;
  size_t blocking_merges = 0;
  size_t space_overflow_pairs = 0;
  size_t ingest_epochs = 0;

  double NegativeFeedbackPercent() const {
    return feedback_items == 0
               ? 0.0
               : 100.0 * static_cast<double>(negative_feedback) /
                     static_cast<double>(feedback_items);
  }
};

// The "user": maps a candidate link to approve (true) / reject (false).
// With num_threads > 1 the engine calls this concurrently from several
// partition workers, so the callable must be thread-safe (feedback::Oracle
// is; a capture-by-reference lambda over mutable state is not unless
// synchronized).
using FeedbackFn = std::function<bool(const linking::Link&)>;

// Observes net candidate-link membership changes, called by the engine once
// per episode per changed link, on the thread that closes the episode
// (RunEpisode, EndExternalEpisode): `added` is true when the link entered
// the candidate set this episode, false when it left. The order is fixed at
// any thread count: partitions in index order, each partition's changes in
// ascending PairId, then the spaceless extras in the order they were seeded
// (Initialize, ReplaceCandidates). The Link is a scratch object reused
// across calls; copy it to keep it. Used for incremental quality evaluation
// (see eval::QualityTracker).
using LinkChangeFn = std::function<void(const linking::Link&, bool added)>;

// One partition of the search space with its own candidate links, policy,
// learner, blacklist and rollback log. Public mainly for white-box tests;
// most callers use AlexEngine.
//
// Per-pair episode state is kept in flat arrays over the space's dense
// PairIds, sized exactly from space().pair_count() at construction and
// extended by GrowSpace: 5 bytes in the candidate set, 4 bytes and a bit in
// the rollback log, and 2 bytes of feedback state here (blacklisted and
// confirmed flags, negative strikes) — under 12 bytes per scored pair.
class PartitionAlex {
 public:
  PartitionAlex(FeatureSpace space, const AlexOptions* options,
                uint64_t seed);

  PartitionAlex(PartitionAlex&&) = default;

  void AddInitialCandidate(PairId pair) {
    if (candidates_.Add(pair)) SamplerAdd(pair);
  }

  struct FeedbackOutcome {
    size_t added = 0;
    bool removed = false;
    size_t rollbacks = 0;
    size_t rolled_back_links = 0;
  };

  // Handles one feedback item on `pair` (which should currently be a
  // candidate). Positive feedback triggers an exploration action; negative
  // feedback removes the link and may fire rollbacks.
  FeedbackOutcome ProcessFeedback(PairId pair, bool positive);

  // An episode's feedback items and what they changed. Every episode's
  // counts come from Add: per partition and for the extras in RunEpisode
  // (summed in a fixed order), per ApplyLinkFeedback call in an external
  // episode.
  struct FeedbackCounts {
    size_t feedback_items = 0;
    size_t positive_feedback = 0;
    size_t negative_feedback = 0;
    size_t links_added = 0;
    size_t links_removed = 0;  // rolled-back links included
    size_t rollbacks = 0;
    size_t rolled_back_links = 0;

    // Counts one feedback item and its outcome.
    void Add(bool positive, const FeedbackOutcome& outcome);
    FeedbackCounts& operator+=(const FeedbackCounts& other);
  };

  // Runs this partition's share of one episode: BeginEpisode, then up to
  // `items` feedback draws sampled live from the partition's own candidate
  // set with the partition's own RNG (stopping early if the set empties),
  // then EndEpisode. Touches no engine state, so partitions run their
  // shares concurrently; the result depends only on this partition's
  // history, never on thread interleaving.
  void RunEpisodeItems(size_t items, const FeedbackFn& feedback,
                       FeedbackCounts* counts);

  // One feedback draw from this partition's candidates, with the
  // partition's own RNG: the prioritized uncertainty sampler when
  // AlexOptions::prioritized_sampling is on (uniform-mix floor included),
  // a uniform pick otherwise — the same single NextBounded the paper's
  // feedback model always consumed, so default-mode episode series are
  // bit-for-bit unchanged. Returns kInvalidPairId when the candidate set
  // is empty.
  PairId SampleFeedbackPair();

  // Episode lifecycle (Algorithm 1).
  void BeginEpisode();
  void EndEpisode();  // policy improvement at all states visited

  // The frontier's boundary rule, in one place: flips the liveness flags
  // of the candidate set's net epoch delta with FeatureSpace::SetLiveness
  // (new candidates leave the explorable frontier, removed ones return to
  // it), in O(changed pairs), and keeps that delta in synced_added() /
  // synced_removed(). It first lets the space fold pending ingest growth
  // into its arena (FeatureSpace::MaybeCompactArena). Called by the engine
  // at every episode boundary, BEFORE TakeEpochChanges, on a pool worker
  // when the engine has a pool (it touches only this partition). Between
  // two calls the frontier stays as of the last one: a candidate removed
  // mid-episode becomes explorable only at the next boundary. Public
  // mainly for white-box tests driving ProcessFeedback directly.
  void SyncSpaceToCandidates();

  // The net epoch delta of the last SyncSpaceToCandidates, ascending PairId:
  // pairs that became candidates, and pairs that stopped being candidates.
  const std::vector<PairId>& synced_added() const {
    return delta_added_scratch_;
  }
  const std::vector<PairId>& synced_removed() const {
    return delta_removed_scratch_;
  }

  // Extends this partition's feature space after a triple-ingest epoch (see
  // FeatureSpace::Grow; called by AlexEngine::IngestTriples on the main
  // thread, in partition order), and the per-pair arrays with it.
  FeatureSpace::GrowthResult GrowSpace(
      const rdf::TripleStore& left,
      const std::vector<rdf::TermId>& new_left_subjects,
      const std::vector<CandidatePair>* old_left_pairs,
      size_t old_right_count, FeatureCatalog* catalog, bool rebuild_indexes);

  // Persistence hooks (see core/engine_state.h). ClearCandidates also
  // marks every pair of the space live again (the whole space becomes the
  // explorable frontier), since the per-pair delta trail is lost with the
  // set.
  void ClearCandidates() {
    candidates_ = CandidateSet(space_.pair_count());
    space_.MarkAllLive();
    sampler_.Clear();
  }
  void RestoreBlacklistEntry(PairId pair) {
    pair_state_[pair].flags |= kBlacklisted;
  }
  void RestorePolicyEntry(PairId state, FeatureId action) {
    policy_.SetGreedy(state, action);
  }
  void RestoreReturnEntry(const StateAction& sa, double sum,
                          uint64_t count) {
    learner_.RestoreReturn(sa, sum, count);
  }

  const FeatureSpace& space() const { return space_; }
  const CandidateSet& candidates() const { return candidates_; }
  CandidateSet& mutable_candidates() { return candidates_; }
  const EpsilonGreedyPolicy& policy() const { return policy_; }
  const McLearner& learner() const { return learner_; }
  // Blacklisted pairs in ascending PairId order (O(space); for export and
  // tests).
  std::vector<PairId> blacklist() const;
  bool IsBlacklisted(PairId pair) const {
    return (pair_state_[pair].flags & kBlacklisted) != 0;
  }
  const FeedbackSampler& sampler() const { return sampler_; }
  Rng* rng() { return &rng_; }

 private:
  // Best feature score of `pair` (the sampler's proximity input).
  double TopFeatureScore(PairId pair) const;
  // Sampler maintenance shims; no-ops when prioritized sampling is off, so
  // the default path pays nothing. Called at every candidate mutation the
  // engine performs (AddInitialCandidate, exploration adds, negative
  // removals, rollbacks); candidates mutated behind the engine's back via
  // mutable_candidates() are not tracked — prioritized runs must mutate
  // through engine paths only.
  void SamplerAdd(PairId pair) {
    if (options_->prioritized_sampling) {
      sampler_.Add(pair, TopFeatureScore(pair));
    }
  }
  void SamplerRemove(PairId pair) {
    if (options_->prioritized_sampling) sampler_.Remove(pair);
  }

  // Negative feedback on `pair`: counts a strike and reports whether the
  // pair has now reached AlexOptions::blacklist_strikes.
  bool AddStrike(PairId pair);
  // Positive feedback on `pair`: confirms it and clears its strikes.
  void Confirm(PairId pair);

  // PairState::flags bits.
  static constexpr uint8_t kBlacklisted = 1;
  // The pair's latest feedback was positive (rollbacks keep it).
  static constexpr uint8_t kConfirmed = 2;
  // A strike count that reaches kStrikeSpill continues exactly in
  // strike_spill_ (only possible when blacklist_strikes exceeds it).
  static constexpr uint8_t kStrikeSpill = UINT8_MAX;
  struct PairState {
    uint8_t flags = 0;
    // Negative feedback items since the pair's last positive one.
    uint8_t strikes = 0;
  };

  FeatureSpace space_;
  const AlexOptions* options_;
  CandidateSet candidates_;
  FeedbackSampler sampler_;
  std::vector<PairState> pair_state_;  // indexed by PairId
  // (pair, strikes) of the pairs at kStrikeSpill, sorted by PairId.
  std::vector<std::pair<PairId, int64_t>> strike_spill_;
  EpsilonGreedyPolicy policy_;
  McLearner learner_;
  RollbackLog rollback_;
  Rng rng_;
  // Hot-loop scratch buffers (capacity reused across feedback items).
  std::vector<PairId> added_scratch_;
  std::vector<StateAction> ancestors_scratch_;
  std::vector<PairId> improve_scratch_;
  // The epoch delta of the last SyncSpaceToCandidates.
  std::vector<PairId> delta_added_scratch_;
  std::vector<PairId> delta_removed_scratch_;
};

class AlexEngine {
 public:
  // `left` and `right` must outlive the engine.
  AlexEngine(const rdf::TripleStore* left, const rdf::TripleStore* right,
             AlexOptions options);

  // Pre-processing: partitions the left data set, builds the feature space
  // of every partition (in parallel), and seeds the candidate set with
  // `initial_links` (e.g., PARIS output). Initial links whose entity pair
  // was filtered out of the space are kept as spaceless candidates: they
  // can be removed by negative feedback but not explored around.
  //
  // `prepared_right` optionally supplies an already-prepared RightContext
  // for the engine's right store (from RightContext::Prepare with the same
  // FeatureSpaceOptions), so multiple engines over one right store — e.g.
  // bench configs — skip re-preparing it. Pass nullptr to prepare
  // internally.
  Status Initialize(const std::vector<linking::Link>& initial_links,
                    std::shared_ptr<const RightContext> prepared_right =
                        nullptr);

  // Per-call accounting of one IngestTriples epoch. blocking_merges and
  // ingest_epoch are cumulative over the engine's lifetime; the rest count
  // this call only.
  struct IngestStats {
    size_t triples_ingested = 0;
    size_t new_left_entities = 0;
    size_t new_right_entities = 0;
    size_t new_pairs = 0;           // pairs that joined the feature spaces
    size_t overflow_entries = 0;    // score entries parked in sidecars
    uint64_t blocking_merges = 0;   // BlockingMergeCount() so far
    uint64_t ingest_epoch = 0;      // 1-based engine ingest epoch
  };

  // Folds triples ingested into the underlying stores (after Initialize)
  // into the engine: newly appeared subjects on either side are prepared,
  // the shared right blocking index is extended (AddRights, or a fresh
  // Build when options.incremental_ingest is false), each partition's
  // feature space grows by the new pairs in canonical (left, right) order,
  // and new left entities join the partitions round-robin — exactly where a
  // from-scratch EqualSizePartition of the grown store would place them.
  // In incremental mode with blocking, the (old left, new right) pairs come
  // from one ReverseProbeIndex probe per new right; the first call indexes
  // every old left's probe keys, and later calls add the new lefts.
  //
  // The growth contract is additive: triples of PRE-EXISTING subjects must
  // not change between ingest epochs (InvalidArgument otherwise). Consumes
  // no engine RNG, so episode series stay aligned across maintenance modes.
  // Requires the engine to own its right context (Initialize without
  // `prepared_right`); a shared context cannot be mutated safely.
  Status IngestTriples(IngestStats* stats = nullptr);

  // The engine's shared right-side context (null before Initialize). The
  // differential suite fingerprints right_context()->index through this.
  const RightContext* right_context() const { return right_context_.get(); }

  // Runs one feedback episode of options.episode_size items. With
  // num_threads > 1, partitions process their shares concurrently (see
  // DESIGN.md); the episode result is identical at any thread count.
  EpisodeStats RunEpisode(const FeedbackFn& feedback);

  // Registers an observer of net candidate-link changes, invoked once per
  // changed link at the end of every episode, in the order LinkChangeFn
  // documents. Pass nullptr to unregister.
  void SetLinkChangeObserver(LinkChangeFn observer) {
    link_observer_ = std::move(observer);
  }

  // Current candidate links across all partitions plus spaceless extras.
  std::vector<linking::Link> CandidateLinks() const;
  size_t CandidateCount() const;

  // Draws up to `count` candidate links for externally-driven feedback
  // (the vote-driven loop in eval/vote_driven.h): the quota is split
  // across partitions + spaceless extras by a candidate-count-weighted
  // multinomial from the engine RNG — exactly RunEpisode's schedule — then
  // each partition draws its share with its own RNG, prioritized when
  // AlexOptions::prioritized_sampling is on and uniform otherwise.
  // Appends to `out` in deterministic partition-then-extras order. Unlike
  // RunEpisode's with-replacement draws, the returned links are DISTINCT
  // within one call (an epoch's judgment sample is a set handed to the
  // user population; duplicates would only burn vote budget past the
  // quorum), so fewer than `count` may come back when candidates run low.
  // Consumes the same RNG streams as RunEpisode, so a given engine should
  // be driven through one entry point, not both interleaved.
  void SampleFeedbackLinks(size_t count, std::vector<linking::Link>* out);

  // Feedback entry point for integration with the federated query engine:
  // attributes approve/reject of a query answer to one of its provenance
  // links, and returns what it changed (a spaceless extra removed by
  // negative feedback counts as removed). Unknown or non-candidate links
  // change nothing. Every call counts as one feedback item of the current
  // external episode.
  PartitionAlex::FeedbackOutcome ApplyLinkFeedback(const linking::Link& link,
                                                   bool positive);

  // When driving feedback externally (ApplyLinkFeedback), call these to
  // delimit episodes. BeginExternalEpisode starts the next episode number
  // and its counts. EndExternalEpisode closes the episode at RunEpisode's
  // boundary (the link-change observer sees every net candidate change),
  // fills in `stats` the fields RunEpisode fills — feedback counts, episode
  // number, change_fraction, candidate_count and the cumulative ingest
  // counters — leaving the driver's own fields as they are, and returns the
  // number of net changes.
  void BeginExternalEpisode();
  size_t EndExternalEpisode(EpisodeStats* stats = nullptr);

  // Episodes begun so far, by RunEpisode or BeginExternalEpisode: during an
  // external episode, that episode's number.
  int episodes_run() const { return episodes_run_; }

  // Persistence support (see core/engine_state.h). These operate on an
  // initialized engine; links outside every feature space become spaceless
  // candidates (ReplaceCandidates) or are ignored (the others).
  void ReplaceCandidates(const std::vector<linking::Link>& links);
  void RestoreBlacklistEntry(const linking::Link& link);
  void RestorePolicyEntry(const linking::Link& state,
                          const FeatureKey& action);
  void RestoreReturnEntry(const linking::Link& state,
                          const FeatureKey& action, double sum,
                          uint64_t count);

  const std::vector<PartitionAlex>& partitions() const { return partitions_; }
  std::vector<PartitionAlex>& mutable_partitions() { return partitions_; }
  const AlexOptions& options() const { return options_; }
  const FeatureCatalog& catalog() const { return catalog_; }

  // What the policies learned, aggregated across partitions: for every
  // feature, how many states chose it as their greedy action and the
  // average return it collected. Sorted by descending greedy_states. This
  // is §4.2's claim made observable — distinctive features accumulate
  // greedy states and positive returns, traps (rdf:type-like features)
  // accumulate negative returns.
  struct FeatureUsage {
    FeatureKey key;
    size_t greedy_states = 0;
    double average_return = 0.0;
    uint64_t return_samples = 0;
  };
  std::vector<FeatureUsage> FeatureUsageSummary() const;

  // Pre-processing statistics (Figure 5).
  double init_seconds() const { return init_seconds_; }
  uint64_t total_pair_count() const { return total_pair_count_; }
  uint64_t filtered_pair_count() const { return filtered_pair_count_; }
  // Pairs actually scored during Initialize; total - scored were pruned by
  // the blocking index without being scored.
  uint64_t scored_pair_count() const { return scored_pair_count_; }
  uint64_t pruned_pair_count() const {
    return total_pair_count_ - scored_pair_count_;
  }

 private:
  // Resets the incremental change tracking (candidate-set epoch deltas and
  // the baseline count) to the current candidate state.
  void MarkCandidateBaseline();

  // The episode boundary shared by RunEpisode, EndExternalEpisode and
  // MarkCandidateBaseline: every partition folds its net epoch delta into
  // its frontier (SyncSpaceToCandidates, on the pool); then, on this
  // thread, the link observer sees every change in the order LinkChangeFn
  // documents (when `notify`), and the epoch counters are consumed.
  // Returns the number of net membership changes.
  size_t CloseCandidateEpoch(bool notify);

  // Rebuilds extras_alive_ over every extras_links_ entry, all present.
  void ResetExtras();

  // Gives the IRIs of left entities [first, end) of partition `partition`,
  // or of right entities [first, end) of the right context, their role in
  // the verdict lookup. An IRI keeps its first role of each side.
  void RegisterLefts(uint32_t partition, size_t first);
  void RegisterRights(size_t first);

  // The (partition, pair) of `link`, one iris_ probe per IRI; false if
  // outside every space. Membership-agnostic, like FeatureSpace::FindPair.
  bool LocatePair(const linking::Link& link, uint32_t* partition,
                  PairId* pair) const;

  // Closes an episode of either kind (RunEpisode, EndExternalEpisode) at
  // CloseCandidateEpoch's boundary, and fills `stats`: `counts`, the episode
  // number, change_fraction against the candidate count of the previous
  // boundary, candidate_count and the cumulative ingest counters. Returns
  // the number of net membership changes.
  size_t CloseEpisode(const PartitionAlex::FeedbackCounts& counts,
                      EpisodeStats* stats);

  // Posts the lefts with global subject indexes [first, last) to the
  // reverse-probe index. EqualSizePartition deals the subjects round-robin,
  // so global index g is slot g / P of partition g % P.
  void IndexLefts(size_t first, size_t last);

  // Splits `count` feedback items among the partitions and the spaceless
  // extras (the last slot): `count` multinomial draws from the engine RNG,
  // weighted by the current candidate counts. No draws, and all-zero
  // quotas, when there are no candidates.
  std::vector<size_t> DrawQuotas(size_t count);

  // Processes up to `quota` feedback items on the spaceless extras,
  // sampling live with the engine RNG (extras have no partition worker;
  // they run on the calling thread).
  void ProcessExtras(size_t quota, const FeedbackFn& feedback,
                     PartitionAlex::FeedbackCounts* counts);

  // Total sidecar-into-CSR merge compactions across the engine's key
  // indexes: the shared right index plus the reverse-probe index of the
  // lefts' probe keys.
  uint64_t BlockingMergeCount() const {
    uint64_t merges = reverse_index_.merge_count();
    if (right_context_ != nullptr) {
      merges += right_context_->index.merge_count();
    }
    return merges;
  }

  const rdf::TripleStore* left_;
  const rdf::TripleStore* right_;
  AlexOptions options_;
  FeatureCatalog catalog_;
  std::vector<PartitionAlex> partitions_;
  // The verdict lookup: every left-entity and right-entity IRI interned
  // once, with the roles of each id, so that locating a link costs one
  // hash probe per IRI.
  static constexpr uint32_t kNoRole = UINT32_MAX;
  struct IriRoles {
    uint32_t partition = kNoRole;    // a left entity's partition
    uint32_t left_index = kNoRole;   // ... and its index in that space
    uint32_t right_index = kNoRole;  // a right entity's index
  };
  rdf::IriIndex iris_;
  std::vector<IriRoles> roles_;  // by id in iris_

  // Live-ingest state. The right context is shared immutably with every
  // partition space; IngestTriples may extend it (append-only: existing
  // entities and the logical index contents over them never change) only
  // when the engine prepared it itself.
  std::shared_ptr<const RightContext> right_context_;
  bool owns_right_context_ = false;
  // New-entity watermarks: a subject TermId >= the watermark was interned
  // after the previous ingest epoch (Subjects() is TermId-ascending, so the
  // new subjects are exactly the suffix past the old count).
  rdf::TermId left_term_watermark_ = 0;
  rdf::TermId right_term_watermark_ = 0;
  size_t left_subject_count_ = 0;
  size_t right_subject_count_ = 0;
  size_t known_left_triples_ = 0;
  size_t known_right_triples_ = 0;
  // The reverse-probe index (incremental_ingest && blocking only; filled
  // on the first ingest epoch, so engines that never ingest pay nothing):
  // the probe-side keys of every left, read from the partition spaces'
  // left_entities(), under the left's global subject index. Each epoch every
  // new right probes it once, which yields exactly the (old left, new
  // right) pairs a forward probe of each old left would find; the new
  // lefts are posted after their own growth.
  ReverseProbeIndex reverse_index_;
  // Cumulative ingest counters surfaced through EpisodeStats.
  size_t triples_ingested_ = 0;
  size_t entities_added_ = 0;
  size_t space_overflow_pairs_ = 0;
  size_t ingest_epochs_ = 0;

  // Spaceless candidates: initial links outside every feature space.
  std::vector<linking::Link> extras_links_;
  CandidateSet extras_alive_;  // ids index extras_links_

  Rng rng_;
  // Episode + build workers, created in Initialize when the resolved thread
  // count is > 1; null means fully serial execution.
  std::unique_ptr<ThreadPool> pool_;
  LinkChangeFn link_observer_;
  bool initialized_ = false;
  double init_seconds_ = 0.0;
  uint64_t total_pair_count_ = 0;
  uint64_t filtered_pair_count_ = 0;
  uint64_t scored_pair_count_ = 0;
  // Candidate count at the start of the current episode (the denominator of
  // change_fraction); the numerator comes from the candidate sets' epoch
  // deltas, so no full snapshot is rebuilt per episode.
  size_t prev_candidate_count_ = 0;
  int episodes_run_ = 0;
  // Counts of the current external episode (ApplyLinkFeedback).
  PartitionAlex::FeedbackCounts external_counts_;
};

}  // namespace alex::core

#endif  // ALEX_CORE_ALEX_ENGINE_H_
