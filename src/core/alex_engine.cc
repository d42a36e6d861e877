#include "core/alex_engine.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace alex::core {

namespace {

// Calls fn(pair, added) for every pair of two disjoint ascending lists, in
// ascending PairId order.
template <typename Fn>
void WalkSortedDelta(const std::vector<PairId>& added,
                     const std::vector<PairId>& removed, const Fn& fn) {
  size_t a = 0;
  size_t r = 0;
  while (a < added.size() || r < removed.size()) {
    if (r == removed.size() || (a < added.size() && added[a] < removed[r])) {
      fn(added[a++], true);
    } else {
      fn(removed[r++], false);
    }
  }
}

}  // namespace

PartitionAlex::PartitionAlex(FeatureSpace space, const AlexOptions* options,
                             uint64_t seed)
    : space_(std::move(space)),
      options_(options),
      candidates_(space_.pair_count()),
      pair_state_(space_.pair_count()),
      policy_(options->epsilon),
      rollback_(space_.pair_count()),
      rng_(seed) {}

FeatureSpace::GrowthResult PartitionAlex::GrowSpace(
    const rdf::TripleStore& left,
    const std::vector<rdf::TermId>& new_left_subjects,
    const std::vector<CandidatePair>* old_left_pairs, size_t old_right_count,
    FeatureCatalog* catalog, bool rebuild_indexes) {
  FeatureSpace::GrowthResult grown =
      space_.Grow(left, new_left_subjects, old_left_pairs, old_right_count,
                  catalog, options_->space, rebuild_indexes);
  const size_t pairs = space_.pair_count();
  candidates_.Grow(pairs);
  rollback_.Grow(pairs);
  pair_state_.reserve(pairs);
  pair_state_.resize(pairs);
  return grown;
}

std::vector<PairId> PartitionAlex::blacklist() const {
  std::vector<PairId> out;
  for (PairId pair = 0; pair < pair_state_.size(); ++pair) {
    if (IsBlacklisted(pair)) out.push_back(pair);
  }
  return out;
}

bool PartitionAlex::AddStrike(PairId pair) {
  uint8_t& strikes = pair_state_[pair].strikes;
  int64_t count;
  if (strikes < kStrikeSpill) {
    count = ++strikes;
  } else {
    // Spilled counts are at least kStrikeSpill, so (pair, 0) sorts first.
    auto it = std::lower_bound(strike_spill_.begin(), strike_spill_.end(),
                               std::pair<PairId, int64_t>(pair, 0));
    if (it == strike_spill_.end() || it->first != pair) {
      it = strike_spill_.insert(it, {pair, kStrikeSpill});
    }
    count = ++it->second;
  }
  return count >= options_->blacklist_strikes;
}

void PartitionAlex::Confirm(PairId pair) {
  PairState& state = pair_state_[pair];
  state.flags |= kConfirmed;
  if (state.strikes == kStrikeSpill) {
    auto it = std::lower_bound(strike_spill_.begin(), strike_spill_.end(),
                               std::pair<PairId, int64_t>(pair, 0));
    if (it != strike_spill_.end() && it->first == pair) {
      strike_spill_.erase(it);
    }
  }
  state.strikes = 0;
}

double PartitionAlex::TopFeatureScore(PairId pair) const {
  double best = 0.0;
  for (const auto& [feature, score] : space_.pair(pair).features) {
    best = std::max(best, score);
  }
  return best;
}

PartitionAlex::FeedbackOutcome PartitionAlex::ProcessFeedback(PairId pair,
                                                              bool positive) {
  FeedbackOutcome outcome;
  const double reward =
      positive ? options_->positive_reward : options_->negative_reward;
  // Fold the item into the pair's uncertainty tally (prioritized sampling
  // only; no-op for unregistered pairs).
  if (options_->prioritized_sampling) {
    sampler_.RecordFeedback(pair, positive);
  }

  // First-visit Monte Carlo: the first feedback on a link within an episode
  // contributes the reward to every state-action pair that led to it.
  if (learner_.IsFirstVisit(pair)) {
    rollback_.AncestorsOf(pair, &ancestors_scratch_);
    for (const StateAction& sa : ancestors_scratch_) {
      learner_.AppendReturn(sa, reward);
    }
  }

  if (positive) {
    // A positive observation clears earlier (possibly erroneous) negative
    // strikes; see AlexOptions::blacklist_strikes.
    Confirm(pair);
    if (!candidates_.Contains(pair)) return outcome;
    const FeatureSetView actions = space_.pair(pair).features;
    if (actions.empty()) return outcome;
    // Take an action: pick a feature by the current policy and explore the
    // band [score - step, score + step] around the approved link (§4.2).
    // States without a learned policy consult the cross-state feature prior
    // (see AlexOptions::use_feature_prior).
    FeatureId action;
    if (options_->use_feature_prior && !policy_.GreedyAction(pair) &&
        !rng_.NextBool(options_->epsilon)) {
      action = learner_.ArgmaxFeaturePrior(actions);
    } else {
      action = policy_.ChooseAction(pair, actions, &rng_);
    }
    double score = actions.Get(action);
    // Span probe straight into the CSR score arena — no per-probe heap
    // traffic; added_scratch_ reuses its capacity across feedback items.
    // The span covers the explorable frontier as of the last episode
    // boundary (SyncSpaceToCandidates): current candidates are excluded by
    // liveness, and candidates_.Add dedups the links that became candidates
    // mid-episode.
    FeatureSpace::ScoreSpan in_range = space_.PairsInRangeSpan(
        action, score - options_->step_size, score + options_->step_size);
    added_scratch_.clear();
    for (const ScoreEntry entry : in_range) {
      if (entry.pair == pair) continue;
      if (options_->use_blacklist && IsBlacklisted(entry.pair)) {
        continue;  // known-incorrect links are never re-proposed (§6.3)
      }
      if (candidates_.Add(entry.pair)) {
        added_scratch_.push_back(entry.pair);
        SamplerAdd(entry.pair);
      }
    }
    outcome.added = added_scratch_.size();
    rollback_.RecordGeneration(StateAction{pair, action}, added_scratch_);
    return outcome;
  }

  // Negative feedback: remove the incorrect link (§3.2).
  outcome.removed = candidates_.Remove(pair);
  if (outcome.removed) SamplerRemove(pair);
  pair_state_[pair].flags &= ~kConfirmed;
  if (options_->use_blacklist && AddStrike(pair)) {
    pair_state_[pair].flags |= kBlacklisted;
  }
  if (options_->use_rollback) {
    for (const StateAction& sa :
         rollback_.AddNegative(pair, options_->rollback_threshold)) {
      ++outcome.rollbacks;
      for (PairId generated : rollback_.TakeGenerated(sa)) {
        if (generated == pair) continue;
        // Links the user approved are kept; links removed here are NOT
        // blacklisted — they may be correct and rediscoverable (§6.3).
        if ((pair_state_[generated].flags & kConfirmed) != 0) continue;
        if (candidates_.Remove(generated)) {
          ++outcome.rolled_back_links;
          SamplerRemove(generated);
        }
      }
    }
  }
  return outcome;
}

void PartitionAlex::SyncSpaceToCandidates() {
  // Episode-boundary background compaction: fold ingest-grown score entries
  // back into the CSR arena once they outgrow the threshold, regardless of
  // candidate churn, so the next episode's span probes walk a compact
  // arena. No-op when nothing grew; physical-only, so the logical
  // fingerprint is unchanged.
  space_.MaybeCompactArena();
  candidates_.SortedEpochDelta(&delta_added_scratch_, &delta_removed_scratch_);
  // Polarity flips at this boundary: a link that BECAME a candidate leaves
  // the explorable frontier, one that was removed returns to it.
  space_.SetLiveness(/*added=*/delta_removed_scratch_,
                     /*removed=*/delta_added_scratch_);
}

void PartitionAlex::BeginEpisode() { learner_.BeginEpisode(); }

void PartitionAlex::EndEpisode() {
  // Policy improvement: greedy with respect to the current action-value
  // estimates at every state visited in the episode (Algorithm 1).
  learner_.TakeStatesToImprove(&improve_scratch_);
  for (PairId state : improve_scratch_) {
    FeatureId best =
        learner_.ArgmaxAction(state, space_.pair(state).features);
    if (best != kInvalidFeatureId) policy_.SetGreedy(state, best);
  }
}

void PartitionAlex::FeedbackCounts::Add(bool positive,
                                        const FeedbackOutcome& outcome) {
  ++feedback_items;
  ++(positive ? positive_feedback : negative_feedback);
  links_added += outcome.added;
  links_removed += (outcome.removed ? 1 : 0) + outcome.rolled_back_links;
  rollbacks += outcome.rollbacks;
  rolled_back_links += outcome.rolled_back_links;
}

PartitionAlex::FeedbackCounts& PartitionAlex::FeedbackCounts::operator+=(
    const FeedbackCounts& other) {
  feedback_items += other.feedback_items;
  positive_feedback += other.positive_feedback;
  negative_feedback += other.negative_feedback;
  links_added += other.links_added;
  links_removed += other.links_removed;
  rollbacks += other.rollbacks;
  rolled_back_links += other.rolled_back_links;
  return *this;
}

void PartitionAlex::RunEpisodeItems(size_t items, const FeedbackFn& feedback,
                                    FeedbackCounts* counts) {
  BeginEpisode();
  for (size_t item = 0; item < items; ++item) {
    PairId pair = SampleFeedbackPair();
    if (pair == kInvalidPairId) break;
    linking::Link link;
    link.left = space_.LeftIri(pair);
    link.right = space_.RightIri(pair);
    const bool approved = feedback(link);
    counts->Add(approved, ProcessFeedback(pair, approved));
  }
  EndEpisode();
}

PairId PartitionAlex::SampleFeedbackPair() {
  if (candidates_.empty()) return kInvalidPairId;
  if (options_->prioritized_sampling) {
    PairId pair = sampler_.Sample(&rng_);
    // The sampler mirrors every engine-side candidate mutation; the guard
    // only matters if candidates were mutated behind the engine's back.
    if (pair != kInvalidPairId && candidates_.Contains(pair)) return pair;
  }
  return candidates_.Sample(&rng_);
}

AlexEngine::AlexEngine(const rdf::TripleStore* left,
                       const rdf::TripleStore* right, AlexOptions options)
    : left_(left),
      right_(right),
      options_(options),
      reverse_index_(options.space.blocking, options.space.similarity),
      rng_(options.seed) {}

Status AlexEngine::Initialize(
    const std::vector<linking::Link>& initial_links,
    std::shared_ptr<const RightContext> prepared_right) {
  if (initialized_) {
    return Status::FailedPrecondition("engine already initialized");
  }
  Stopwatch timer;

  std::vector<rdf::TermId> left_subjects = left_->Subjects();
  std::vector<rdf::TermId> right_subjects = right_->Subjects();
  if (left_subjects.empty() || right_subjects.empty()) {
    return Status::InvalidArgument("both data sets must be non-empty");
  }
  std::vector<std::vector<rdf::TermId>> partitions =
      EqualSizePartition(left_subjects, options_.num_partitions);

  // The pool is engine-owned and outlives Initialize: the same workers that
  // build the feature spaces later run the parallel episode shards.
  int threads = options_.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);

  // Prepare the right data set ONCE — preprocessed entities plus the
  // blocking index — and share it across every partition (the seed
  // re-prepared all right entities per partition). A caller that runs many
  // engines over one right store can hand in the prepared context instead.
  std::shared_ptr<const RightContext> right_context =
      std::move(prepared_right);
  if (right_context != nullptr) {
    if (right_context->entities.size() != right_subjects.size()) {
      return Status::InvalidArgument(
          "prepared right context does not match the right store");
    }
    owns_right_context_ = false;
  } else {
    right_context = RightContext::Prepare(*right_, right_subjects,
                                          options_.space, pool_.get());
    owns_right_context_ = true;
  }
  right_context_ = right_context;

  // Live-ingest baseline: record the subject/term watermarks that separate
  // the initialized world from later growth.
  left_term_watermark_ = static_cast<rdf::TermId>(left_->dictionary().size());
  right_term_watermark_ =
      static_cast<rdf::TermId>(right_->dictionary().size());
  left_subject_count_ = left_subjects.size();
  right_subject_count_ = right_subjects.size();
  known_left_triples_ = left_->size();
  known_right_triples_ = right_->size();

  // Partition spaces are built one after another with the left-entity loop
  // of each build sharded across the pool (§6.2), which keeps all workers
  // busy even when partitions are fewer than threads.
  std::vector<FeatureSpace> spaces;
  spaces.reserve(partitions.size());
  for (const std::vector<rdf::TermId>& partition : partitions) {
    spaces.push_back(FeatureSpace::Build(*left_, partition, right_context,
                                         &catalog_, options_.space,
                                         pool_.get()));
  }

  // FeatureIds were interned in whatever order the build's worker threads
  // first saw the keys — a run-to-run accident. Canonicalize them (and
  // everything downstream that is keyed on them, like ε-greedy action
  // order) into a pure function of the data, so episode trajectories are
  // reproducible at any thread count.
  std::vector<FeatureId> old_to_new = catalog_.Canonicalize();
  if (pool_ != nullptr && spaces.size() > 1) {
    for (FeatureSpace& space : spaces) {
      pool_->Schedule([&space, &old_to_new] {
        space.RemapFeatures(old_to_new);
      });
    }
    pool_->Wait();
  } else {
    for (FeatureSpace& space : spaces) space.RemapFeatures(old_to_new);
  }

  partitions_.reserve(spaces.size());
  for (size_t i = 0; i < spaces.size(); ++i) {
    total_pair_count_ += spaces[i].total_pair_count();
    filtered_pair_count_ += spaces[i].pair_count();
    scored_pair_count_ += spaces[i].scored_pair_count();
    partitions_.emplace_back(std::move(spaces[i]), &options_,
                             rng_.NextUint64());
  }
  for (uint32_t p = 0; p < partitions_.size(); ++p) RegisterLefts(p, 0);
  RegisterRights(0);

  // Seed the candidate links.
  for (const linking::Link& link : initial_links) {
    uint32_t partition = 0;
    PairId pair = kInvalidPairId;
    if (LocatePair(link, &partition, &pair)) {
      partitions_[partition].AddInitialCandidate(pair);
    } else {
      // Outside every feature space: kept, but cannot be explored around.
      extras_links_.push_back(link);
    }
  }
  ResetExtras();

  MarkCandidateBaseline();
  init_seconds_ = timer.ElapsedSeconds();
  initialized_ = true;
  return Status::Ok();
}

void AlexEngine::MarkCandidateBaseline() {
  CloseCandidateEpoch(/*notify=*/false);
  prev_candidate_count_ = CandidateCount();
}

void AlexEngine::ResetExtras() {
  extras_alive_ = CandidateSet(extras_links_.size());
  for (PairId extra = 0; extra < extras_links_.size(); ++extra) {
    extras_alive_.Add(extra);
  }
}

void AlexEngine::RegisterLefts(uint32_t partition, size_t first) {
  const std::vector<PreparedEntity>& entities =
      partitions_[partition].space().left_entities();
  for (size_t i = first; i < entities.size(); ++i) {
    const uint32_t id = iris_.Intern(entities[i].iri);
    roles_.resize(iris_.size());
    if (roles_[id].partition == kNoRole) {
      roles_[id].partition = partition;
      roles_[id].left_index = static_cast<uint32_t>(i);
    }
  }
}

void AlexEngine::RegisterRights(size_t first) {
  const std::vector<PreparedEntity>& entities = right_context_->entities;
  for (size_t i = first; i < entities.size(); ++i) {
    const uint32_t id = iris_.Intern(entities[i].iri);
    roles_.resize(iris_.size());
    if (roles_[id].right_index == kNoRole) {
      roles_[id].right_index = static_cast<uint32_t>(i);
    }
  }
}

bool AlexEngine::LocatePair(const linking::Link& link, uint32_t* partition,
                            PairId* pair) const {
  const uint32_t left = iris_.Find(link.left);
  const uint32_t right = iris_.Find(link.right);
  if (left == rdf::IriIndex::kNone || right == rdf::IriIndex::kNone) {
    return false;
  }
  const IriRoles& left_roles = roles_[left];
  const uint32_t right_index = roles_[right].right_index;
  if (left_roles.partition == kNoRole || right_index == kNoRole) return false;
  *partition = left_roles.partition;
  *pair = partitions_[*partition].space().FindPairByIndex(
      left_roles.left_index, right_index);
  return *pair != kInvalidPairId;
}

size_t AlexEngine::CloseCandidateEpoch(bool notify) {
  // Each partition's sort, frontier sync (arena compaction included) and
  // epoch reset touch only that partition, so they run on the pool; the
  // sorted delta stays in the partition for the walk below.
  auto close = [this](size_t p) {
    partitions_[p].SyncSpaceToCandidates();
    partitions_[p].mutable_candidates().TakeEpochChanges();
  };
  if (pool_ != nullptr && partitions_.size() > 1) {
    for (size_t p = 0; p < partitions_.size(); ++p) {
      pool_->Schedule([&close, p] { close(p); });
    }
    pool_->Wait();
  } else {
    for (size_t p = 0; p < partitions_.size(); ++p) close(p);
  }

  // The observer walk stays on this thread in one fixed order: partitions
  // in index order, ascending PairId within each, then the extras. One
  // scratch Link carries every partition change.
  const bool observe = notify && link_observer_ != nullptr;
  size_t changed = 0;
  linking::Link link;
  for (const PartitionAlex& partition : partitions_) {
    changed +=
        partition.synced_added().size() + partition.synced_removed().size();
    if (!observe) continue;
    const FeatureSpace& space = partition.space();
    WalkSortedDelta(partition.synced_added(), partition.synced_removed(),
                    [&](PairId pair, bool added) {
                      link.left = space.LeftIri(pair);
                      link.right = space.RightIri(pair);
                      link_observer_(link, added);
                    });
  }
  if (observe) {
    std::vector<PairId> added;
    std::vector<PairId> removed;
    extras_alive_.SortedEpochDelta(&added, &removed);
    WalkSortedDelta(added, removed, [&](PairId extra, bool is_added) {
      link_observer_(extras_links_[extra], is_added);
    });
  }
  changed += extras_alive_.TakeEpochChanges();
  return changed;
}

Status AlexEngine::IngestTriples(IngestStats* stats_out) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize() first");
  }
  std::vector<rdf::TermId> left_subjects = left_->Subjects();
  std::vector<rdf::TermId> right_subjects = right_->Subjects();
  // Subjects() is TermId-ascending, and every term interned after the
  // previous epoch has an id at or above the watermark — so the new
  // subjects are exactly the suffix, and a changed old-prefix length means
  // some pre-existing subject gained or lost all its triples.
  const size_t left_old = static_cast<size_t>(
      std::lower_bound(left_subjects.begin(), left_subjects.end(),
                       left_term_watermark_) -
      left_subjects.begin());
  const size_t right_old = static_cast<size_t>(
      std::lower_bound(right_subjects.begin(), right_subjects.end(),
                       right_term_watermark_) -
      right_subjects.begin());
  if (left_old != left_subject_count_ || right_old != right_subject_count_) {
    return Status::InvalidArgument(
        "ingest changed pre-existing subjects; engine growth is additive "
        "(new entities only)");
  }
  std::vector<rdf::TermId> new_lefts(left_subjects.begin() + left_old,
                                     left_subjects.end());
  std::vector<rdf::TermId> new_rights(right_subjects.begin() + right_old,
                                      right_subjects.end());

  IngestStats stats;
  stats.triples_ingested = (left_->size() - known_left_triples_) +
                           (right_->size() - known_right_triples_);
  stats.new_left_entities = new_lefts.size();
  stats.new_right_entities = new_rights.size();

  const size_t old_left_count = left_subject_count_;
  const size_t old_right_count = right_subject_count_;
  const size_t num_partitions = partitions_.size();
  const bool rebuild = !options_.incremental_ingest;
  const bool reverse_probe =
      options_.incremental_ingest && options_.space.blocking.enabled;

  // Index the old lefts' probe keys on the first epoch.
  if (reverse_probe && reverse_index_.num_lefts() == 0) {
    IndexLefts(0, old_left_count);
  }

  // 1. Extend the shared right context: append the prepared new rights and
  // grow the blocking index over them (sidecar AddRights, or a fresh Build
  // in the rebuild baseline).
  if (!new_rights.empty()) {
    if (!owns_right_context_ || right_context_ == nullptr) {
      return Status::FailedPrecondition(
          "cannot ingest into a caller-shared right context; initialize "
          "without prepared_right");
    }
    // The context was created mutable by RightContext::Prepare and is only
    // shared within this engine; ingest never runs concurrently with
    // episodes, and the mutation is append-only.
    auto* context = const_cast<RightContext*>(right_context_.get());
    for (rdf::TermId subject : new_rights) {
      context->entities.push_back(
          PrepareEntity(*right_, subject, options_.space.max_attributes));
    }
    RegisterRights(old_right_count);
    if (options_.space.blocking.enabled) {
      if (options_.incremental_ingest) {
        context->index.AddRights(context->entities, old_right_count);
      } else {
        context->index =
            BlockingIndex::Build(context->entities, options_.space.blocking,
                                 options_.space.similarity, pool_.get());
      }
    }
  }

  // 2. Reverse probe: every new right probes the index of the old lefts'
  // probe keys once. Its candidates and cell masks are exactly those of a
  // forward probe of each old left against the new right, so they are
  // phase 1 of every partition's growth, sorted by (left, right).
  std::vector<std::vector<CandidatePair>> old_left_pairs(num_partitions);
  if (reverse_probe && !new_rights.empty()) {
    ProbeScratch scratch;
    const std::vector<PreparedEntity>& rights = right_context_->entities;
    for (size_t j = old_right_count; j < rights.size(); ++j) {
      reverse_index_.Probe(rights[j], &scratch);
      for (uint32_t g : scratch.touched()) {
        CandidatePair pair{g / static_cast<uint32_t>(num_partitions),
                           static_cast<uint32_t>(j), {}};
        std::copy_n(scratch.cell_channels(g), kCellCount, pair.cells.begin());
        old_left_pairs[g % num_partitions].push_back(pair);
      }
    }
    for (std::vector<CandidatePair>& pairs : old_left_pairs) {
      std::sort(pairs.begin(), pairs.end(),
                [](const CandidatePair& a, const CandidatePair& b) {
                  return a.left != b.left ? a.left < b.left
                                          : a.right < b.right;
                });
    }
  }

  // 3. Bucket the new left subjects round-robin, continuing the global
  // sequence exactly where EqualSizePartition of the grown store would
  // place them.
  std::vector<std::vector<rdf::TermId>> new_lefts_by_partition(num_partitions);
  for (size_t k = 0; k < new_lefts.size(); ++k) {
    new_lefts_by_partition[(old_left_count + k) % num_partitions].push_back(
        new_lefts[k]);
  }

  // 4. Grow every partition space, serial and in partition order: new
  // PairIds and the catalog's intern order for first-seen feature keys are
  // canonical at any thread count and across maintenance modes.
  std::vector<size_t> lefts_before(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    lefts_before[p] = partitions_[p].space().left_entities().size();
  }
  for (size_t p = 0; p < num_partitions; ++p) {
    FeatureSpace::GrowthResult grown = partitions_[p].GrowSpace(
        *left_, new_lefts_by_partition[p],
        reverse_probe ? &old_left_pairs[p] : nullptr, old_right_count,
        &catalog_, rebuild);
    stats.new_pairs += grown.new_pairs;
    stats.overflow_entries += grown.overflow_entries;
  }

  // 5. Register the new lefts: the verdict lookup and the reverse-probe
  // index (posted in global subject order).
  for (uint32_t p = 0; p < num_partitions; ++p) {
    RegisterLefts(p, lefts_before[p]);
  }
  if (reverse_probe && !new_lefts.empty()) {
    IndexLefts(old_left_count, left_subjects.size());
  }

  // 6. Refresh the preprocessing totals and advance the watermarks.
  total_pair_count_ = 0;
  filtered_pair_count_ = 0;
  scored_pair_count_ = 0;
  for (const PartitionAlex& partition : partitions_) {
    total_pair_count_ += partition.space().total_pair_count();
    filtered_pair_count_ += partition.space().pair_count();
    scored_pair_count_ += partition.space().scored_pair_count();
  }
  left_term_watermark_ = static_cast<rdf::TermId>(left_->dictionary().size());
  right_term_watermark_ =
      static_cast<rdf::TermId>(right_->dictionary().size());
  left_subject_count_ = left_subjects.size();
  right_subject_count_ = right_subjects.size();
  known_left_triples_ = left_->size();
  known_right_triples_ = right_->size();

  triples_ingested_ += stats.triples_ingested;
  entities_added_ += new_lefts.size() + new_rights.size();
  space_overflow_pairs_ += stats.overflow_entries;
  stats.ingest_epoch = ++ingest_epochs_;
  stats.blocking_merges = BlockingMergeCount();
  if (stats_out != nullptr) *stats_out = stats;
  return Status::Ok();
}

void AlexEngine::IndexLefts(size_t first, size_t last) {
  ALEX_CHECK(first == reverse_index_.num_lefts());
  const size_t num_partitions = partitions_.size();
  std::vector<const PreparedEntity*> lefts;
  lefts.reserve(last - first);
  for (size_t g = first; g < last; ++g) {
    const PartitionAlex& partition = partitions_[g % num_partitions];
    lefts.push_back(&partition.space().left_entities()[g / num_partitions]);
  }
  reverse_index_.AddLefts(lefts, pool_.get());
}

void AlexEngine::ProcessExtras(size_t quota, const FeedbackFn& feedback,
                               PartitionAlex::FeedbackCounts* counts) {
  for (size_t item = 0; item < quota; ++item) {
    if (extras_alive_.empty()) break;
    PairId extra = extras_alive_.Sample(&rng_);
    const bool approved = feedback(extras_links_[extra]);
    PartitionAlex::FeedbackOutcome outcome;
    if (!approved) outcome.removed = extras_alive_.Remove(extra);
    counts->Add(approved, outcome);
  }
}

size_t AlexEngine::CloseEpisode(const PartitionAlex::FeedbackCounts& counts,
                                EpisodeStats* stats) {
  // Fold the net membership deltas into each partition's frontier, walk
  // them through the link-change observer, and into change_fraction. The
  // candidate sets tracked their own net changes during the episode, so the
  // symmetric difference with the episode-start state is a counter read,
  // not a rebuild-sort-diff over every candidate.
  const size_t changed = CloseCandidateEpoch(/*notify=*/true);
  stats->episode = episodes_run_;
  stats->feedback_items = counts.feedback_items;
  stats->positive_feedback = counts.positive_feedback;
  stats->negative_feedback = counts.negative_feedback;
  stats->links_added = counts.links_added;
  stats->links_removed = counts.links_removed;
  stats->rollbacks = counts.rollbacks;
  stats->rolled_back_links = counts.rolled_back_links;
  stats->change_fraction =
      static_cast<double>(changed) /
      static_cast<double>(std::max<size_t>(1, prev_candidate_count_));
  prev_candidate_count_ = CandidateCount();
  stats->candidate_count = prev_candidate_count_;
  // Cumulative live-ingest accounting (zero for engines never driven
  // through IngestTriples).
  stats->triples_ingested = triples_ingested_;
  stats->entities_added = entities_added_;
  stats->blocking_merges = static_cast<size_t>(BlockingMergeCount());
  stats->space_overflow_pairs = space_overflow_pairs_;
  stats->ingest_epochs = ingest_epochs_;
  return changed;
}

std::vector<size_t> AlexEngine::DrawQuotas(size_t count) {
  std::vector<size_t> sizes(partitions_.size() + 1, 0);
  for (size_t p = 0; p < partitions_.size(); ++p) {
    sizes[p] = partitions_[p].candidates().size();
  }
  sizes.back() = extras_alive_.size();
  size_t total = 0;
  for (size_t size : sizes) total += size;
  std::vector<size_t> quota(sizes.size(), 0);
  if (total == 0) return quota;
  for (size_t item = 0; item < count; ++item) {
    uint64_t r = rng_.NextBounded(total);
    for (size_t s = 0; s < sizes.size(); ++s) {
      if (r < sizes[s]) {
        ++quota[s];
        break;
      }
      r -= sizes[s];
    }
  }
  return quota;
}

EpisodeStats AlexEngine::RunEpisode(const FeedbackFn& feedback) {
  ALEX_CHECK(initialized_) << "call Initialize() first";
  Stopwatch episode_timer;
  ++episodes_run_;

  // Allocate each shard's feedback quota up front, weighted by the
  // episode-START candidate counts. After this, each shard's work is a pure
  // function of its own state and RNG stream, so shards can run
  // concurrently — and the serial path, which runs the same per-shard code
  // in partition order, produces bitwise-identical results. Within its
  // quota a partition still samples LIVE from its own evolving candidate
  // set, preserving the paper's uniform-over-candidates feedback model
  // within each shard.
  const std::vector<size_t> quota = DrawQuotas(options_.episode_size);

  // One slice per partition, then the extras' slice.
  std::vector<PartitionAlex::FeedbackCounts> shard(partitions_.size() + 1);
  std::vector<double> partition_seconds(partitions_.size(), 0.0);
  auto run_partition = [&](size_t p) {
    Stopwatch partition_timer;
    partitions_[p].RunEpisodeItems(quota[p], feedback, &shard[p]);
    partition_seconds[p] = partition_timer.ElapsedSeconds();
  };

  if (pool_ != nullptr && partitions_.size() > 1) {
    for (size_t p = 0; p < partitions_.size(); ++p) {
      pool_->Schedule([&run_partition, p] { run_partition(p); });
    }
    // Extras have no partition; process them on this thread while the
    // partition shards run.
    ProcessExtras(quota.back(), feedback, &shard.back());
    pool_->Wait();
  } else {
    for (size_t p = 0; p < partitions_.size(); ++p) run_partition(p);
    ProcessExtras(quota.back(), feedback, &shard.back());
  }

  PartitionAlex::FeedbackCounts counts;
  for (const PartitionAlex::FeedbackCounts& s : shard) counts += s;
  EpisodeStats stats;
  CloseEpisode(counts, &stats);
  stats.seconds = episode_timer.ElapsedSeconds();
  double sum = 0.0;
  for (double s : partition_seconds) {
    sum += s;
    stats.max_partition_seconds = std::max(stats.max_partition_seconds, s);
  }
  stats.avg_partition_seconds =
      partition_seconds.empty() ? 0.0 : sum / partition_seconds.size();
  return stats;
}

std::vector<linking::Link> AlexEngine::CandidateLinks() const {
  std::vector<linking::Link> links;
  links.reserve(CandidateCount());
  for (const PartitionAlex& partition : partitions_) {
    const FeatureSpace& space = partition.space();
    for (PairId pair : partition.candidates().items()) {
      linking::Link link;
      link.left = space.LeftIri(pair);
      link.right = space.RightIri(pair);
      links.push_back(std::move(link));
    }
  }
  for (PairId extra : extras_alive_.items()) {
    links.push_back(extras_links_[extra]);
  }
  return links;
}

size_t AlexEngine::CandidateCount() const {
  size_t total = extras_alive_.size();
  for (const PartitionAlex& partition : partitions_) {
    total += partition.candidates().size();
  }
  return total;
}

std::vector<AlexEngine::FeatureUsage> AlexEngine::FeatureUsageSummary()
    const {
  struct Accumulated {
    size_t greedy = 0;
    double sum = 0.0;
    uint64_t count = 0;
  };
  std::unordered_map<FeatureId, Accumulated> by_feature;
  for (const PartitionAlex& partition : partitions_) {
    for (const auto& [state, action] : partition.policy().greedy_map()) {
      ++by_feature[action].greedy;
    }
    for (const auto& [feature, prior] :
         partition.learner().FeaturePriors()) {
      Accumulated& acc = by_feature[feature];
      acc.sum += prior.first * static_cast<double>(prior.second);
      acc.count += prior.second;
    }
  }
  std::vector<FeatureUsage> out;
  out.reserve(by_feature.size());
  for (const auto& [feature, acc] : by_feature) {
    FeatureUsage usage;
    usage.key = catalog_.Key(feature);
    usage.greedy_states = acc.greedy;
    usage.return_samples = acc.count;
    usage.average_return =
        acc.count == 0 ? 0.0 : acc.sum / static_cast<double>(acc.count);
    out.push_back(std::move(usage));
  }
  std::sort(out.begin(), out.end(),
            [](const FeatureUsage& a, const FeatureUsage& b) {
              if (a.greedy_states != b.greedy_states) {
                return a.greedy_states > b.greedy_states;
              }
              return a.return_samples > b.return_samples;
            });
  return out;
}

void AlexEngine::SampleFeedbackLinks(size_t count,
                                     std::vector<linking::Link>* out) {
  ALEX_CHECK(initialized_) << "call Initialize() first";
  // RunEpisode's quota schedule.
  const std::vector<size_t> quota = DrawQuotas(count);
  // Links are drawn DISTINCT within one call (rejection with a bounded
  // attempt budget): an epoch's judgment sample is a set of links handed to
  // the user population, and duplicates would only burn vote budget past
  // the quorum. Partitions own disjoint pair spaces, so per-partition
  // dedup is global dedup.
  std::unordered_set<PairId> seen;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    PartitionAlex& partition = partitions_[p];
    const FeatureSpace& space = partition.space();
    seen.clear();
    size_t attempts = 0;
    const size_t max_attempts = quota[p] * 8 + 16;
    while (seen.size() < quota[p] && attempts < max_attempts) {
      ++attempts;
      PairId pair = partition.SampleFeedbackPair();
      if (pair == kInvalidPairId) break;
      if (!seen.insert(pair).second) continue;
      out->push_back({space.LeftIri(pair), space.RightIri(pair)});
    }
  }
  seen.clear();
  size_t attempts = 0;
  const size_t max_attempts = quota.back() * 8 + 16;
  while (seen.size() < quota.back() && attempts < max_attempts) {
    ++attempts;
    if (extras_alive_.empty()) break;
    PairId extra = extras_alive_.Sample(&rng_);
    if (!seen.insert(extra).second) continue;
    out->push_back(extras_links_[extra]);
  }
}

PartitionAlex::FeedbackOutcome AlexEngine::ApplyLinkFeedback(
    const linking::Link& link, bool positive) {
  PartitionAlex::FeedbackOutcome outcome;
  uint32_t partition = 0;
  PairId pair = kInvalidPairId;
  if (LocatePair(link, &partition, &pair) &&
      partitions_[partition].candidates().Contains(pair)) {
    outcome = partitions_[partition].ProcessFeedback(pair, positive);
  } else if (!positive) {
    for (PairId extra : extras_alive_.items()) {
      if (extras_links_[extra] == link) {
        outcome.removed = extras_alive_.Remove(extra);
        break;
      }
    }
  }
  external_counts_.Add(positive, outcome);
  return outcome;
}

void AlexEngine::ReplaceCandidates(
    const std::vector<linking::Link>& links) {
  for (PartitionAlex& partition : partitions_) partition.ClearCandidates();
  extras_links_.clear();
  for (const linking::Link& link : links) {
    uint32_t partition = 0;
    PairId pair = kInvalidPairId;
    if (LocatePair(link, &partition, &pair)) {
      partitions_[partition].AddInitialCandidate(pair);
    } else {
      extras_links_.push_back(link);
    }
  }
  ResetExtras();
  MarkCandidateBaseline();
}

void AlexEngine::RestoreBlacklistEntry(const linking::Link& link) {
  uint32_t partition = 0;
  PairId pair = kInvalidPairId;
  if (LocatePair(link, &partition, &pair)) {
    partitions_[partition].RestoreBlacklistEntry(pair);
  }
}

void AlexEngine::RestorePolicyEntry(const linking::Link& state,
                                    const FeatureKey& action) {
  uint32_t partition = 0;
  PairId pair = kInvalidPairId;
  if (LocatePair(state, &partition, &pair)) {
    partitions_[partition].RestorePolicyEntry(pair, catalog_.Intern(action));
  }
}

void AlexEngine::RestoreReturnEntry(const linking::Link& state,
                                    const FeatureKey& action, double sum,
                                    uint64_t count) {
  uint32_t partition = 0;
  PairId pair = kInvalidPairId;
  if (LocatePair(state, &partition, &pair)) {
    partitions_[partition].RestoreReturnEntry(
        StateAction{pair, catalog_.Intern(action)}, sum, count);
  }
}

void AlexEngine::BeginExternalEpisode() {
  ++episodes_run_;
  external_counts_ = {};
  for (PartitionAlex& partition : partitions_) partition.BeginEpisode();
}

size_t AlexEngine::EndExternalEpisode(EpisodeStats* stats) {
  for (PartitionAlex& partition : partitions_) partition.EndEpisode();
  EpisodeStats unused;
  return CloseEpisode(external_counts_, stats != nullptr ? stats : &unused);
}

}  // namespace alex::core
