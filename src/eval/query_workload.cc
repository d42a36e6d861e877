#include "eval/query_workload.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.h"
#include "federation/federated_engine.h"
#include "federation/query_cache.h"
#include "rdf/entity_view.h"
#include "sparql/plan_cache.h"

namespace alex::eval {
namespace {

// Escapes a literal value for embedding in a SPARQL string.
std::string QuoteLiteral(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

}  // namespace

std::vector<WorkloadQuery> GenerateWorkload(
    const datagen::GeneratedWorld& world, const WorkloadOptions& options) {
  Rng rng(options.seed);
  std::vector<WorkloadQuery> queries;

  // Right-side predicates to project (vocabulary of the right store).
  std::vector<std::string> right_predicates;
  for (rdf::TermId p : world.right.Predicates()) {
    right_predicates.push_back(
        world.right.dictionary().term(p).lexical());
  }
  if (right_predicates.empty()) return queries;

  std::vector<rdf::TermId> left_subjects = world.left.Subjects();
  std::unordered_set<std::string> seen;
  size_t attempts = 0;
  while (queries.size() < options.num_queries &&
         attempts < options.num_queries * 10) {
    ++attempts;
    rdf::TermId subject =
        left_subjects[rng.NextBounded(left_subjects.size())];
    rdf::Entity entity = rdf::GetEntity(world.left, subject);
    if (entity.attributes.empty()) continue;
    const rdf::Attribute& attr =
        entity.attributes[rng.NextBounded(entity.attributes.size())];
    const rdf::Term& predicate =
        world.left.dictionary().term(attr.predicate);
    const rdf::Term& value = world.left.dictionary().term(attr.object);
    if (!value.is_literal()) continue;

    const std::string& right_predicate =
        right_predicates[rng.NextBounded(right_predicates.size())];
    WorkloadQuery query;
    query.about_left_entity =
        world.left.dictionary().term(subject).lexical();
    query.text = "SELECT ?val WHERE { ?e <" + predicate.lexical() + "> " +
                 QuoteLiteral(value.lexical()) + " . ?e <" +
                 right_predicate + "> ?val }";
    if (seen.insert(query.text).second) {
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

ExperimentResult RunQueryDrivenExperiment(
    core::AlexEngine* engine, const datagen::GeneratedWorld& world,
    const feedback::GroundTruth& truth, const QueryDrivenOptions& options) {
  ExperimentResult result;
  result.profile_name = "query_driven";
  result.ground_truth_size = truth.size();
  result.total_pairs = engine->total_pair_count();
  result.filtered_pairs = engine->filtered_pair_count();
  result.init_seconds = engine->init_seconds();

  std::vector<linking::Link> initial_links = engine->CandidateLinks();
  result.initial_link_count = initial_links.size();
  for (const linking::Link& link : initial_links) {
    if (truth.Contains(link)) ++result.initial_correct;
  }

  std::vector<WorkloadQuery> workload =
      GenerateWorkload(world, options.workload);
  feedback::Oracle oracle(&truth, options.feedback_error_rate,
                          options.oracle_seed);
  Rng rng(options.workload.seed ^ 0x5eedf00dULL);

  EpisodePoint start;
  start.episode = 0;
  start.quality = Evaluate(engine->CandidateLinks(), truth);
  result.series.push_back(start);

  // Persistent federation state. The link set is maintained incrementally:
  // the engine reports net candidate membership changes at every episode
  // boundary (EndExternalEpisode), so queries within an episode all see the
  // same links (the paper evaluates the policy within an episode and only
  // changes it between episodes) without re-materializing CandidateLinks().
  // The same deltas invalidate exactly the cached query results whose
  // consulted link neighborhoods changed.
  fed::LinkSet links;
  for (const linking::Link& link : initial_links) links.Add(link);
  fed::FederatedQueryCache cache;
  std::vector<const rdf::TripleStore*> sources = {&world.left, &world.right};
  // With a non-zero fault profile every source becomes an unreliable
  // endpoint and the engine runs its resilient path; a zero profile keeps
  // the seed construction (plain local stores), bit-for-bit.
  std::vector<std::unique_ptr<fed::LocalEndpoint>> local_endpoints;
  std::vector<std::unique_ptr<fed::FaultInjectingEndpoint>> faulty_endpoints;
  std::optional<fed::FederatedEngine> engine_storage;
  if (options.fault_profile.IsZero()) {
    engine_storage.emplace(sources, &links);
  } else {
    std::vector<fed::Endpoint*> endpoints;
    for (size_t i = 0; i < sources.size(); ++i) {
      local_endpoints.push_back(
          std::make_unique<fed::LocalEndpoint>(sources[i]));
      faulty_endpoints.push_back(
          std::make_unique<fed::FaultInjectingEndpoint>(
              local_endpoints.back().get(), i, options.fault_profile));
      endpoints.push_back(faulty_endpoints.back().get());
    }
    engine_storage.emplace(std::move(endpoints), &links);
    engine_storage->set_resilience(options.resilience);
  }
  fed::FederatedEngine& fed_engine = *engine_storage;
  if (options.use_query_cache) fed_engine.set_cache(&cache);
  sparql::PlanCache plan_cache;
  if (options.use_plan_cache) fed_engine.set_plan_cache(&plan_cache);
  fed::FederatedOptions fed_options;
  fed_options.pool = options.pool;
  fed_options.deadline_micros = options.deadline_micros;
  engine->SetLinkChangeObserver(
      [&links, &cache](const linking::Link& link, bool added) {
        if (added) {
          links.Add(link);
        } else {
          links.Remove(link.left, link.right);
        }
        cache.InvalidateLink(link);
      });

  Stopwatch run_timer;
  size_t previous_candidates = engine->CandidateCount();
  for (int episode = 1; episode <= options.max_episodes; ++episode) {
    core::EpisodeStats stats;
    stats.episode = episode;
    engine->BeginExternalEpisode();

    std::vector<size_t> order(workload.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);

    // Each link is judged at most once per episode: different answers often
    // share the same provenance link, and re-judging it adds no
    // information (mirrors the engine's first-visit semantics).
    std::unordered_set<linking::Link, linking::LinkHash> judged;
    // Provenance links seen only through incomplete answer sets. They
    // receive no feedback (a degraded answer set can misrepresent a link's
    // effect); the count of those never judged elsewhere this episode is
    // reported as skipped_feedback.
    std::unordered_set<linking::Link, linking::LinkHash> skipped;
    for (size_t index : order) {
      if (stats.feedback_items >= options.episode_size) break;
      Result<fed::FederatedResult> executed =
          fed_engine.ExecuteText(workload[index].text, fed_options);
      if (!executed.ok()) continue;
      const fed::FederatedResult& result_set = executed.value();
      stats.query_probes += result_set.probes;
      stats.query_retries += result_set.retries;
      stats.breaker_short_circuits += result_set.short_circuits;
      if (!result_set.complete) {
        // Degraded evidence: an answer set with missing rows or sources
        // must not judge links. Positive verdicts could reward a link that
        // only looks good because contradicting rows are missing.
        ++stats.incomplete_queries;
        for (const fed::FederatedAnswer& answer : result_set.answers) {
          for (const linking::Link& link : answer.links_used) {
            skipped.insert(link);
          }
        }
        continue;
      }
      for (const fed::FederatedAnswer& answer : result_set.answers) {
        if (stats.feedback_items >= options.episode_size) break;
        // §3.2: the user judges the ANSWER; the verdict applies to every
        // link in its provenance.
        for (const linking::Link& link : answer.links_used) {
          if (!judged.insert(link).second) continue;
          bool approved = oracle.Feedback(link);
          const core::PartitionAlex::FeedbackOutcome outcome =
              engine->ApplyLinkFeedback(link, approved);
          stats.rollbacks += outcome.rollbacks;
          stats.rolled_back_links += outcome.rolled_back_links;
          ++stats.feedback_items;
          if (approved) {
            ++stats.positive_feedback;
          } else {
            ++stats.negative_feedback;
          }
        }
      }
    }
    for (const linking::Link& link : skipped) {
      if (judged.find(link) == judged.end()) ++stats.skipped_feedback;
    }
    fed::FederatedQueryCache::Stats cache_stats = cache.TakeStats();
    stats.query_cache_hits = cache_stats.hits;
    stats.query_cache_misses = cache_stats.misses;
    sparql::PlanCache::Stats plan_stats = plan_cache.TakeStats();
    stats.plan_cache_hits = plan_stats.parse_hits + plan_stats.plan_hits;
    stats.plan_cache_misses =
        plan_stats.parse_misses + plan_stats.plan_misses;
    fed::FederatedEngine::FaultStats fault_stats =
        fed_engine.TakeFaultStats();
    stats.breaker_opens = fault_stats.breaker_opens;
    stats.breaker_half_opens = fault_stats.breaker_half_opens;
    stats.breaker_closes = fault_stats.breaker_closes;
    // The episode boundary: fires the observer above (updating links and
    // invalidating cache entries) and reports the net membership changes —
    // the symmetric difference with the episode start, not a count delta.
    size_t changed = engine->EndExternalEpisode();

    stats.candidate_count = engine->CandidateCount();
    stats.change_fraction =
        static_cast<double>(changed) /
        static_cast<double>(std::max<size_t>(1, previous_candidates));
    previous_candidates = stats.candidate_count;

    EpisodePoint point;
    point.episode = episode;
    point.stats = stats;
    point.quality = Evaluate(engine->CandidateLinks(), truth);
    result.series.push_back(point);
    ++result.episodes;
    if (result.relaxed_episode < 0 && stats.change_fraction < 0.05) {
      result.relaxed_episode = episode;
    }
    if (stats.feedback_items == 0 || stats.change_fraction == 0.0) {
      result.converged = stats.change_fraction == 0.0;
      break;
    }
  }
  engine->SetLinkChangeObserver(nullptr);
  result.total_seconds = run_timer.ElapsedSeconds();
  result.new_links_discovered =
      NewCorrectLinks(initial_links, engine->CandidateLinks(), truth);
  return result;
}

}  // namespace alex::eval
