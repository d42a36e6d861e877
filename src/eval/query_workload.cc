#include "eval/query_workload.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

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

void JudgeQueryAnswers(core::AlexEngine* engine,
                       const std::vector<WorkloadQuery>& workload,
                       const QueryExecutor& execute,
                       feedback::Oracle* oracle, Rng* rng,
                       core::EpisodeStats* stats) {
  const size_t budget = engine->options().episode_size;
  std::vector<size_t> order(workload.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);

  // One feedback item per judged link: judged.size() is the item count.
  std::unordered_set<linking::Link, linking::LinkHash> judged;
  // Provenance links of incomplete answer sets.
  std::unordered_set<linking::Link, linking::LinkHash> skipped;
  for (size_t index : order) {
    if (judged.size() >= budget) break;
    Result<fed::FederatedResult> executed = execute(workload[index].text);
    if (!executed.ok()) continue;
    const fed::FederatedResult& result_set = executed.value();
    stats->query_probes += result_set.probes;
    stats->query_retries += result_set.retries;
    stats->breaker_short_circuits += result_set.short_circuits;
    if (!result_set.complete) {
      // Degraded evidence: an answer set with missing rows or sources
      // must not judge links. Positive verdicts could reward a link that
      // only looks good because contradicting rows are missing.
      ++stats->incomplete_queries;
      for (const fed::FederatedAnswer& answer : result_set.answers) {
        skipped.insert(answer.links_used.begin(), answer.links_used.end());
      }
      continue;
    }
    for (const fed::FederatedAnswer& answer : result_set.answers) {
      if (judged.size() >= budget) break;
      // §3.2: the user judges the ANSWER; the verdict applies to every
      // link in its provenance.
      for (const linking::Link& link : answer.links_used) {
        if (!judged.insert(link).second) continue;
        engine->ApplyLinkFeedback(link, oracle->Feedback(link));
      }
    }
  }
  for (const linking::Link& link : skipped) {
    if (judged.find(link) == judged.end()) ++stats->skipped_feedback;
  }
}

void TakeCacheStats(fed::FederatedQueryCache* cache,
                    sparql::PlanCache* plan_cache, core::EpisodeStats* stats) {
  if (cache != nullptr) {
    const fed::FederatedQueryCache::Stats taken = cache->TakeStats();
    stats->query_cache_hits = taken.hits;
    stats->query_cache_misses = taken.misses;
  }
  if (plan_cache != nullptr) {
    const sparql::PlanCache::Stats taken = plan_cache->TakeStats();
    stats->plan_cache_hits = taken.parse_hits + taken.plan_hits;
    stats->plan_cache_misses = taken.parse_misses + taken.plan_misses;
  }
}

ExperimentResult RunQueryDrivenExperiment(
    core::AlexEngine* engine, const datagen::GeneratedWorld& world,
    const feedback::GroundTruth& truth, const QueryDrivenOptions& options) {
  const std::vector<WorkloadQuery> workload =
      GenerateWorkload(world, options.workload);
  feedback::Oracle oracle(&truth, options.feedback_error_rate,
                          options.oracle_seed);
  Rng rng(options.workload.seed ^ 0x5eedf00dULL);

  // Persistent federation state. The link set is maintained incrementally:
  // the engine reports net candidate membership changes at every episode
  // boundary (EndExternalEpisode), so queries within an episode all see the
  // same links (the paper evaluates the policy within an episode and only
  // changes it between episodes) without re-materializing CandidateLinks().
  // The same deltas invalidate exactly the cached query results whose
  // consulted link neighborhoods changed.
  fed::LinkSet links;
  for (const linking::Link& link : engine->CandidateLinks()) links.Add(link);
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

  auto episode = [&] {
    core::EpisodeStats stats;
    engine->BeginExternalEpisode();
    JudgeQueryAnswers(
        engine, workload,
        [&](const std::string& text) {
          return fed_engine.ExecuteText(text, fed_options);
        },
        &oracle, &rng, &stats);
    TakeCacheStats(&cache, &plan_cache, &stats);
    fed::FederatedEngine::FaultStats fault_stats =
        fed_engine.TakeFaultStats();
    stats.breaker_opens = fault_stats.breaker_opens;
    stats.breaker_half_opens = fault_stats.breaker_half_opens;
    stats.breaker_closes = fault_stats.breaker_closes;
    // The episode boundary: fires the observer below (updating links and
    // invalidating cache entries).
    engine->EndExternalEpisode(&stats);
    return stats;
  };
  EpisodeHooks hooks;
  hooks.on_link_change = [&links, &cache](const linking::Link& link,
                                          bool added) {
    if (added) {
      links.Add(link);
    } else {
      links.Remove(link.left, link.right);
    }
    cache.InvalidateLink(link);
  };
  return RunEpisodes(engine, truth, "query_driven",
                     engine->options().max_episodes, episode, hooks)
      .value();
}

}  // namespace alex::eval
