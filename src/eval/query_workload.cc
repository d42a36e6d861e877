#include "eval/query_workload.h"

#include <unordered_set>
#include <utility>

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
    stats->plan_cache_hits = taken.parse_hits;
    stats->plan_cache_misses = taken.parse_misses;
  }
}

}  // namespace alex::eval
