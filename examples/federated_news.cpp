// The paper's motivating scenario (§1) end to end: "Find all New York Times
// articles about the NBA's MVP of 2013."
//
// The answer needs two data sets: a DBpedia-like knowledge base that knows
// who the MVP is, and a NYTimes-like archive that links articles to people.
// An owl:sameAs link bridges the two representations of the player. The
// example shows:
//   * federated SPARQL evaluation with sameAs bridging and provenance,
//   * how feedback on ANSWERS becomes feedback on LINKS,
//   * ALEX discovering a missing link so a previously unanswerable query
//     gains answers.
#include <iostream>
#include <memory>
#include <vector>

#include "core/alex_engine.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "rdf/triple_store.h"

using alex::core::AlexEngine;
using alex::core::AlexOptions;
using alex::fed::FederatedAnswer;
using alex::fed::FederatedEngine;
using alex::fed::LinkView;
using alex::fed::StagedLinkSet;
using alex::linking::Link;
using alex::rdf::Term;
using alex::rdf::TripleStore;

namespace {

void PrintAnswers(const std::vector<FederatedAnswer>& answers) {
  if (answers.empty()) {
    std::cout << "  (no answers)\n";
    return;
  }
  for (const FederatedAnswer& answer : answers) {
    std::cout << "  answer:";
    for (const auto& [var, term] : answer.binding) {
      std::cout << " ?" << var << " = " << term.ToString();
    }
    if (!answer.links_used.empty()) {
      std::cout << "   [via";
      for (const Link& link : answer.links_used) {
        std::cout << " sameAs(" << link.left << ", " << link.right << ")";
      }
      std::cout << "]";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  // DBpedia-like knowledge base.
  TripleStore dbpedia("dbpedia");
  auto person = [&](const char* id, const char* name, const char* award) {
    std::string iri = std::string("http://dbpedia.org/resource/") + id;
    dbpedia.Add(Term::Iri(iri), Term::Iri("http://dbpedia.org/name"),
                Term::StringLiteral(name));
    if (award != nullptr) {
      dbpedia.Add(Term::Iri(iri), Term::Iri("http://dbpedia.org/award"),
                  Term::StringLiteral(award));
    }
    return iri;
  };
  std::string lebron = person("LeBron_James", "LeBron James",
                              "NBA Most Valuable Player 2013");
  std::string durant = person("Kevin_Durant", "Kevin Durant",
                              "NBA Most Valuable Player 2014");
  person("Tim_Duncan", "Tim Duncan", nullptr);

  // NYTimes-like archive: articles about people.
  TripleStore nytimes("nytimes");
  auto article = [&](const char* id, const char* about_id,
                     const char* about_name) {
    std::string iri = std::string("http://data.nytimes.com/article/") + id;
    std::string about = std::string("http://data.nytimes.com/person/") +
                        about_id;
    nytimes.Add(Term::Iri(iri), Term::Iri("http://data.nytimes.com/about"),
                Term::Iri(about));
    nytimes.Add(Term::Iri(about),
                Term::Iri("http://data.nytimes.com/elements/name"),
                Term::StringLiteral(about_name));
    return about;
  };
  std::string nyt_lebron = article("88231", "lebron-james", "James, LeBron");
  article("90412", "lebron-james", "James, LeBron");
  std::string nyt_durant = article("91100", "kevin-durant", "Kevin Durant");

  // Initially only Durant is linked (say, by an automatic linker that
  // handled the clean spelling but missed "James, LeBron").
  const std::vector<Link> initial = {Link{durant, nyt_durant, 0.97}};
  StagedLinkSet staged;
  for (const Link& link : initial) staged.Stage(link, true);
  std::shared_ptr<const LinkView> links = staged.Publish();

  const std::string kQuery =
      "SELECT ?article WHERE { "
      "?player <http://dbpedia.org/award> "
      "\"NBA Most Valuable Player 2013\" . "
      "?article <http://data.nytimes.com/about> ?player }";

  FederatedEngine fed({&dbpedia, &nytimes}, links.get());
  std::cout << "Query: find NYT articles about the NBA MVP of 2013\n";
  std::cout << "\nBefore ALEX (LeBron is not linked):\n";
  auto before = fed.ExecuteText(kQuery);
  if (!before.ok()) {
    std::cerr << before.status().ToString() << "\n";
    return 1;
  }
  PrintAnswers(before->answers);

  // Run ALEX: the user approves an answer produced via the Durant link,
  // ALEX explores around it in feature space and discovers the LeBron link
  // (their (name, name) similarity scores are close).
  AlexOptions options;
  options.num_partitions = 1;
  options.episode_size = 10;
  options.max_episodes = 10;
  options.step_size = 0.2;  // small data: explore a wider band
  AlexEngine alex(&dbpedia, &nytimes, options);
  alex::Status st = alex.Initialize(initial);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  // ALEX's link changes reach the queries one way: staged as they happen,
  // published as the next link view after each round.
  alex.SetLinkChangeObserver([&staged](const Link& link, bool added) {
    staged.Stage(link, added);
  });

  // Feedback loop: issue a query that uses the Durant link, approve its
  // answer (it is correct), and let ALEX take actions.
  const std::string kDurantQuery =
      "SELECT ?article WHERE { "
      "?player <http://dbpedia.org/award> "
      "\"NBA Most Valuable Player 2014\" . "
      "?article <http://data.nytimes.com/about> ?player }";
  for (int round = 0; round < 5; ++round) {
    FederatedEngine fed_round({&dbpedia, &nytimes}, links.get());
    auto answers = fed_round.ExecuteText(kDurantQuery);
    if (!answers.ok()) break;
    alex.BeginExternalEpisode();
    for (const FederatedAnswer& answer : answers->answers) {
      for (const Link& used : answer.links_used) {
        alex.ApplyLinkFeedback(used, /*positive=*/true);  // user approves
      }
    }
    alex.EndExternalEpisode();  // stages the round's net link changes
    links = staged.Publish();
  }

  // Re-run the MVP query over ALEX's latest links.
  std::cout << "\nALEX now proposes " << links->size() << " links";
  std::cout << (links->Contains(lebron, nyt_lebron)
                    ? " (including LeBron!)\n"
                    : "\n");
  FederatedEngine fed_after({&dbpedia, &nytimes}, links.get());
  std::cout << "\nAfter ALEX:\n";
  auto after = fed_after.ExecuteText(kQuery);
  if (!after.ok()) {
    std::cerr << after.status().ToString() << "\n";
    return 1;
  }
  PrintAnswers(after->answers);
  return after->answers.empty() ? 1 : 0;
}
