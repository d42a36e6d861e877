// sparql_query — run a SPARQL query against one or more N-Triples files.
//
//   sparql_query "SELECT ..." --data a.nt [--data b.nt ...]
//                [--links links.tsv] [--explain]
//
// With a single data file the plain executor is used; --explain prints the
// planned engine's physical operator tree with per-operator cost and
// cardinality estimates next to the rows each operator actually produced.
// With several files, the federated engine evaluates the query across all
// of them, bridging entities through the owl:sameAs links from --links
// (TSV or N-Triples); answers are printed with their link provenance.
#include <iostream>
#include <memory>

#include "cli_common.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "linking/link_io.h"
#include "sparql/executor.h"
#include "sparql/results_io.h"
#include "sparql/parser.h"

namespace alex::tools {
namespace {

void PrintBinding(const sparql::Binding& binding) {
  bool first = true;
  for (const auto& [var, term] : binding) {
    if (!first) std::cout << "  ";
    first = false;
    std::cout << "?" << var << " = " << term.ToString();
  }
  if (binding.empty()) std::cout << "(empty row)";
  std::cout << "\n";
}

int Main(int argc, char** argv) {
  CommandLine cmd = ParseArgs(argc, argv);
  if (cmd.positional.empty() || !cmd.Has("data")) {
    std::cerr << "usage: sparql_query \"<query>\" --data file.nt "
                 "[--data more.nt ...] [--links links.tsv] [--explain]\n";
    return 2;
  }
  Result<sparql::Query> query = sparql::ParseQuery(cmd.positional[0]);
  if (!query.ok()) {
    std::cerr << "query error: " << query.status().ToString() << "\n";
    return 2;
  }

  std::vector<rdf::TripleStore> stores;
  stores.reserve(cmd.GetAll("data").size());
  for (const std::string& path : cmd.GetAll("data")) {
    stores.push_back(LoadStoreOrDie(path));
  }

  const std::string format = cmd.GetString("format", "plain");
  if (stores.size() == 1 && !cmd.Has("links")) {
    if (cmd.Has("explain")) {
      Result<std::string> plan = sparql::Explain(query.value(), stores[0]);
      if (!plan.ok()) {
        std::cerr << plan.status().ToString() << "\n";
        return 1;
      }
      std::cout << plan.value();
      return 0;
    }
    if (query->is_ask) {
      Result<bool> answer = sparql::Ask(query.value(), stores[0]);
      if (!answer.ok()) {
        std::cerr << answer.status().ToString() << "\n";
        return 1;
      }
      if (format == "json") {
        std::cout << sparql::AskResultToJson(answer.value()) << "\n";
      } else {
        std::cout << (answer.value() ? "yes" : "no") << "\n";
      }
      return 0;
    }
    Result<std::vector<sparql::Binding>> rows =
        sparql::Execute(query.value(), stores[0]);
    if (!rows.ok()) {
      std::cerr << rows.status().ToString() << "\n";
      return 1;
    }
    std::vector<std::string> vars =
        sparql::ResultVariables(query.value(), rows.value());
    if (format == "csv") {
      std::cout << sparql::ResultsToCsv(rows.value(), vars);
    } else if (format == "tsv") {
      std::cout << sparql::ResultsToTsv(rows.value(), vars);
    } else if (format == "json") {
      std::cout << sparql::ResultsToJson(rows.value(), vars) << "\n";
    } else {
      for (const sparql::Binding& row : rows.value()) PrintBinding(row);
      std::cout << rows->size() << " row(s)\n";
    }
    return 0;
  }

  fed::StagedLinkSet links;
  if (cmd.Has("links")) {
    const std::string path = cmd.GetString("links");
    Result<std::vector<linking::Link>> loaded =
        EndsWith(path, ".nt") ? linking::LoadLinksNTriples(path)
                              : linking::LoadLinksTsv(path);
    if (!loaded.ok()) {
      std::cerr << "links error: " << loaded.status().ToString() << "\n";
      return 2;
    }
    for (const linking::Link& link : loaded.value()) links.Stage(link, true);
  }
  const std::shared_ptr<const fed::LinkView> view = links.Publish();
  std::vector<const rdf::TripleStore*> sources;
  for (const rdf::TripleStore& store : stores) sources.push_back(&store);
  fed::FederatedEngine engine(sources, view.get());
  Result<fed::FederatedResult> executed = engine.Execute(query.value());
  if (!executed.ok()) {
    std::cerr << executed.status().ToString() << "\n";
    return 1;
  }
  const std::vector<fed::FederatedAnswer>& answers = executed->answers;
  if (query->is_ask) {
    std::cout << (answers.empty() ? "no" : "yes") << "\n";
    return 0;
  }
  for (const fed::FederatedAnswer& answer : answers) {
    PrintBinding(answer.binding);
    for (const linking::Link& link : answer.links_used) {
      std::cout << "    via sameAs(" << link.left << ", " << link.right
                << ")\n";
    }
  }
  std::cout << answers.size() << " row(s)";
  if (!executed->complete) std::cout << " (incomplete)";
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace alex::tools

int main(int argc, char** argv) { return alex::tools::Main(argc, argv); }
