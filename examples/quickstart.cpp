// Quickstart: the smallest end-to-end ALEX pipeline.
//
//   1. Build two tiny RDF data sets by hand (different vocabularies, noisy
//      values on one side).
//   2. Produce initial candidate links with PARIS.
//   3. Run ALEX against a ground-truth feedback oracle.
//   4. Print the links before and after.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "core/alex_engine.h"
#include "eval/experiment.h"
#include "feedback/oracle.h"
#include "linking/paris.h"
#include "rdf/triple_store.h"

using alex::core::AlexEngine;
using alex::core::AlexOptions;
using alex::feedback::GroundTruth;
using alex::linking::Link;
using alex::rdf::Term;
using alex::rdf::TripleStore;

namespace {

struct Scientist {
  const char* id;
  const char* name;
  const char* noisy_name;  // how the right data set spells it
  int birth_year;
};

// Birth years collide on purpose: a shared year is weak linking evidence
// (low inverse functionality), so PARIS cannot use it alone and misses the
// scientists whose names the archive spells differently.
constexpr Scientist kScientists[] = {
    {"curie", "Marie Curie", "Curie, Marie", 1867},
    {"einstein", "Albert Einstein", "Albert Einstein", 1879},
    {"dirac", "Paul Dirac", "P. Dirac", 1867},
    {"noether", "Emmy Noether", "Emmy Noether", 1879},
    {"bohr", "Niels Bohr", "Niels Bhor", 1867},
    {"meitner", "Lise Meitner", "Meitner, Lise", 1879},
};

}  // namespace

int main() {
  // 1. Two data sets about the same scientists with different predicate
  // vocabularies; the right one has formatting noise.
  TripleStore left("encyclopedia");
  TripleStore right("archive");
  GroundTruth truth;
  for (const Scientist& s : kScientists) {
    std::string l = std::string("http://encyclopedia.example/") + s.id;
    std::string r = std::string("http://archive.example/rec-") + s.id;
    left.Add(Term::Iri(l), Term::Iri("http://encyclopedia.example/name"),
             Term::StringLiteral(s.name));
    left.Add(Term::Iri(l), Term::Iri("http://encyclopedia.example/born"),
             Term::IntegerLiteral(s.birth_year));
    right.Add(Term::Iri(r), Term::Iri("http://archive.example/label"),
              Term::StringLiteral(s.noisy_name));
    right.Add(Term::Iri(r), Term::Iri("http://archive.example/birthYear"),
              Term::IntegerLiteral(s.birth_year));
    truth.Add(Link{l, r, 1.0});
  }

  // 2. Automatic linking: PARIS needs exact values, so it only finds the
  // clean spellings.
  std::vector<Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(left, right), alex::linking::kParisThreshold);
  std::cout << "PARIS found " << initial.size() << " / " << truth.size()
            << " links:\n";
  for (const Link& link : initial) {
    std::cout << "  " << link.left << "  <->  " << link.right << "\n";
  }

  // 3. ALEX explores around approved links and recovers the noisy ones.
  AlexOptions options;
  options.num_partitions = 1;
  options.episode_size = 20;
  options.max_episodes = 20;
  AlexEngine engine(&left, &right, options);
  alex::Status st = engine.Initialize(initial);
  if (!st.ok()) {
    std::cerr << "initialization failed: " << st.ToString() << "\n";
    return 1;
  }
  alex::Result<alex::eval::ExperimentResult> run = alex::eval::RunEpisodes(
      &engine, truth, "quickstart", options.max_episodes, [&] {
        return engine.RunEpisode(
            [&truth](const Link& link) { return truth.Contains(link); });
      });
  if (!run.ok()) {
    std::cerr << "episodes failed: " << run.status().ToString() << "\n";
    return 1;
  }

  // 4. Result.
  std::vector<Link> final_links = engine.CandidateLinks();
  size_t correct = 0;
  for (const Link& link : final_links) {
    if (truth.Contains(link)) ++correct;
  }
  std::cout << "\nALEX converged after " << run->episodes
            << " episodes with " << final_links.size() << " links ("
            << correct << " correct of " << truth.size()
            << " ground truth):\n";
  for (const Link& link : final_links) {
    std::cout << "  " << link.left << "  <->  " << link.right
              << (truth.Contains(link) ? "" : "   [WRONG]") << "\n";
  }
  return correct == truth.size() ? 0 : 1;
}
