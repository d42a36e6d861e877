// Synthetic linked-data generation.
//
// The paper evaluates on LOD data sets (DBpedia, OpenCyc, NYTimes, Drugbank,
// Lexvo, Semantic Web Dogfood, NBA subsets — Table 1) that are not available
// offline and are far beyond single-core scale. This generator substitutes
// them (see DESIGN.md): it creates a population of "world entities" and
// projects each into two RDF data sets with distinct predicate vocabularies
// and controllable noise, which yields
//   * ground truth for free (pairs projected from the same world entity),
//   * heterogeneity between the two sides (different predicates, formats),
//   * regimes that steer the quality of PARIS' initial links:
//       - `right_noise` garbles values on the right side → PARIS (which
//         needs exact value matches) misses links → low recall;
//       - `confusable_pairs` emits left/right entity pairs with identical
//         values that are NOT the same real-world entity → PARIS links them
//         → low precision.
#ifndef ALEX_DATAGEN_WORLD_H_
#define ALEX_DATAGEN_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linking/link.h"
#include "rdf/triple_store.h"

namespace alex::datagen {

// One attribute of the world schema and how it projects into the two sides.
struct AttributeSpec {
  enum class Kind {
    kName,      // person-like "First Last" synthetic name
    kPhrase,    // 2-4 words drawn from a bounded vocabulary
    kInteger,   // uniform integer in [min_value, max_value]
    kDate,      // random ISO date in [1940, 2010]
    kCategory,  // one of `vocab_size` category labels (low selectivity —
                // the paper's (rdf:type, rdf:type) example)
  };

  std::string left_predicate;
  std::string right_predicate;
  Kind kind = Kind::kName;
  // Probability the attribute is present on each side (attribute dropout).
  double left_presence = 1.0;
  double right_presence = 1.0;
  // Probability that the right-side copy of the value is perturbed, and how
  // strongly (0..1; drives the number of edit operations).
  double right_noise = 0.0;
  double noise_strength = 0.3;
  // kPhrase / kCategory vocabulary size (small values ⇒ many collisions).
  int vocab_size = 500;
  // kInteger range.
  int min_value = 0;
  int max_value = 2000;
};

struct WorldProfile {
  std::string name = "world";
  std::string left_store_name = "left";
  std::string right_store_name = "right";
  std::string left_namespace = "http://left.example.org/resource/";
  std::string right_namespace = "http://right.example.org/resource/";
  // Entities present in both data sets (these are the ground truth links).
  size_t overlap_entities = 500;
  // Entities present in only one side (distractors).
  size_t left_only_entities = 200;
  size_t right_only_entities = 200;
  // Pairs of distinct left/right entities with (nearly) identical attribute
  // values that are NOT the same entity: they trap exact-match linkers.
  size_t confusable_pairs = 0;
  // How many attribute values of a confusable pair are perturbed (0 keeps
  // them exactly identical).
  double confusable_noise = 0.0;
  std::vector<AttributeSpec> attributes;
  uint64_t seed = 1;
};

// The generated data set pair plus the ground truth.
struct GeneratedWorld {
  rdf::TripleStore left;
  rdf::TripleStore right;
  std::vector<linking::Link> ground_truth;

  GeneratedWorld() : left("left"), right("right") {}
  GeneratedWorld(GeneratedWorld&&) = default;
  GeneratedWorld& operator=(GeneratedWorld&&) = default;
};

// Generates the data set pair described by `profile`. Deterministic in
// profile.seed.
GeneratedWorld Generate(const WorldProfile& profile);

// ---- World growth (live triple ingest) -----------------------------------
//
// A growth schedule extends a Generate(profile) world with NEW overlap-type
// entities — fresh IRIs on both sides plus their ground-truth links —
// without ever touching the triples of pre-existing entities (the additive
// contract AlexEngine::IngestTriples enforces). The same schedule object
// drives the ingest-differential tests and bench_gates' ingest gate, so
// both see byte-identical growth.

// One triple of a growth epoch, in term (not id) form: ids are assigned by
// the store the epoch is applied to.
struct GrowthTriple {
  rdf::Term subject;
  rdf::Term predicate;
  rdf::Term object;
};

// One ingest epoch: the new entities' triples for each side, the subject
// IRIs that appear for the first time, and the ground-truth links they add.
struct GrowthEpoch {
  std::vector<GrowthTriple> left_triples;
  std::vector<GrowthTriple> right_triples;
  std::vector<std::string> new_left_subjects;
  std::vector<std::string> new_right_subjects;
  std::vector<linking::Link> new_ground_truth;
};

struct GrowthSchedule {
  std::vector<GrowthEpoch> epochs;
};

// Builds `epochs` growth epochs for the world Generate(profile) produced,
// each adding max(1, fraction * profile.overlap_entities) new overlap
// entities. Entity ids continue after the base world's, and the attribute
// vocabularies are replayed from profile.seed, so values come from the same
// distribution as the base world. Deterministic in (profile.seed, seed,
// fraction, epochs); independent of any store state.
GrowthSchedule GrowWorld(const WorldProfile& profile, uint64_t seed,
                         double fraction, int epochs);

// Interns the epoch's terms into the two stores and ingests the triples
// (one IngestBatch per store). New subject IRIs intern AFTER every
// pre-existing term, which is exactly the TermId-watermark contract
// AlexEngine::IngestTriples detects growth by.
void ApplyGrowthEpoch(const GrowthEpoch& epoch, rdf::TripleStore* left,
                      rdf::TripleStore* right);

// Value-noise helpers, exported for tests.
// Applies typos (substitute/delete/transpose) to ~strength * len characters.
std::string ApplyTypos(const std::string& value, double strength, Rng* rng);
// Reorders "First Last" to "Last, First".
std::string ReorderName(const std::string& value);
// Abbreviates the first token to an initial ("LeBron James" -> "L. James").
std::string AbbreviateFirstToken(const std::string& value);
// Random pronounceable word of 2-4 syllables.
std::string RandomWord(Rng* rng);
// Random "First Last" name.
std::string RandomName(Rng* rng);

}  // namespace alex::datagen

#endif  // ALEX_DATAGEN_WORLD_H_
