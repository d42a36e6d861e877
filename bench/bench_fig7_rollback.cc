// Figure 7: effect of the rollback optimization (§6.3) on DBpedia -
// NYTimes.
//  (a) overall quality WITHOUT rollback: after the first episode precision
//      collapses and barely recovers even at the episode cap;
//  (b) a partition that recovers from wrong decisions;
//  (c) a partition that does not recover within the cap.
// Per-partition quality is measured against the ground truth restricted to
// the partition's left entities.
#include <iomanip>
#include <iostream>
#include <unordered_set>

#include "bench_common.h"
#include "core/alex_engine.h"
#include "feedback/oracle.h"

namespace {

using alex::core::AlexEngine;
using alex::core::PartitionAlex;
using alex::linking::Link;

struct PartitionQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f_measure = 0.0;
};

PartitionQuality EvaluatePartition(const PartitionAlex& partition,
                                   const alex::feedback::GroundTruth& truth) {
  PartitionQuality q;
  size_t correct = 0;
  size_t truth_in_partition = 0;
  std::unordered_set<std::string> lefts;
  for (const alex::core::PreparedEntity& e :
       partition.space().left_entities()) {
    lefts.insert(e.iri);
  }
  for (const Link& link : truth.links()) {
    if (lefts.count(link.left) > 0) ++truth_in_partition;
  }
  for (alex::core::PairId pair : partition.candidates().items()) {
    Link link{partition.space().LeftIri(pair),
              partition.space().RightIri(pair), 1.0};
    if (truth.Contains(link)) ++correct;
  }
  size_t candidates = partition.candidates().size();
  if (candidates > 0) {
    q.precision = static_cast<double>(correct) / candidates;
  }
  if (truth_in_partition > 0) {
    q.recall = static_cast<double>(correct) / truth_in_partition;
  }
  if (q.precision + q.recall > 0) {
    q.f_measure = 2 * q.precision * q.recall / (q.precision + q.recall);
  }
  return q;
}

}  // namespace

int main() {
  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  config.alex.use_rollback = false;  // the whole point of this figure
  config.alex.max_episodes = 100;    // the paper's cap
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  std::vector<Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);
  alex::feedback::GroundTruth truth(world.ground_truth);

  AlexEngine engine(&world.left, &world.right, config.alex);
  alex::Status st = engine.Initialize(initial);
  ALEX_CHECK(st.ok()) << st.ToString();
  alex::feedback::Oracle oracle(&truth, 0.0, config.oracle_seed);

  std::cout << "== Figure 7(a): overall quality WITHOUT rollback ==\n"
            << std::setw(8) << "episode" << std::setw(11) << "precision"
            << std::setw(9) << "recall" << std::setw(11) << "f-measure"
            << "\n"
            << std::fixed;
  // Track per-partition F-measure series to find recovering and
  // non-recovering partitions (Figures 7b, 7c).
  std::vector<std::vector<double>> partition_f(engine.partitions().size());
  for (int episode = 0; episode < config.alex.max_episodes; ++episode) {
    alex::core::EpisodeStats stats = engine.RunEpisode(
        [&oracle](const Link& link) { return oracle.Feedback(link); });
    alex::eval::Quality q =
        alex::eval::Evaluate(engine.CandidateLinks(), truth);
    std::cout << std::setw(8) << stats.episode << std::setprecision(3)
              << std::setw(11) << q.precision << std::setw(9) << q.recall
              << std::setw(11) << q.f_measure << "\n";
    for (size_t p = 0; p < engine.partitions().size(); ++p) {
      partition_f[p].push_back(
          EvaluatePartition(engine.partitions()[p], truth).f_measure);
    }
    if (stats.change_fraction == 0.0) break;
  }

  // Pick the best- and worst-ending partitions.
  size_t best = 0, worst = 0;
  for (size_t p = 1; p < partition_f.size(); ++p) {
    if (partition_f[p].back() > partition_f[best].back()) best = p;
    if (partition_f[p].back() < partition_f[worst].back()) worst = p;
  }
  auto print_partition = [&](const char* title, size_t p) {
    std::cout << "\n== " << title << " (partition " << p << ") ==\n"
              << std::setw(8) << "episode" << std::setw(11) << "f-measure"
              << "\n";
    for (size_t e = 0; e < partition_f[p].size(); ++e) {
      std::cout << std::setw(8) << e + 1 << std::setprecision(3)
                << std::setw(11) << partition_f[p][e] << "\n";
    }
  };
  print_partition("Figure 7(b): a partition that recovers", best);
  print_partition("Figure 7(c): a partition that does not recover", worst);
  std::cout.unsetf(std::ios::fixed);

  // Contrast: the same configuration WITH rollback converges quickly.
  config.alex.use_rollback = true;
  alex::Result<alex::eval::ExperimentResult> with_rb =
      alex::eval::RunExperimentOnWorld(config, world, initial);
  ALEX_CHECK(with_rb.ok());
  std::cout << "\nWith rollback (same data): converged after "
            << with_rb->episodes << " episodes at F = " << std::setprecision(3)
            << with_rb->final_quality().f_measure << "\n";
  return 0;
}
