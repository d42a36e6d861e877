// Figure 5: filtering to reduce the search space (§6.1, §7.3).
//  (a) total possible links between the first partition of the left data
//      set and the whole right data set vs. the θ-filtered space;
//  (b) the filtered space vs. the ground truth links of that partition;
//  (c) the bytes the space's pair layout holds per kept pair.
// Paper: filtering removes ~95% of the pairs; ground truth is ~0.2% of the
// filtered space.
#include <iomanip>
#include <iostream>
#include <unordered_set>

#include "bench_common.h"
#include "core/feature_space.h"
#include "core/partitioner.h"
#include "linking/link.h"

int main() {
  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);

  // First of the 8 partitions against the whole right data set (§7.3).
  auto partitions = alex::core::EqualSizePartition(world.left.Subjects(),
                                                   config.alex.num_partitions);
  alex::core::FeatureCatalog catalog;
  alex::core::FeatureSpace space = alex::core::FeatureSpace::Build(
      world.left, partitions[0], world.right, world.right.Subjects(),
      &catalog, config.alex.space);

  // Ground truth links whose left entity is in this partition.
  std::unordered_set<std::string> partition_lefts;
  for (const alex::core::PreparedEntity& e : space.left_entities()) {
    partition_lefts.insert(e.iri);
  }
  size_t truth_in_partition = 0;
  for (const alex::linking::Link& link : world.ground_truth) {
    if (partition_lefts.count(link.left) > 0) ++truth_in_partition;
  }

  uint64_t total = space.total_pair_count();
  uint64_t scored = space.scored_pair_count();
  uint64_t filtered = space.pair_count();
  std::cout << "== Figure 5: search-space filtering (DBpedia - NYTimes, "
               "partition 1 of "
            << config.alex.num_partitions << ") ==\n"
            << std::fixed << std::setprecision(1);
  std::cout << "(a) total possible links:   " << total << "\n"
            << "    blocked (scored) pairs: " << scored << "  ("
            << 100.0 * (1.0 - static_cast<double>(scored) / total)
            << "% pruned unscored)\n"
            << "    filtered space (theta=" << config.alex.space.theta
            << "): " << filtered << "  ("
            << 100.0 * (1.0 - static_cast<double>(filtered) / total)
            << "% removed)\n";
  std::cout << std::setprecision(2)
            << "(b) filtered space:         " << filtered << "\n"
            << "    ground truth links:     " << truth_in_partition << "  ("
            << 100.0 * static_cast<double>(truth_in_partition) / filtered
            << "% of the filtered space)\n";
  std::cout << std::setprecision(1)
            << "(c) space layout:           " << space.MemoryBytes()
            << " bytes, "
            << static_cast<double>(space.MemoryBytes()) / filtered
            << " per kept pair\n";
  return 0;
}
