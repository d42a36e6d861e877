// Figure 6: effect of the blacklist (§6.3) on DBpedia - NYTimes.
//  (a) F-measure with vs. without the blacklist (similar curves);
//  (b) percentage of negative feedback per episode (clearly lower with the
//      blacklist: the user never has to reject the same link twice).
#include "bench_common.h"

int main() {
  using alex::bench::Column;
  using alex::bench::Metric;

  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  config.alex.max_episodes = 16;
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  std::vector<alex::linking::Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);

  config.alex.use_blacklist = true;
  alex::Result<alex::eval::ExperimentResult> with_bl =
      alex::eval::RunExperimentOnWorld(config, world, initial);
  ALEX_CHECK(with_bl.ok()) << with_bl.status().ToString();

  config.alex.use_blacklist = false;
  alex::Result<alex::eval::ExperimentResult> without_bl =
      alex::eval::RunExperimentOnWorld(config, world, initial);
  ALEX_CHECK(without_bl.ok()) << without_bl.status().ToString();

  alex::bench::PrintComparison(
      "Figure 6(a): F-measure with/without blacklist", "f-measure",
      {"with", "without"},
      {Column(with_bl.value(), Metric::kFMeasure),
       Column(without_bl.value(), Metric::kFMeasure)});
  alex::bench::PrintComparison(
      "Figure 6(b): negative feedback share with/without blacklist",
      "% negative feedback", {"with", "without"},
      {Column(with_bl.value(), Metric::kNegativePercent),
       Column(without_bl.value(), Metric::kNegativePercent)});
  return 0;
}
