// Figure 9 (Appendix C): effect of incorrect feedback. 10% of the feedback
// items are flipped. Expected: recall is robust; precision slightly worse
// than with correct feedback (wrong links kept alive by erroneous
// approvals); overall degradation small.
#include "bench_common.h"

int main() {
  using alex::bench::Column;
  using alex::bench::Metric;

  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  config.alex.max_episodes = 18;
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  std::vector<alex::linking::Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);

  config.feedback_error_rate = 0.0;
  alex::Result<alex::eval::ExperimentResult> correct =
      alex::eval::RunExperimentOnWorld(config, world, initial);
  ALEX_CHECK(correct.ok()) << correct.status().ToString();

  config.feedback_error_rate = 0.1;
  alex::Result<alex::eval::ExperimentResult> noisy =
      alex::eval::RunExperimentOnWorld(config, world, initial);
  ALEX_CHECK(noisy.ok()) << noisy.status().ToString();

  alex::bench::PrintComparison(
      "Figure 9(a): precision, correct vs 10% incorrect feedback",
      "precision", {"correct", "10% wrong"},
      {Column(correct.value(), Metric::kPrecision),
       Column(noisy.value(), Metric::kPrecision)});
  alex::bench::PrintComparison(
      "Figure 9(b): recall, correct vs 10% incorrect feedback", "recall",
      {"correct", "10% wrong"},
      {Column(correct.value(), Metric::kRecall),
       Column(noisy.value(), Metric::kRecall)});
  alex::bench::PrintComparison(
      "Figure 9(c): F-measure, correct vs 10% incorrect feedback",
      "f-measure", {"correct", "10% wrong"},
      {Column(correct.value(), Metric::kFMeasure),
       Column(noisy.value(), Metric::kFMeasure)});
  return 0;
}
