// Query-driven vs. oracle-driven feedback (not a paper figure; it closes
// the gap between the paper's §3.2 system description — feedback arrives on
// federated query answers — and its §7.1 evaluation shortcut — feedback on
// uniformly sampled links). The query-driven run is the serving loop with
// no reader streams: the learner's links reach the queries through
// published epochs. Expected: both improve the links dramatically;
// query-driven feedback converges on the links that queries actually
// exercise, so recall can plateau below the oracle-driven ceiling when the
// workload does not touch every entity.
#include <iomanip>
#include <iostream>

#include "bench_common.h"
#include "serving/serving_loop.h"

int main() {
  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("opencyc_nytimes");
  config.alex.max_episodes = 20;
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  alex::feedback::GroundTruth truth(world.ground_truth);
  std::vector<alex::linking::Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right, config.paris),
      config.paris_threshold);

  // Oracle-driven (the paper's §7.1 methodology).
  alex::Result<alex::eval::ExperimentResult> oracle_run =
      alex::eval::RunExperimentOnWorld(config, world, initial);
  ALEX_CHECK(oracle_run.ok()) << oracle_run.status().ToString();

  // Query-driven (the paper's §3.2 system loop).
  alex::core::AlexEngine engine(&world.left, &world.right, config.alex);
  alex::Status st = engine.Initialize(initial);
  ALEX_CHECK(st.ok()) << st.ToString();
  alex::serving::ServingLoopOptions qd;
  qd.workload.num_queries = 600;
  alex::Result<alex::serving::ServingRunResult> served =
      alex::serving::RunServingExperiment(&engine, world, truth, qd);
  ALEX_CHECK(served.ok()) << served.status().ToString();
  const alex::eval::ExperimentResult& query_run = served->experiment;

  alex::bench::PrintComparison(
      "Feedback source: oracle-sampled links vs federated query answers",
      "f-measure", {"oracle", "query-driven"},
      {alex::bench::Column(oracle_run.value(),
                           alex::bench::Metric::kFMeasure),
       alex::bench::Column(query_run, alex::bench::Metric::kFMeasure)});
  alex::bench::PrintComparison(
      "Recall under the two feedback sources", "recall",
      {"oracle", "query-driven"},
      {alex::bench::Column(oracle_run.value(),
                           alex::bench::Metric::kRecall),
       alex::bench::Column(query_run, alex::bench::Metric::kRecall)});

  auto best_f = [](const alex::eval::ExperimentResult& r) {
    double best = 0.0;
    for (const alex::eval::EpisodePoint& p : r.series) {
      best = std::max(best, p.quality.f_measure);
    }
    return best;
  };
  std::cout << std::fixed << std::setprecision(3)
            << "\noracle-driven:  best F = " << best_f(oracle_run.value())
            << ", final F = " << oracle_run->final_quality().f_measure
            << ", new links " << oracle_run->new_links_discovered << "\n"
            << "query-driven:   best F = " << best_f(query_run)
            << ", final F = " << query_run.final_quality().f_measure
            << ", new links " << query_run.new_links_discovered << "\n";
  return 0;
}
