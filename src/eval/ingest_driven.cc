#include "eval/ingest_driven.h"

namespace alex::eval {

Result<ExperimentResult> RunIngestDrivenExperiment(
    const ExperimentConfig& config, const IngestDrivenOptions& ingest,
    datagen::GeneratedWorld* world,
    const std::vector<linking::Link>& initial_links,
    const std::function<void(const EpisodePoint&)>& on_point) {
  core::AlexEngine engine(&world->left, &world->right, config.alex);
  // No prepared right context: IngestTriples mutates it, so the engine must
  // own it.
  ALEX_RETURN_IF_ERROR(engine.Initialize(initial_links));

  // The growth schedule is a pure function of (profile, seed, fraction,
  // epochs) — the differential harness replays the same schedule against an
  // incremental and a rebuild engine and compares fingerprints.
  const datagen::GrowthSchedule schedule =
      datagen::GrowWorld(config.profile, ingest.growth_seed,
                         ingest.growth_fraction, ingest.epochs);
  feedback::GroundTruth truth(world->ground_truth);
  feedback::Oracle oracle(&truth, config.feedback_error_rate,
                          config.oracle_seed);
  const core::FeedbackFn judge = [&oracle](const linking::Link& link) {
    return oracle.Feedback(link);
  };

  size_t next_epoch = 0;
  auto grow_then_learn = [&]() -> Result<core::EpisodeStats> {
    // Grow the stores, fold the growth into the engine, extend the truth —
    // all BEFORE the episode, so this episode's feedback already judges
    // links involving the new entities correctly.
    const datagen::GrowthEpoch& epoch = schedule.epochs[next_epoch++];
    datagen::ApplyGrowthEpoch(epoch, &world->left, &world->right);
    ALEX_RETURN_IF_ERROR(engine.IngestTriples());
    for (const linking::Link& link : epoch.new_ground_truth) {
      truth.Add(link);
      world->ground_truth.push_back(link);
    }
    return engine.RunEpisode(judge);
  };
  EpisodeHooks hooks;
  hooks.on_point = on_point;
  hooks.stop_when_converged = false;
  return RunEpisodes(&engine, truth, config.profile.name,
                     static_cast<int>(schedule.epochs.size()),
                     grow_then_learn, hooks);
}

}  // namespace alex::eval
