#include "eval/experiment.h"

#include <utility>

#include "common/stopwatch.h"

namespace alex::eval {

Result<ExperimentResult> RunEpisodes(core::AlexEngine* engine,
                                     const feedback::GroundTruth& truth,
                                     std::string name, int max_episodes,
                                     const EpisodeFn& run_episode,
                                     const EpisodeHooks& hooks) {
  ExperimentResult result;
  result.profile_name = std::move(name);
  result.init_seconds = engine->init_seconds();
  result.relaxed_change_fraction = engine->options().relaxed_change_fraction;
  const std::vector<linking::Link> initial_links = engine->CandidateLinks();
  result.initial_link_count = initial_links.size();

  // Incremental quality: the tracker is seeded with one full scan of the
  // initial candidates, then kept current by the engine's link-change
  // observer — per-episode quality is O(links changed), not O(|C|).
  QualityTracker tracker(&truth);
  tracker.Reset(initial_links);
  result.initial_correct = tracker.correct();
  engine->SetLinkChangeObserver(
      [&tracker, &hooks](const linking::Link& link, bool added) {
        tracker.OnLinkChange(link, added);
        if (hooks.on_link_change) hooks.on_link_change(link, added);
      });
  auto record = [&](const EpisodePoint& point) {
    result.series.push_back(point);
    if (hooks.on_point) hooks.on_point(point);
  };

  // Episode 0: quality of the initial candidate links.
  EpisodePoint start;
  start.quality = tracker.Snapshot();
  record(start);

  Stopwatch run_timer;
  Status status;
  for (int i = 0; i < max_episodes; ++i) {
    Result<core::EpisodeStats> stats = run_episode();
    if (!stats.ok()) {
      status = stats.status();
      break;
    }
    EpisodePoint point;
    point.episode = stats->episode;
    point.stats = *stats;
    point.quality = tracker.Snapshot();
    record(point);
    ++result.episodes;
    if (result.relaxed_episode < 0 &&
        stats->change_fraction < result.relaxed_change_fraction) {
      result.relaxed_episode = stats->episode;
    }
    if (hooks.stop_when_converged && stats->change_fraction == 0.0) {
      result.converged = true;
      break;
    }
  }
  engine->SetLinkChangeObserver(nullptr);
  if (!status.ok()) return status;
  result.total_seconds = run_timer.ElapsedSeconds();
  result.ground_truth_size = truth.size();
  result.total_pairs = engine->total_pair_count();
  result.filtered_pairs = engine->filtered_pair_count();
  result.new_links_discovered =
      NewCorrectLinks(initial_links, engine->CandidateLinks(), truth);
  return result;
}

Result<ExperimentResult> RunExperiment(
    const ExperimentConfig& config,
    const std::function<void(const EpisodePoint&)>& on_point) {
  datagen::GeneratedWorld world = datagen::Generate(config.profile);
  std::vector<linking::Link> paris_links =
      linking::RunParis(world.left, world.right, config.paris);
  std::vector<linking::Link> initial = linking::FilterByScore(
      std::move(paris_links), config.paris_threshold);
  return RunExperimentOnWorld(config, world, initial, on_point);
}

Result<ExperimentResult> RunExperimentOnWorld(
    const ExperimentConfig& config, const datagen::GeneratedWorld& world,
    const std::vector<linking::Link>& initial_links,
    const std::function<void(const EpisodePoint&)>& on_point) {
  core::AlexEngine engine(&world.left, &world.right, config.alex);
  ALEX_RETURN_IF_ERROR(engine.Initialize(initial_links,
                                         config.right_context));
  feedback::GroundTruth truth(world.ground_truth);
  feedback::Oracle oracle(&truth, config.feedback_error_rate,
                          config.oracle_seed);
  const core::FeedbackFn judge = [&oracle](const linking::Link& link) {
    return oracle.Feedback(link);
  };
  EpisodeHooks hooks;
  hooks.on_point = on_point;
  return RunEpisodes(&engine, truth, config.profile.name,
                     config.alex.max_episodes,
                     [&] { return engine.RunEpisode(judge); }, hooks);
}

}  // namespace alex::eval
