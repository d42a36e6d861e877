// The episode loop every experiment driver shares (RunEpisodes; each
// driver supplies only its feedback source), and the batch driver:
// generate a data set pair from a profile, produce initial candidate links
// with PARIS, run ALEX against the feedback oracle, and record per-episode
// quality — the exact pipeline of §7.1.
#ifndef ALEX_EVAL_EXPERIMENT_H_
#define ALEX_EVAL_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/alex_engine.h"
#include "datagen/world.h"
#include "eval/metrics.h"
#include "feedback/oracle.h"
#include "linking/paris.h"

namespace alex::eval {

struct ExperimentConfig {
  datagen::WorldProfile profile;
  core::AlexOptions alex;
  // Fraction of incorrect feedback (Appendix C uses 0.1).
  double feedback_error_rate = 0.0;
  uint64_t oracle_seed = 99;
  // Optional pre-prepared right context for the engine (from
  // core::RightContext::Prepare with config.alex.space). Honored by
  // RunExperimentOnWorld only — RunExperiment generates its own world, so a
  // caller cannot have prepared its right side.
  std::shared_ptr<const core::RightContext> right_context;
};

// Quality of the candidate links after an episode. Episode 0 is the initial
// PARIS quality (the figures' leftmost point).
struct EpisodePoint {
  int episode = 0;
  Quality quality;
  core::EpisodeStats stats;  // zeroed for episode 0
};

struct ExperimentResult {
  std::string profile_name;
  size_t ground_truth_size = 0;
  size_t initial_link_count = 0;   // PARIS links above threshold
  size_t initial_correct = 0;      // of which correct
  size_t new_links_discovered = 0; // correct links ALEX added
  bool converged = false;
  int episodes = 0;
  int relaxed_episode = -1;  // first below relaxed_change_fraction, or -1
  double relaxed_change_fraction = 0.05;  // the engine's, when the run began
  double init_seconds = 0.0;     // pre-processing (feature spaces)
  double total_seconds = 0.0;    // episodes only
  uint64_t total_pairs = 0;      // raw cross product
  uint64_t filtered_pairs = 0;   // after θ-filtering
  std::vector<EpisodePoint> series;

  const Quality& final_quality() const { return series.back().quality; }
};

// Runs one episode on the engine — RunEpisode, or ApplyLinkFeedback
// between BeginExternalEpisode and EndExternalEpisode(&stats) — and returns
// its stats.
using EpisodeFn = std::function<Result<core::EpisodeStats>()>;

// What a driver adds to RunEpisodes besides its episodes; all optional.
struct EpisodeHooks {
  // Sees every net candidate change after the quality tracker.
  core::LinkChangeFn on_link_change;
  // Sees each episode point as it is produced, episode 0 included.
  std::function<void(const EpisodePoint&)> on_point;
  // Stop, converged, at the first episode that changes no candidate link.
  // Ingest turns it off: every growth epoch runs.
  bool stop_when_converged = true;
};

// The episode loop of every driver (§4.4), until the candidate links stop
// changing or `max_episodes` episodes ran. It owns the result header, the
// episode-0 point and initial counts (the engine's candidates when the
// loop starts), per-episode quality (a QualityTracker on the engine's
// link-change observer, installed for the run), the relaxed episode (the
// engine's AlexOptions::relaxed_change_fraction), the stop rule,
// NewCorrectLinks and the run's timing. Episode numbers and counts come
// from the engine. `truth` may grow during the run (ingest).
Result<ExperimentResult> RunEpisodes(core::AlexEngine* engine,
                                     const feedback::GroundTruth& truth,
                                     std::string name, int max_episodes,
                                     const EpisodeFn& run_episode,
                                     const EpisodeHooks& hooks = {});

// Runs the full pipeline. `on_point` (optional) observes each episode point
// as it is produced (episode 0 included).
Result<ExperimentResult> RunExperiment(
    const ExperimentConfig& config,
    const std::function<void(const EpisodePoint&)>& on_point = nullptr);

// Variant that reuses an already-generated world and initial links (used by
// benches that compare several ALEX configurations on identical data).
Result<ExperimentResult> RunExperimentOnWorld(
    const ExperimentConfig& config, const datagen::GeneratedWorld& world,
    const std::vector<linking::Link>& initial_links,
    const std::function<void(const EpisodePoint&)>& on_point = nullptr);

}  // namespace alex::eval

#endif  // ALEX_EVAL_EXPERIMENT_H_
