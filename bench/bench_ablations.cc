// Ablations of ALEX's design choices (beyond the paper's own sensitivity
// study, which covers step size and episode size — Appendix D):
//   1. θ filtering threshold (§6.1): search-space size vs. quality.
//   2. ε of the ε-greedy policy and the rollback trigger threshold (§6.3).
//   3. Number of partitions (§6.2): the paper claims partitioning
//      parallelism does not sacrifice link quality.
//   4. Initial candidate generator: PARIS vs. the SILK-style rule matcher
//      vs. an empty start ("ALEX can work with any initial set of candidate
//      links", §2) — seeded with one correct link so exploration can start.
// These runs share one synthetic world (OpenCyc - NYTimes profile).
//   5. Feedback sampling in vote-driven mode: uniform against prioritized
//      (AlexOptions::prioritized_sampling) at an equal vote budget, on the
//      six Fig 2/3 worlds and the six worlds of bench_seed_variance.
#include <iomanip>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "eval/vote_driven.h"
#include "linking/rule_matcher.h"

namespace {

using alex::eval::ExperimentConfig;
using alex::eval::ExperimentResult;

// The vote budget of ablation 5: per episode, 400 drawn links judged by 5
// users each, every vote wrong with probability 0.1, a verdict at 3 votes.
ExperimentResult RunVoteDriven(
    const alex::datagen::GeneratedWorld& world,
    const std::vector<alex::linking::Link>& initial,
    std::shared_ptr<const alex::core::RightContext> right,
    alex::core::AlexOptions engine_options, bool prioritized) {
  engine_options.prioritized_sampling = prioritized;
  alex::core::AlexEngine engine(&world.left, &world.right, engine_options);
  alex::Status status = engine.Initialize(initial, std::move(right));
  ALEX_CHECK(status.ok()) << status.ToString();
  alex::eval::VoteDrivenOptions options;
  options.links_per_episode = 400;
  options.users_per_link = 5;
  options.vote_error_rate = 0.1;
  options.aggregator.quorum = 3;
  return alex::eval::RunVoteDrivenExperiment(
      &engine, alex::feedback::GroundTruth(world.ground_truth), options);
}

// The first episode whose F reaches `f` (0 = the initial links), or -1.
int FirstEpisodeAtF(const ExperimentResult& r, double f) {
  for (const alex::eval::EpisodePoint& point : r.series) {
    if (point.quality.f_measure >= f) return point.episode;
  }
  return -1;
}

// Ablation 5: for each world, the episodes uniform and prioritized sampling
// take to reach F >= 0.95 within a 30-episode cap, and their final F.
void CompareSampling() {
  struct VoteWorld {
    std::string label;
    ExperimentConfig config;
  };
  std::vector<VoteWorld> worlds;
  for (const char* name :
       {"dbpedia_nytimes", "dbpedia_drugbank", "dbpedia_lexvo",
        "opencyc_nytimes", "opencyc_drugbank", "opencyc_lexvo"}) {
    worlds.push_back({name, alex::bench::MakeConfig(name)});
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ExperimentConfig config = alex::bench::MakeConfig("opencyc_nytimes");
    config.profile.seed = 1000 + seed;
    config.alex.seed = 2000 + seed;
    worlds.push_back({"opencyc_nytimes/seed " + std::to_string(seed),
                      config});
  }

  std::cout << "\n== Ablation 5: uniform vs prioritized feedback sampling, "
               "vote-driven (400 links x 5 users an episode, 10% vote "
               "error, quorum 3, cap 30) ==\n"
            << std::left << std::setw(26) << "world" << std::right
            << std::setw(16) << "uniform F>=.95" << std::setw(8) << "F"
            << std::setw(20) << "prioritized F>=.95" << std::setw(8) << "F"
            << "\n";
  auto episode_text = [](int episode) {
    return episode >= 0 ? std::to_string(episode) : std::string("-");
  };
  int reached[2] = {0, 0};
  for (const VoteWorld& world_config : worlds) {
    alex::core::AlexOptions engine_options = world_config.config.alex;
    engine_options.max_episodes = 30;
    alex::datagen::GeneratedWorld world =
        alex::datagen::Generate(world_config.config.profile);
    const std::vector<alex::linking::Link> initial =
        alex::linking::FilterByScore(
            alex::linking::RunParis(world.left, world.right),
            alex::linking::kParisThreshold);
    // Both samplings score the same right side.
    std::shared_ptr<const alex::core::RightContext> right =
        alex::core::RightContext::Prepare(world.right, world.right.Subjects(),
                                          engine_options.space);
    std::cout << std::left << std::setw(26) << world_config.label
              << std::right;
    for (bool prioritized : {false, true}) {
      const ExperimentResult r =
          RunVoteDriven(world, initial, right, engine_options, prioritized);
      const int episode = FirstEpisodeAtF(r, 0.95);
      if (episode >= 0) ++reached[prioritized ? 1 : 0];
      std::cout << std::setw(prioritized ? 20 : 16) << episode_text(episode)
                << std::fixed << std::setprecision(3) << std::setw(8)
                << r.final_quality().f_measure;
      std::cout.unsetf(std::ios::fixed);
    }
    std::cout << "\n";
  }
  std::cout << "reached F >= 0.95: uniform " << reached[0] << "/"
            << worlds.size() << ", prioritized " << reached[1] << "/"
            << worlds.size() << "\n";
}

void PrintRow(const std::string& label, const ExperimentResult& r) {
  std::cout << std::left << std::setw(26) << label << std::right
            << std::fixed << std::setprecision(3) << std::setw(8)
            << r.series[0].quality.f_measure << std::setw(8)
            << r.final_quality().precision << std::setw(8)
            << r.final_quality().recall << std::setw(8)
            << r.final_quality().f_measure << std::setw(10) << r.episodes
            << std::setw(12) << r.filtered_pairs << std::setw(9)
            << std::setprecision(2) << r.init_seconds << "\n";
  std::cout.unsetf(std::ios::fixed);
  std::cout << std::setprecision(6);
}

void PrintHeaderRow(const std::string& title) {
  std::cout << "\n== " << title << " ==\n"
            << std::left << std::setw(26) << "config" << std::right
            << std::setw(8) << "F0" << std::setw(8) << "P" << std::setw(8)
            << "R" << std::setw(8) << "F" << std::setw(10) << "episodes"
            << std::setw(12) << "space" << std::setw(9) << "init-s" << "\n";
}

}  // namespace

int main() {
  ExperimentConfig base = alex::bench::MakeConfig("opencyc_nytimes");
  base.alex.max_episodes = 25;
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(base.profile);
  std::vector<alex::linking::Link> paris_links = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);

  auto run = [&](ExperimentConfig config,
                 const std::vector<alex::linking::Link>& initial) {
    alex::Result<ExperimentResult> result =
        alex::eval::RunExperimentOnWorld(config, world, initial);
    ALEX_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  // 1. θ threshold.
  PrintHeaderRow("Ablation 1: filtering threshold theta (paper uses 0.3)");
  for (double theta : {0.2, 0.3, 0.5}) {
    ExperimentConfig config = base;
    config.alex.space.theta = theta;
    PrintRow("theta=" + std::to_string(theta).substr(0, 4),
             run(config, paris_links));
  }

  // 2. ε and rollback threshold.
  PrintHeaderRow("Ablation 2: epsilon of the epsilon-greedy policy");
  for (double epsilon : {0.01, 0.05, 0.2}) {
    ExperimentConfig config = base;
    config.alex.epsilon = epsilon;
    PrintRow("epsilon=" + std::to_string(epsilon).substr(0, 4),
             run(config, paris_links));
  }
  PrintHeaderRow("Ablation 2b: rollback trigger threshold");
  for (int threshold : {1, 3, 10}) {
    ExperimentConfig config = base;
    config.alex.rollback_threshold = threshold;
    PrintRow("rollback_threshold=" + std::to_string(threshold),
             run(config, paris_links));
  }
  PrintHeaderRow(
      "Ablation 2c: negative reward magnitude (\"severely penalize wrong "
      "links\", section 4.3)");
  for (double reward : {-1.0, -2.0, -4.0}) {
    ExperimentConfig config = base;
    config.alex.negative_reward = reward;
    PrintRow("negative_reward=" + std::to_string(reward).substr(0, 4),
             run(config, paris_links));
  }

  // 3. Partition count: quality should be stable (§6.2).
  PrintHeaderRow("Ablation 3: equal-size partitions (quality invariance)");
  for (int partitions : {1, 4, 8, 16}) {
    ExperimentConfig config = base;
    config.alex.num_partitions = partitions;
    PrintRow("partitions=" + std::to_string(partitions),
             run(config, paris_links));
  }

  // Extension: cross-state feature prior (see AlexOptions).
  PrintHeaderRow(
      "Extension: cross-state feature prior for fresh states (off = "
      "Algorithm 1)");
  for (bool prior : {false, true}) {
    ExperimentConfig config = base;
    config.alex.use_feature_prior = prior;
    PrintRow(prior ? "feature prior ON" : "feature prior OFF (paper)",
             run(config, paris_links));
  }

  // 4. Initial candidate generator.
  PrintHeaderRow("Ablation 4: initial candidate link generator");
  PrintRow("paris (default)", run(base, paris_links));
  {
    alex::linking::RuleMatcherOptions options;
    options.rules.push_back(alex::linking::MatchRule{
        "http://www.w3.org/2000/01/rdf-schema#label",
        "http://data.nytimes.com/elements/name", 1.0, 0.5});
    options.accept_threshold = 0.9;
    std::vector<alex::linking::Link> rule_links =
        alex::linking::RunRuleMatcher(world.left, world.right, options);
    PrintRow("rule matcher", run(base, rule_links));
  }
  {
    // Cold start: a single correct seed link.
    std::vector<alex::linking::Link> seed = {world.ground_truth.front()};
    PrintRow("single seed link", run(base, seed));
  }

  // 5. Uniform against prioritized feedback sampling.
  CompareSampling();
  return 0;
}
