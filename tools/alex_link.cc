// alex_link — command-line front end for the linking pipeline.
//
// Subcommands:
//   gen <profile> <left.nt> <right.nt> <truth.tsv>
//       Generate a synthetic data set pair (see `gen --list` for profiles).
//   paris <left.nt> <right.nt> [--threshold 0.95] [--tsv out.tsv]
//       [--nt out.nt]
//       Run the PARIS automatic linker and write candidate links.
//   rules <left.nt> <right.nt> --rule LPRED,RPRED[,WEIGHT[,MINSIM]] ...
//       [--threshold 0.8] [--tsv out.tsv]
//       Run the SILK-style rule matcher.
//   explore <left.nt> <right.nt> --links in.tsv --truth truth.tsv
//       [--episodes 40] [--episode-size 1000] [--partitions 8]
//       [--step 0.05] [--error-rate 0] [--out out.tsv]
//       Run ALEX against a ground-truth oracle and report per episode.
//   interactive <left.nt> <right.nt> --links in.tsv [--items 10]
//       [--out out.tsv]
//       Run ALEX with YOU as the user: candidate links are shown one at a
//       time; answer y/n (or q to stop). Policy improvement runs after
//       every --items answers.
//   eval --links links.tsv --truth truth.tsv
//       Print precision / recall / F-measure of a link file.
#include <fstream>
#include <iostream>

#include "cli_common.h"
#include "core/engine_state.h"
#include "rdf/snapshot.h"
#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "feedback/oracle.h"
#include "linking/link_io.h"
#include "linking/paris.h"
#include "linking/rule_matcher.h"

namespace alex::tools {
namespace {

int Usage() {
  std::cerr
      << "usage: alex_link <gen|paris|rules|explore|interactive|eval|snapshot> ...\n"
      << "run `alex_link help` for details\n";
  return 2;
}

int Fail(const Status& st) {
  std::cerr << "error: " << st.ToString() << "\n";
  return 1;
}

std::vector<linking::Link> LoadLinksOrDie(const std::string& path) {
  Result<std::vector<linking::Link>> links =
      EndsWith(path, ".nt") ? linking::LoadLinksNTriples(path)
                            : linking::LoadLinksTsv(path);
  if (!links.ok()) {
    std::cerr << "error loading links " << path << ": "
              << links.status().ToString() << "\n";
    std::exit(2);
  }
  return std::move(links).value();
}

Status WriteLinkOutputs(const CommandLine& cmd,
                        const std::vector<linking::Link>& links) {
  if (cmd.Has("tsv")) {
    ALEX_RETURN_IF_ERROR(
        linking::SaveLinksTsv(links, cmd.GetString("tsv")));
    std::cout << "wrote " << links.size() << " links to "
              << cmd.GetString("tsv") << " (TSV)\n";
  }
  if (cmd.Has("nt")) {
    ALEX_RETURN_IF_ERROR(
        linking::SaveLinksNTriples(links, cmd.GetString("nt")));
    std::cout << "wrote " << links.size() << " owl:sameAs triples to "
              << cmd.GetString("nt") << "\n";
  }
  if (!cmd.Has("tsv") && !cmd.Has("nt")) {
    std::cout << linking::WriteLinksTsv(links);
  }
  return Status::Ok();
}

int RunGen(const CommandLine& cmd) {
  if (cmd.GetString("list") == "true" ||
      (cmd.positional.size() >= 2 && cmd.positional[1] == "--list")) {
    for (const std::string& name : datagen::AllProfileNames()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (cmd.positional.size() < 5) {
    std::cerr << "usage: alex_link gen <profile> <left.nt> <right.nt> "
                 "<truth.tsv>\n       alex_link gen --list\n";
    return 2;
  }
  datagen::WorldProfile profile;
  if (!datagen::ProfileByName(cmd.positional[1], &profile)) {
    std::cerr << "unknown profile '" << cmd.positional[1]
              << "' (see gen --list)\n";
    return 2;
  }
  if (cmd.Has("seed")) profile.seed = cmd.GetInt("seed", profile.seed);
  datagen::GeneratedWorld world = datagen::Generate(profile);
  std::ofstream left(cmd.positional[2], std::ios::trunc);
  left << rdf::WriteNTriples(world.left);
  std::ofstream right(cmd.positional[3], std::ios::trunc);
  right << rdf::WriteNTriples(world.right);
  Status st = linking::SaveLinksTsv(world.ground_truth, cmd.positional[4]);
  if (!st.ok()) return Fail(st);
  std::cout << "generated " << world.left.size() << " + "
            << world.right.size() << " triples, "
            << world.ground_truth.size() << " ground-truth links\n";
  return 0;
}

int RunParisCmd(const CommandLine& cmd) {
  if (cmd.positional.size() < 3) return Usage();
  rdf::TripleStore left = LoadStoreOrDie(cmd.positional[1]);
  rdf::TripleStore right = LoadStoreOrDie(cmd.positional[2]);
  double threshold = cmd.GetDouble("threshold", 0.95);
  std::vector<linking::Link> links = linking::FilterByScore(
      linking::RunParis(left, right), threshold);
  Status st = WriteLinkOutputs(cmd, links);
  return st.ok() ? 0 : Fail(st);
}

int RunRulesCmd(const CommandLine& cmd) {
  if (cmd.positional.size() < 3 || !cmd.Has("rule")) {
    std::cerr << "usage: alex_link rules <left.nt> <right.nt> "
                 "--rule LPRED,RPRED[,WEIGHT[,MINSIM]] ...\n";
    return 2;
  }
  rdf::TripleStore left = LoadStoreOrDie(cmd.positional[1]);
  rdf::TripleStore right = LoadStoreOrDie(cmd.positional[2]);
  linking::RuleMatcherOptions options;
  options.accept_threshold = cmd.GetDouble("threshold", 0.8);
  for (const std::string& spec : cmd.GetAll("rule")) {
    std::vector<std::string> parts = Split(spec, ',');
    if (parts.size() < 2) {
      std::cerr << "bad --rule '" << spec << "'\n";
      return 2;
    }
    linking::MatchRule rule;
    rule.left_predicate = parts[0];
    rule.right_predicate = parts[1];
    if (parts.size() > 2) ParseDouble(parts[2], &rule.weight);
    if (parts.size() > 3) ParseDouble(parts[3], &rule.min_similarity);
    options.rules.push_back(std::move(rule));
  }
  std::vector<linking::Link> links =
      linking::RunRuleMatcher(left, right, options);
  Status st = WriteLinkOutputs(cmd, links);
  return st.ok() ? 0 : Fail(st);
}

core::AlexOptions AlexOptionsFrom(const CommandLine& cmd) {
  core::AlexOptions options;
  options.episode_size =
      static_cast<size_t>(cmd.GetInt("episode-size", 1000));
  options.max_episodes = static_cast<int>(cmd.GetInt("episodes", 40));
  options.num_partitions = static_cast<int>(cmd.GetInt("partitions", 8));
  options.step_size = cmd.GetDouble("step", 0.05);
  options.epsilon = cmd.GetDouble("epsilon", 0.05);
  options.seed = static_cast<uint64_t>(cmd.GetInt("seed", 42));
  return options;
}

int RunExplore(const CommandLine& cmd) {
  if (cmd.positional.size() < 3 || !cmd.Has("links") || !cmd.Has("truth")) {
    std::cerr << "usage: alex_link explore <left.nt> <right.nt> "
                 "--links in.tsv --truth truth.tsv [options]\n";
    return 2;
  }
  rdf::TripleStore left = LoadStoreOrDie(cmd.positional[1]);
  rdf::TripleStore right = LoadStoreOrDie(cmd.positional[2]);
  std::vector<linking::Link> initial = LoadLinksOrDie(cmd.GetString("links"));
  feedback::GroundTruth truth(LoadLinksOrDie(cmd.GetString("truth")));

  core::AlexEngine engine(&left, &right, AlexOptionsFrom(cmd));
  Status st = engine.Initialize(initial);
  if (!st.ok()) return Fail(st);
  if (cmd.Has("load-state")) {
    Result<core::EngineState> state =
        core::LoadEngineState(cmd.GetString("load-state"));
    if (!state.ok()) return Fail(state.status());
    st = core::ImportEngineState(state.value(), &engine);
    if (!st.ok()) return Fail(st);
    std::cout << "resumed session from " << cmd.GetString("load-state")
              << " (" << engine.CandidateCount() << " candidate links)\n";
  }
  feedback::Oracle oracle(&truth, cmd.GetDouble("error-rate", 0.0),
                          static_cast<uint64_t>(cmd.GetInt("seed", 42)));

  const core::FeedbackFn judge = [&oracle](const linking::Link& link) {
    return oracle.Feedback(link);
  };
  std::cout << "episode precision recall f-measure candidates\n";
  eval::EpisodeHooks hooks;
  hooks.on_point = [](const eval::EpisodePoint& point) {
    const eval::Quality& q = point.quality;
    std::printf("%7d %9.3f %6.3f %9.3f %10zu\n", point.episode, q.precision,
                q.recall, q.f_measure, q.candidates);
  };
  Result<eval::ExperimentResult> run = eval::RunEpisodes(
      &engine, truth, "explore", engine.options().max_episodes,
      [&] { return engine.RunEpisode(judge); }, hooks);
  if (!run.ok()) return Fail(run.status());
  std::cout << (run->converged ? "converged" : "episode cap reached")
            << " after " << run->episodes << " episodes\n";
  if (cmd.Has("report-features")) {
    std::cout << "\nlearned feature usage (greedy states, avg return):\n";
    int shown = 0;
    for (const core::AlexEngine::FeatureUsage& usage :
         engine.FeatureUsageSummary()) {
      if (++shown > 10) break;
      std::printf("  %4zu  %+6.2f  (%s , %s)\n", usage.greedy_states,
                  usage.average_return, usage.key.left_predicate.c_str(),
                  usage.key.right_predicate.c_str());
    }
  }
  if (cmd.Has("out")) {
    st = linking::SaveLinksTsv(engine.CandidateLinks(),
                               cmd.GetString("out"));
    if (!st.ok()) return Fail(st);
    std::cout << "wrote links to " << cmd.GetString("out") << "\n";
  }
  if (cmd.Has("save-state")) {
    st = core::SaveEngineState(core::ExportEngineState(engine),
                               cmd.GetString("save-state"));
    if (!st.ok()) return Fail(st);
    std::cout << "saved session state to " << cmd.GetString("save-state")
              << "\n";
  }
  return 0;
}

int RunInteractive(const CommandLine& cmd) {
  if (cmd.positional.size() < 3 || !cmd.Has("links")) {
    std::cerr << "usage: alex_link interactive <left.nt> <right.nt> "
                 "--links in.tsv [--items 10] [--out out.tsv]\n";
    return 2;
  }
  rdf::TripleStore left = LoadStoreOrDie(cmd.positional[1]);
  rdf::TripleStore right = LoadStoreOrDie(cmd.positional[2]);
  std::vector<linking::Link> initial = LoadLinksOrDie(cmd.GetString("links"));

  core::AlexOptions options = AlexOptionsFrom(cmd);
  options.episode_size = static_cast<size_t>(cmd.GetInt("items", 10));
  core::AlexEngine engine(&left, &right, options);
  Status st = engine.Initialize(initial);
  if (!st.ok()) return Fail(st);
  if (cmd.Has("load-state")) {
    Result<core::EngineState> state =
        core::LoadEngineState(cmd.GetString("load-state"));
    if (!state.ok()) return Fail(state.status());
    st = core::ImportEngineState(state.value(), &engine);
    if (!st.ok()) return Fail(st);
  }

  std::cout << "Interactive feedback session. Answer y(es) / n(o) / "
               "q(uit).\n";
  bool quit = false;
  while (!quit && engine.CandidateCount() > 0) {
    core::EpisodeStats stats =
        engine.RunEpisode([&quit](const linking::Link& link) {
          if (quit) return true;  // drain the episode without asking
          std::cout << "same entity?\n  " << link.left << "\n  "
                    << link.right << "\n[y/n/q] " << std::flush;
          std::string answer;
          if (!std::getline(std::cin, answer)) {
            quit = true;
            return true;
          }
          if (!answer.empty() && (answer[0] == 'q' || answer[0] == 'Q')) {
            quit = true;
            return true;
          }
          return !answer.empty() && (answer[0] == 'y' || answer[0] == 'Y');
        });
    std::cout << "-- episode " << stats.episode << ": "
              << engine.CandidateCount() << " candidate links ("
              << stats.links_added << " added, " << stats.links_removed
              << " removed)\n";
    if (stats.change_fraction == 0.0) break;
  }
  if (cmd.Has("out")) {
    st = linking::SaveLinksTsv(engine.CandidateLinks(),
                               cmd.GetString("out"));
    if (!st.ok()) return Fail(st);
    std::cout << "wrote links to " << cmd.GetString("out") << "\n";
  }
  return 0;
}

// `alex_link snapshot <in.nt|in.ttl> <out.snap>`: convert an RDF text file
// into a binary snapshot that loads much faster.
int RunSnapshot(const CommandLine& cmd) {
  if (cmd.positional.size() < 3) {
    std::cerr << "usage: alex_link snapshot <in.nt|in.ttl> <out.snap>\n";
    return 2;
  }
  rdf::TripleStore store = LoadStoreOrDie(cmd.positional[1]);
  Status st = rdf::SaveStoreSnapshot(store, cmd.positional[2]);
  if (!st.ok()) return Fail(st);
  std::cout << "wrote snapshot of " << store.size() << " triples to "
            << cmd.positional[2] << "\n";
  return 0;
}

int RunEval(const CommandLine& cmd) {
  if (!cmd.Has("links") || !cmd.Has("truth")) {
    std::cerr << "usage: alex_link eval --links links.tsv --truth "
                 "truth.tsv\n";
    return 2;
  }
  std::vector<linking::Link> links = LoadLinksOrDie(cmd.GetString("links"));
  feedback::GroundTruth truth(LoadLinksOrDie(cmd.GetString("truth")));
  eval::Quality q = eval::Evaluate(links, truth);
  std::printf("links:     %zu\ntruth:     %zu\ncorrect:   %zu\n", links.size(),
              truth.size(), q.correct);
  std::printf("precision: %.4f\nrecall:    %.4f\nf-measure: %.4f\n",
              q.precision, q.recall, q.f_measure);
  return 0;
}

int Main(int argc, char** argv) {
  CommandLine cmd = ParseArgs(argc, argv);
  if (cmd.positional.empty()) return Usage();
  const std::string& verb = cmd.positional[0];
  if (verb == "gen") return RunGen(cmd);
  if (verb == "paris") return RunParisCmd(cmd);
  if (verb == "rules") return RunRulesCmd(cmd);
  if (verb == "explore") return RunExplore(cmd);
  if (verb == "interactive") return RunInteractive(cmd);
  if (verb == "eval") return RunEval(cmd);
  if (verb == "snapshot") return RunSnapshot(cmd);
  if (verb == "help") {
    std::cout
        << "alex_link gen <profile> <left.nt> <right.nt> <truth.tsv>\n"
        << "alex_link paris <left.nt> <right.nt> [--threshold 0.95] "
           "[--tsv o.tsv] [--nt o.nt]\n"
        << "alex_link rules <left.nt> <right.nt> --rule L,R[,W[,M]] ...\n"
        << "alex_link explore <left.nt> <right.nt> --links l.tsv --truth "
           "t.tsv [--episodes N]\n"
        << "alex_link interactive <left.nt> <right.nt> --links l.tsv "
           "[--items 10]\n"
        << "alex_link eval --links l.tsv --truth t.tsv\n"
        << "alex_link snapshot <in.nt|in.ttl> <out.snap>\n";
    return 0;
  }
  return Usage();
}

}  // namespace
}  // namespace alex::tools

int main(int argc, char** argv) { return alex::tools::Main(argc, argv); }
