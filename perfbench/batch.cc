// `batch`: paper §7.1 batch mode on the stress-test pair dbpedia_opencyc
// (Fig. 8), nine worlds per run. PARIS links, then a fixed budget of
// oracle-judged 1000-item episodes over 8 partitions on 2 engine workers.
// Never touches sparql, federation, serving or the aggregator.
#include <algorithm>
#include <string>

#include "bench.h"
#include "eval/metrics.h"
#include "feedback/oracle.h"

namespace alexbench {

namespace {

constexpr int kThreads = 2;
constexpr double kScale = 1.0;
constexpr int kWorlds = 9;
constexpr int kEpisodesPerWorld = 12;  // at --seconds 10; scales with it

bool SameQuality(const alex::eval::Quality& a, const alex::eval::Quality& b) {
  return a.precision == b.precision && a.recall == b.recall &&
         a.f_measure == b.f_measure && a.candidates == b.candidates &&
         a.correct == b.correct;
}

}  // namespace

void RunBatch(const Options& options, Tracer* tracer, Lane* lane,
              Report* report) {
  const double scale = options.tiny ? 0.1 : kScale;
  const int episodes =
      options.tiny ? 2 : std::max(1, kEpisodesPerWorld * options.seconds / 10);
  alex::ThreadPool prepare_pool(kThreads);

  std::vector<double> episode_ms;
  SetupTotals setup;
  EpisodeTotals totals;
  size_t candidates = 0;
  for (int w = 0; w < kWorlds; ++w) {
    const std::string world = "world " + std::to_string(w);
    const Input input = MakeInput(datagen::DbpediaOpencycProfile(), scale,
                                  WorldSeed(options.seed, w), lane);
    alex::feedback::GroundTruth truth(input.truth);
    Loaded loaded;
    std::unique_ptr<core::AlexEngine> engine;
    TimedSetup(lane, w, report, [&] {
      loaded = Load(input, lane, w);
      engine = InitEngine(loaded, EngineOptions(kThreads), true,
                          &prepare_pool, lane, w);
    });
    setup.Add(*engine, loaded);

    alex::eval::QualityTracker tracker(&truth);
    tracker.Reset(engine->CandidateLinks());
    engine->SetLinkChangeObserver(
        [&](const linking::Link& link, bool added) {
          tracker.OnLinkChange(link, added);
          ++(added ? totals.links_added : totals.links_removed);
        });
    alex::feedback::Oracle oracle(&truth, 0.0, options.seed);
    const core::FeedbackFn judge = [&oracle](const linking::Link& link) {
      return oracle.Feedback(link);
    };
    for (int e = 1; e <= episodes; ++e) {
      report->calibration.MaybeSample();
      core::EpisodeStats stats;
      episode_ms.push_back(
          TimedMs(lane, "core.RunEpisode", w * 1000 + e,
                  [&] { stats = engine->RunEpisode(judge); }));
      report->Attempt(stats.feedback_items > 0,
                      world + " episode " + std::to_string(e) +
                          " judged nothing");
      totals.Add(stats, &report->digest);
      report->digest.Add(tracker.Snapshot().f_measure);
    }
    engine->SetLinkChangeObserver(nullptr);

    // Output check: the incremental quality equals a full evaluation.
    Span check(lane, "eval.Evaluate", w);
    const alex::eval::Quality full =
        alex::eval::Evaluate(engine->CandidateLinks(), truth);
    report->Attempt(SameQuality(tracker.Snapshot(), full),
                    world + ": QualityTracker differs from a full Evaluate");
    report->digest.Add(full.f_measure);
    report->digest.Add(static_cast<uint64_t>(full.candidates));
    for (const core::PartitionAlex& partition : engine->partitions()) {
      report->digest.Add(partition.space().Fingerprint());
    }
    candidates += engine->CandidateCount();
    if (w == 0) ReportWorldSize(loaded, report);
  }

  report->Size("worlds", kWorlds);
  report->Size("episodes_per_world", episodes);
  report->Size("episode_size", 1000);
  report->Size("partitions", 8);
  report->Size("engine_threads", kThreads);

  const double median_episode_ms = Median(episode_ms);
  const double episode_s = Sum(episode_ms) * 1e-3;
  report->EndToEnd("feedback_per_s",
                   static_cast<double>(totals.feedback_items) / episode_s,
                   "1/s");
  report->EndToEnd("episode_ms_p50", median_episode_ms, "ms");
  // In batch mode the user's request is the episode itself.
  report->EndToEnd("request_ms_gmean", GeoMean(episode_ms), "ms");

  if (tracer->enabled()) {
    setup.ReportLayers(*tracer, report);
    totals.ReportLayers(*tracer, candidates, report);
  }
}

}  // namespace alexbench
