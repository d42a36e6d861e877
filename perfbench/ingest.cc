// `ingest`: live growth on dbpedia_nytimes (Fig. 2a). Each epoch applies a
// seeded growth batch (datagen::GrowWorld / ApplyGrowthEpoch), folds it in
// with AlexEngine::IngestTriples, then runs one oracle episode over the
// grown space. Drives the write side of rdf (TripleStore::Ingest), blocking
// (AddRights sidecars and merges) and the feature space (Grow into overflow
// sidecars).
#include <algorithm>
#include <string>

#include "bench.h"
#include "eval/metrics.h"
#include "feedback/oracle.h"

namespace alexbench {

namespace {

constexpr int kThreads = 2;
constexpr double kScale = 1.0;
constexpr double kGrowthFraction = 0.01;  // new overlap entities per epoch
constexpr int kWorlds = 5;
constexpr int kEpochsPerWorld = 30;  // at --seconds 10; scales with it

}  // namespace

void RunIngest(const Options& options, Tracer* tracer, Lane* lane,
               Report* report) {
  const double scale = options.tiny ? 0.1 : kScale;
  const int epochs =
      options.tiny ? 2 : std::max(1, kEpochsPerWorld * options.seconds / 10);

  std::vector<double> ingest_ms;
  std::vector<double> episode_ms;
  SetupTotals setup;
  EpisodeTotals totals;
  size_t candidates = 0;
  size_t triples = 0, left_entities = 0, right_entities = 0;
  size_t new_pairs = 0, overflow_entries = 0, blocking_merges = 0;
  size_t scheduled_triples = 0, scheduled_left = 0, scheduled_right = 0;
  for (int w = 0; w < kWorlds; ++w) {
    const std::string world = "world " + std::to_string(w);
    const Input input = MakeInput(datagen::DbpediaNytimesProfile(), scale,
                                  WorldSeed(options.seed, w), lane);
    const datagen::GrowthSchedule schedule = [&] {
      Span span(lane, "datagen.GrowWorld", w);
      return datagen::GrowWorld(input.profile, WorldSeed(options.seed, w),
                                kGrowthFraction, epochs);
    }();
    alex::feedback::GroundTruth truth(input.truth);
    Loaded loaded;
    std::unique_ptr<core::AlexEngine> engine;
    TimedSetup(lane, w, report, [&] {
      loaded = Load(input, lane, w);
      // IngestTriples needs an engine that prepared its own right context.
      engine = InitEngine(loaded, EngineOptions(kThreads), false, nullptr,
                          lane, w);
      // One-time lazy work belongs to set-up: the store indexes and the
      // reverse-probe index the first IngestTriples builds.
      (void)loaded.world->left.size();
      (void)loaded.world->right.size();
      TimedMs(lane, "core.IngestTriples.first", w, [&] {
        const alex::Status status = engine->IngestTriples();
        report->Attempt(status.ok(),
                        "first IngestTriples: " + status.ToString());
      });
    });
    setup.Add(*engine, loaded);
    alex::rdf::TripleStore& left = loaded.world->left;
    alex::rdf::TripleStore& right = loaded.world->right;

    engine->SetLinkChangeObserver([&](const linking::Link&, bool added) {
      ++(added ? totals.links_added : totals.links_removed);
    });
    alex::feedback::Oracle oracle(&truth, 0.0, options.seed);
    const core::FeedbackFn judge = [&oracle](const linking::Link& link) {
      return oracle.Feedback(link);
    };
    core::AlexEngine::IngestStats ingested;
    for (int e = 1; e <= epochs; ++e) {
      report->calibration.MaybeSample();
      const int64_t group = w * 1000 + e;
      const datagen::GrowthEpoch& growth = schedule.epochs[e - 1];
      alex::Status status;
      const double add_ms = TimedMs(lane, "rdf.ApplyGrowthEpoch", group, [&] {
        datagen::ApplyGrowthEpoch(growth, &left, &right);
      });
      const double fold_ms = TimedMs(lane, "core.IngestTriples", group, [&] {
        status = engine->IngestTriples(&ingested);
      });
      ingest_ms.push_back(add_ms + fold_ms);
      report->Attempt(status.ok(), world + " IngestTriples epoch " +
                                       std::to_string(e) + ": " +
                                       status.ToString());
      for (const linking::Link& link : growth.new_ground_truth) {
        truth.Add(link);
      }

      triples += ingested.triples_ingested;
      left_entities += ingested.new_left_entities;
      right_entities += ingested.new_right_entities;
      new_pairs += ingested.new_pairs;
      overflow_entries += ingested.overflow_entries;
      scheduled_triples +=
          growth.left_triples.size() + growth.right_triples.size();
      scheduled_left += growth.new_left_subjects.size();
      scheduled_right += growth.new_right_subjects.size();
      for (size_t field :
           {ingested.triples_ingested, ingested.new_left_entities,
            ingested.new_right_entities, ingested.new_pairs,
            ingested.overflow_entries}) {
        report->digest.Add(static_cast<uint64_t>(field));
      }

      core::EpisodeStats stats;
      episode_ms.push_back(TimedMs(lane, "core.RunEpisode", group, [&] {
        stats = engine->RunEpisode(judge);
      }));
      report->Attempt(stats.feedback_items > 0,
                      world + " episode " + std::to_string(e) +
                          " judged nothing");
      totals.Add(stats, &report->digest);
    }
    engine->SetLinkChangeObserver(nullptr);
    blocking_merges += ingested.blocking_merges;
    candidates += engine->CandidateCount();
    report->digest.Add(engine->right_context()->index.Fingerprint());
    for (const core::PartitionAlex& partition : engine->partitions()) {
      report->digest.Add(partition.space().Fingerprint());
    }
    report->digest.Add(
        alex::eval::Evaluate(engine->CandidateLinks(), truth).f_measure);
    if (w == 0) ReportWorldSize(loaded, report);
  }

  // Output check: the engines saw exactly the growth the schedules applied.
  report->Attempt(triples == scheduled_triples &&
                      left_entities == scheduled_left &&
                      right_entities == scheduled_right,
                  "IngestStats totals differ from the growth schedule (" +
                      std::to_string(triples) + " of " +
                      std::to_string(scheduled_triples) + " triples)");

  report->Size("worlds", kWorlds);
  report->Size("growth_epochs_per_world", epochs);
  report->Size("growth_fraction", kGrowthFraction);
  report->Size("triples_ingested", static_cast<double>(triples));
  report->Size("episode_size", 1000);
  report->Size("engine_threads", kThreads);

  // Per second of the whole loop: growth batches included.
  const double loop_s = (Sum(ingest_ms) + Sum(episode_ms)) * 1e-3;
  report->EndToEnd("feedback_per_s",
                   static_cast<double>(totals.feedback_items) / loop_s, "1/s");
  report->EndToEnd("episode_ms_p50", Median(episode_ms), "ms");
  report->EndToEnd("request_ms_gmean", GeoMean(ingest_ms), "ms");

  if (tracer->enabled()) {
    auto count = [](size_t n) { return static_cast<double>(n); };
    setup.ReportLayers(*tracer, report);
    totals.ReportLayers(*tracer, candidates, report);
    report->Layer("rdf.add_triples_ms",
                  Median(tracer->DurationsMs("rdf.ApplyGrowthEpoch")), "ms");
    report->Layer("core.ingest_ms",
                  Median(tracer->DurationsMs("core.IngestTriples")), "ms");
    report->Layer("core.new_pairs", count(new_pairs), "count");
    report->Layer("core.overflow_entries", count(overflow_entries), "count");
    report->Layer("core.blocking_merges", count(blocking_merges), "count");
  }
}

}  // namespace alexbench
