// `serve`: the deployed loop of §3.2. Two closed-loop reader streams run a
// fixed quota of federated queries per epoch through
// ServingEngine::ExecuteText, drawn Zipf-skewed from an
// eval::GenerateWorkload pool, and cast one crowd vote per provenance link of
// every answer into a FeedbackAggregator. Meanwhile the learner (main
// thread, serial engine) applies the verdicts drained at the previous
// boundary and runs EndExternalEpisode, which stages the link changes. At
// the boundary, after the readers finished their quota: DrainVerdicts, then
// Publish.
//
// Publish happens only while no reader runs, so every query of epoch e pins
// the snapshot published at the end of epoch e - 1, and answers, votes,
// verdicts and the learner's series do not depend on thread timing. Each
// stream draws from its own half of the pool, so no query runs on both
// streams at once and which queries the shared result cache answers does
// not depend on timing either.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "eval/metrics.h"
#include "eval/query_workload.h"
#include "feedback/aggregator.h"
#include "feedback/oracle.h"
#include "serving/serving_engine.h"
#include "serving/serving_loop.h"

namespace alexbench {

namespace {

namespace fed = alex::fed;
namespace serving = alex::serving;

constexpr int kStreams = 2;
constexpr double kScale = 1.0;
constexpr size_t kPoolQueries = 2000;
constexpr size_t kQueriesPerStreamEpoch = 400;
constexpr int kWorlds = 7;
constexpr int kEpochsPerWorld = 6;  // at --seconds 10; scales with it
constexpr double kZipfExponent = 1.0;
constexpr double kVoteErrorRate = 0.1;

uint64_t MixWord(uint64_t x) {  // SplitMix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Whether the crowd vote number `index` of `stream` on `link` is wrong: a
// pure hash of (seed, link, stream, index), so it never depends on timing.
bool VoteIsWrong(uint64_t seed, const linking::Link& link, int stream,
                 uint64_t index) {
  Digest digest;
  digest.Add(link.left);
  digest.Add(link.right);
  const uint64_t salt = (static_cast<uint64_t>(stream) << 48) ^ index;
  const uint64_t h =
      MixWord(digest.value() ^ MixWord(seed) ^ MixWord(salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < kVoteErrorRate;
}

// Zipf(kZipfExponent) over ranks [0, n), drawn by inverting the CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t rank = 0; rank < n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      cdf_[rank] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(alex::Rng* rng) const {
    const double u = rng->NextDouble();
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// One reader query, enough to replay and check it.
struct QueryRecord {
  uint32_t query = 0;
  uint64_t epoch = 0;  // the epoch the query pinned
  uint64_t answers_hash = 0;
  size_t rows = 0;
  double ms = 0.0;
  bool ok = false;  // executed, complete
  bool hit = false;
};

struct Stream {
  alex::Rng rng{0};
  Lane* lane = nullptr;
  uint64_t vote_index = 0;
  std::vector<QueryRecord> records;
  // Carry-forward: the epoch each query of the current world last ran in,
  // and, over first draws in an epoch of queries an earlier epoch ran, how
  // many the result cache answered.
  std::unordered_map<uint32_t, int> last_epoch;
  size_t carried = 0;
  size_t carried_hits = 0;
};

// Output check, untimed: every answer a stream recorded from
// `first_record[s]` on must hash like a sequential, uncached replay of its
// query against `snapshot`, the epoch it had to pin.
void CheckEpoch(const std::vector<const alex::rdf::TripleStore*>& sources,
                const serving::EpochSnapshot& snapshot,
                const std::vector<alex::eval::WorkloadQuery>& pool,
                const std::vector<Stream>& streams,
                const std::vector<size_t>& first_record,
                const std::string& where, Report* report) {
  fed::FederatedEngine replayer(sources, &snapshot.links());
  std::map<uint32_t, uint64_t> replayed;  // query -> answers hash
  for (int s = 0; s < kStreams; ++s) {
    const std::vector<QueryRecord>& records = streams[s].records;
    for (size_t i = first_record[s]; i < records.size(); ++i) {
      const QueryRecord& record = records[i];
      auto it = replayed.find(record.query);
      if (it == replayed.end()) {
        alex::Result<fed::FederatedResult> again =
            replayer.ExecuteText(pool[record.query].text);
        const bool ok = again.ok() && again.value().complete;
        const uint64_t hash = ok ? serving::HashAnswers(again.value().answers)
                                 : ~record.answers_hash;
        it = replayed.emplace(record.query, hash).first;
      }
      report->Attempt(record.ok && record.epoch == snapshot.epoch() &&
                          record.answers_hash == it->second,
                      where + " stream " + std::to_string(s) + " query " +
                          std::to_string(record.query) + " does not replay");
      report->digest.Add(static_cast<uint64_t>(record.query) << 32 |
                         record.epoch);
      report->digest.Add(record.answers_hash);
    }
  }
}

}  // namespace

void RunServe(const Options& options, Tracer* tracer, Lane* lane,
              Report* report) {
  const double scale = options.tiny ? 0.1 : kScale;
  const size_t pool_size = options.tiny ? 100 : kPoolQueries;
  const size_t quota = options.tiny ? 40 : kQueriesPerStreamEpoch;
  const int epochs =
      options.tiny ? 2 : std::max(1, kEpochsPerWorld * options.seconds / 10);

  std::vector<Stream> streams(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    streams[s].rng.Reseed(MixWord(options.seed ^ (0x5eed00ull + s)));
    streams[s].lane = tracer->NewLane("reader-" + std::to_string(s));
  }
  SetupTotals setup;
  size_t links_added = 0;
  size_t links_removed = 0;
  size_t verdicts_applied = 0;
  size_t verdicts_approved = 0;
  size_t candidates = 0;
  double votes = 0, verdicts_emitted = 0, link_merges = 0;
  double plan_hits = 0, plan_lookups = 0;
  std::vector<double> learner_ms;
  std::vector<double> invalidated;
  std::vector<double> stage_ms_per_epoch;
  int64_t loop_ns = 0;

  for (int w = 0; w < kWorlds; ++w) {
    const uint64_t world_seed = WorldSeed(options.seed, w);
    const Input input =
        MakeInput(datagen::DbpediaNytimesProfile(), scale, world_seed, lane);
    const alex::feedback::GroundTruth truth(input.truth);
    // Declaration order is destruction order in reverse: the serving engine
    // goes first, the stores it federates over last.
    Loaded loaded;
    std::unique_ptr<core::AlexEngine> engine;
    std::unique_ptr<serving::ServingEngine> server;
    TimedSetup(lane, w, report, [&] {
      loaded = Load(input, lane, w);
      engine = InitEngine(loaded, EngineOptions(1), true, nullptr, lane, w);
      // Store indexes are built lazily on first touch, which is not safe
      // under concurrent readers: build them here, inside set-up.
      (void)loaded.world->left.size();
      (void)loaded.world->right.size();
      TimedMs(lane, "serving.ServingEngine", w, [&] {
        serving::ServingOptions serving_options;
        serving_options.sources = {&loaded.world->left, &loaded.world->right};
        server = std::make_unique<serving::ServingEngine>(
            serving_options, engine->CandidateLinks());
      });
    });
    setup.Add(*engine, loaded);
    const std::vector<const alex::rdf::TripleStore*> sources = {
        &loaded.world->left, &loaded.world->right};

    alex::eval::WorkloadOptions workload_options;
    workload_options.num_queries = pool_size;
    workload_options.seed = MixWord(world_seed ^ 0x9001);
    const std::vector<alex::eval::WorkloadQuery> pool =
        alex::eval::GenerateWorkload(*loaded.world, workload_options);
    // One fixed Zipf ranking per world: the pool comes in random order
    // with distinct texts, and rank r of stream s serves
    // pool[r * kStreams + s], so the streams own disjoint halves.
    const Zipf zipf(pool.size() / kStreams);
    alex::feedback::FeedbackAggregator aggregator;

    // StageLink takes well under a microsecond and runs once per changed
    // link: summed per epoch inside the EndExternalEpisode span, no span of
    // its own.
    double stage_ms = 0.0;
    engine->SetLinkChangeObserver(
        [&](const linking::Link& link, bool added) {
          const int64_t start = NowNs();
          server->StageLink(link, added);
          stage_ms += static_cast<double>(NowNs() - start) * 1e-6;
          ++(added ? links_added : links_removed);
        });

    // One reader stream's quota for epoch `e` (it pins epoch e - 1).
    auto read = [&](Stream& stream, int s, int e) {
      Span reader(stream.lane, "bench.reader", w * 1000 + e);
      for (size_t k = 0; k < quota; ++k) {
        const int64_t id = ((int64_t{w} * 1000 + e) * kStreams + s) *
                               1'000'000 +
                           static_cast<int64_t>(k);
        QueryRecord record;
        record.query =
            static_cast<uint32_t>(zipf.Draw(&stream.rng) * kStreams + s);
        std::shared_ptr<const serving::EpochSnapshot> pinned;
        alex::Result<fed::FederatedResult> result =
            alex::Status::Internal("not executed");
        record.ms = TimedMs(stream.lane, "serving.ExecuteText", id, [&] {
          result = server->ExecuteText(pool[record.query].text, {}, &pinned);
        });
        record.epoch = pinned != nullptr ? pinned->epoch() : UINT64_MAX;
        if (result.ok()) {
          const fed::FederatedResult& answers = result.value();
          record.ok = answers.complete;
          record.hit = answers.from_cache;
          record.rows = answers.answers.size();
          record.answers_hash = serving::HashAnswers(answers.answers);
          // Closed loop: the user judges the answers before the next query.
          TimedMs(stream.lane, "feedback.AddVote", id, [&] {
            for (const fed::FederatedAnswer& answer : answers.answers) {
              for (const linking::Link& link : answer.links_used) {
                const bool wrong = VoteIsWrong(options.seed, link, s,
                                               stream.vote_index++);
                aggregator.AddVote(link, truth.Contains(link) != wrong);
              }
            }
          });
        }
        auto [last, first] = stream.last_epoch.try_emplace(record.query, e);
        if (!first && last->second != e) {
          ++stream.carried;
          stream.carried_hits += record.hit ? 1 : 0;
          last->second = e;
        }
        stream.records.push_back(record);
      }
    };
    for (Stream& stream : streams) stream.last_epoch.clear();

    std::vector<alex::feedback::LinkVerdict> verdicts;  // drained, not applied
    for (int e = 1; e <= epochs; ++e) {
      report->calibration.MaybeSample();
      const int64_t group = w * 1000 + e;
      const std::shared_ptr<const serving::EpochSnapshot> snapshot =
          server->Pin();
      std::vector<size_t> first_record(kStreams);
      for (int s = 0; s < kStreams; ++s) {
        first_record[s] = streams[s].records.size();
      }

      const int64_t epoch_start = NowNs();
      double epoch_learner_ms = 0.0;
      {
        Span epoch_span(lane, "bench.epoch", group);
        std::vector<std::thread> readers;
        for (int s = 0; s < kStreams; ++s) {
          readers.emplace_back(
              [&read, &streams, s, e] { read(streams[s], s, e); });
        }
        stage_ms = 0.0;
        epoch_learner_ms +=
            TimedMs(lane, "core.ApplyLinkFeedback", group, [&] {
              engine->BeginExternalEpisode();
              for (const alex::feedback::LinkVerdict& verdict : verdicts) {
                engine->ApplyLinkFeedback(verdict.link, verdict.approve);
                verdicts_approved += verdict.approve ? 1 : 0;
              }
            });
        verdicts_applied += verdicts.size();
        size_t changed = 0;
        epoch_learner_ms +=
            TimedMs(lane, "core.EndExternalEpisode", group,
                    [&] { changed = engine->EndExternalEpisode(); });
        stage_ms_per_epoch.push_back(stage_ms);
        for (std::thread& reader : readers) reader.join();

        epoch_learner_ms +=
            TimedMs(lane, "feedback.DrainVerdicts", group, [&] {
              verdicts = aggregator.DrainVerdicts(static_cast<uint64_t>(e));
            });
        std::shared_ptr<const serving::EpochSnapshot> published;
        epoch_learner_ms += TimedMs(lane, "serving.Publish", group,
                                    [&] { published = server->Publish(); });
        if (published->cache() != nullptr) {
          invalidated.push_back(
              static_cast<double>(published->cache()->stats().invalidated));
        }
        report->digest.Add(static_cast<uint64_t>(changed));
        report->digest.Add(static_cast<uint64_t>(engine->CandidateCount()));
      }
      loop_ns += NowNs() - epoch_start;
      learner_ms.push_back(epoch_learner_ms);
      for (const alex::feedback::LinkVerdict& verdict : verdicts) {
        report->digest.Add(verdict.link.left);
        report->digest.Add(verdict.link.right);
        report->digest.Add(static_cast<uint64_t>(verdict.positive) << 32 |
                           verdict.negative);
      }

      Span check(lane, "bench.replay", group);
      if (options.corrupt == "replay" && w == 0 && e == 1 &&
          !streams[0].records.empty()) {
        streams[0].records.front().answers_hash ^= 1;
      }
      CheckEpoch(sources, *snapshot, pool, streams, first_record,
                 "world " + std::to_string(w) + " epoch " + std::to_string(e),
                 report);
    }
    engine->SetLinkChangeObserver(nullptr);
    report->digest.Add(
        alex::eval::Evaluate(engine->CandidateLinks(), truth).f_measure);

    const alex::feedback::AggregatorStats aggregated = aggregator.stats();
    votes += static_cast<double>(aggregated.votes_recorded);
    verdicts_emitted += static_cast<double>(aggregated.verdicts_emitted);
    link_merges += static_cast<double>(server->stats().link_merges);
    candidates += engine->CandidateCount();
    const std::shared_ptr<const serving::EpochSnapshot> last = server->Pin();
    if (last->plan_cache() != nullptr) {
      const alex::sparql::PlanCache::Stats plans = last->plan_cache()->stats();
      const double hits =
          static_cast<double>(plans.parse_hits + plans.plan_hits);
      plan_hits += hits;
      plan_lookups +=
          hits + static_cast<double>(plans.parse_misses + plans.plan_misses);
    }
    if (w == 0) {
      ReportWorldSize(loaded, report);
      report->Size("query_pool", static_cast<double>(pool.size()));
    }
  }
  const double loop_s = static_cast<double>(loop_ns) * 1e-9;

  std::vector<double> query_ms, hit_ms, miss_ms;
  double rows = 0.0;
  size_t carried = 0, carried_hits = 0;
  for (const Stream& stream : streams) {
    for (const QueryRecord& record : stream.records) {
      query_ms.push_back(record.ms);
      (record.hit ? hit_ms : miss_ms).push_back(record.ms);
      rows += static_cast<double>(record.rows);
    }
    carried += stream.carried;
    carried_hits += stream.carried_hits;
  }
  auto count = [](size_t n) { return static_cast<double>(n); };

  report->Size("worlds", kWorlds);
  report->Size("epochs_per_world", epochs);
  report->Size("reader_streams", kStreams);
  report->Size("queries_per_stream_epoch", count(quota));
  report->Size("queries", count(query_ms.size()));
  report->Size("engine_threads", 1);

  // Each answered query is one act of feedback: the user judges its
  // answers (one vote per provenance link) before the next query.
  report->EndToEnd("feedback_per_s", count(query_ms.size()) / loop_s, "1/s");
  report->EndToEnd("episode_ms_p50", Median(learner_ms), "ms");
  // Queries the result cache answers cost a copy of the cached rows; the
  // ones that reach the federation are the requests users wait on. Their
  // latencies cluster by answer size, and the median jumps between the
  // clusters from world to world; the geometric mean moves smoothly.
  report->EndToEnd("request_ms_gmean", GeoMean(miss_ms), "ms");

  if (!tracer->enabled()) return;
  auto median = [&](const char* span) {
    return Median(tracer->DurationsMs(span));
  };
  setup.ReportLayers(*tracer, report);
  report->Layer("core.feedback_items", count(verdicts_applied), "count");
  report->Layer("core.positive_share",
                Share(count(verdicts_approved), count(verdicts_applied)),
                "share");
  report->Layer("core.links_added", count(links_added), "count");
  report->Layer("core.links_removed", count(links_removed), "count");
  report->Layer("core.candidates", count(candidates), "count");
  report->Layer("core.apply_feedback_ms", median("core.ApplyLinkFeedback"),
                "ms");
  report->Layer("core.end_episode_ms", median("core.EndExternalEpisode"),
                "ms");
  report->Layer("feedback.vote_ms", median("feedback.AddVote"), "ms");
  report->Layer("feedback.votes", votes, "count");
  report->Layer("feedback.drain_ms", median("feedback.DrainVerdicts"), "ms");
  report->Layer("feedback.verdicts", verdicts_emitted, "count");
  report->Layer("feedback.verdict_share", Share(verdicts_emitted, votes),
                "share");
  report->Layer("federation.hit_share",
                Share(count(hit_ms.size()), count(query_ms.size())), "share");
  // Of the queries an earlier epoch ran, the share the cache still held:
  // what Publish carried forward past its invalidations.
  report->Layer("federation.carried_hit_share",
                Share(count(carried_hits), count(carried)), "share");
  report->Layer("federation.hit_ms_p50", Median(hit_ms), "ms");
  report->Layer("federation.miss_ms_p50", Median(miss_ms), "ms");
  report->Layer("federation.miss_ms_p99", Percentile(miss_ms, 0.99), "ms");
  report->Layer("federation.rows_per_query",
                Share(rows, count(query_ms.size())), "count");
  report->Layer("federation.invalidated",
                Share(Sum(invalidated), count(invalidated.size())), "count");
  report->Layer("sparql.plan_hit_share", Share(plan_hits, plan_lookups),
                "share");
  report->Layer("serving.publish_ms", median("serving.Publish"), "ms");
  report->Layer("serving.stage_ms", Median(stage_ms_per_epoch), "ms");
  report->Layer("serving.link_merges", link_merges, "count");
}

}  // namespace alexbench
