#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <numeric>

#include "bench.h"
#include "linking/paris.h"
#include "rdf/ntriples.h"

namespace alexbench {

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double value : values) log_sum += std::log(value);
  return values.empty()
             ? 0.0
             : std::exp(log_sum / static_cast<double>(values.size()));
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void Calibration::MaybeSample() {
  constexpr size_t kWords = 1 << 20;  // 4 MiB
  constexpr int kSteps = 200000;
  if (NowNs() - last_ns_ < 200'000'000) return;
  if (table_.empty()) {
    table_.resize(kWords);
    uint32_t x = 1;
    for (uint32_t& word : table_) word = x = x * 1664525u + 1013904223u;
  }
  // Untimed first: evict every line of the table from every cache level, so
  // the timed walk starts from the same state whatever the program left in
  // cache, and its first touch of each line is a memory read. (Flushing
  // also leaves the table's translations in the TLB.) Only x86 has the
  // flush; elsewhere the walk starts from whatever the program left.
#if defined(__x86_64__) || defined(__i386__)
  constexpr size_t kWordsPerLine = 64 / sizeof(uint32_t);
  for (size_t w = 0; w < kWords; w += kWordsPerLine) _mm_clflush(&table_[w]);
  _mm_mfence();
#endif
  const int64_t start = NowNs();
  uint64_t lcg = 12345;
  uint64_t acc = 0;
  uint32_t i = 0;
  for (int step = 0; step < kSteps; ++step) {
    const uint32_t v = table_[i];  // a dependent random read
    for (uint32_t k = 0; k < 8; ++k) acc = (acc ^ (v + k)) * 0x100000001b3ull;
    table_[i] = v + static_cast<uint32_t>(acc);
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    i = (static_cast<uint32_t>(lcg >> 33) ^ v) & (kWords - 1);
  }
  sink_ += acc;
  last_ns_ = NowNs();
  samples_ms_.push_back(static_cast<double>(last_ns_ - start) * 1e-6);
}

double Calibration::Factor() const {
  return samples_ms_.empty() ? 1.0 : kNominalMs / Median(samples_ms_);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Input MakeInput(datagen::WorldProfile profile, double scale, uint64_t seed,
                Lane* lane) {
  Span span(lane, "bench.input");
  auto scaled = [scale](size_t n) {
    return std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(n) * scale));
  };
  profile.overlap_entities = scaled(profile.overlap_entities);
  profile.left_only_entities = scaled(profile.left_only_entities);
  profile.right_only_entities = scaled(profile.right_only_entities);
  if (profile.confusable_pairs > 0) {
    profile.confusable_pairs = scaled(profile.confusable_pairs);
  }
  profile.seed += seed;

  Input input;
  datagen::GeneratedWorld world;
  {
    Span generate(lane, "datagen.Generate");
    world = datagen::Generate(profile);
  }
  {
    Span write(lane, "rdf.WriteNTriples");
    input.left_nt = alex::rdf::WriteNTriples(world.left);
    input.right_nt = alex::rdf::WriteNTriples(world.right);
  }
  input.truth = std::move(world.ground_truth);
  input.profile = std::move(profile);
  return input;
}

Loaded Load(const Input& input, Lane* lane, int64_t group) {
  Loaded loaded;
  loaded.world = std::make_unique<datagen::GeneratedWorld>();
  alex::rdf::TripleStore& left = loaded.world->left;
  alex::rdf::TripleStore& right = loaded.world->right;
  left = alex::rdf::TripleStore(input.profile.left_store_name);
  right = alex::rdf::TripleStore(input.profile.right_store_name);
  loaded.world->ground_truth = input.truth;
  alex::Status status;
  TimedMs(lane, "rdf.ParseNTriples", group, [&] {
    status = alex::rdf::ParseNTriples(input.left_nt, &left);
    if (status.ok()) status = alex::rdf::ParseNTriples(input.right_nt, &right);
  });
  if (!status.ok()) {
    std::cerr << "alexbench: generated N-Triples failed to parse: "
              << status.ToString() << "\n";
    std::exit(2);
  }
  TimedMs(lane, "linking.RunParis", group, [&] {
    loaded.initial_links =
        linking::FilterByScore(linking::RunParis(left, right), 0.95);
  });
  return loaded;
}

core::AlexOptions EngineOptions(int threads) {
  core::AlexOptions options;
  options.episode_size = 1000;
  options.num_partitions = 8;
  options.num_threads = threads;
  return options;
}

std::unique_ptr<core::AlexEngine> InitEngine(const Loaded& loaded,
                                             const core::AlexOptions& options,
                                             bool share_right,
                                             alex::ThreadPool* pool,
                                             Lane* lane, int64_t group) {
  const alex::rdf::TripleStore& right = loaded.world->right;
  std::shared_ptr<const core::RightContext> prepared;
  if (share_right) {
    TimedMs(lane, "core.RightContext::Prepare", group, [&] {
      prepared = core::RightContext::Prepare(right, right.Subjects(),
                                             options.space, pool);
    });
  }
  auto engine =
      std::make_unique<core::AlexEngine>(&loaded.world->left, &right, options);
  alex::Status status;
  TimedMs(lane, "core.Initialize", group, [&] {
    status = engine->Initialize(loaded.initial_links, prepared);
  });
  if (!status.ok()) {
    std::cerr << "alexbench: Initialize failed: " << status.ToString()
              << "\n";
    std::exit(2);
  }
  return engine;
}

void ReportWorldSize(const Loaded& loaded, Report* report) {
  report->Size("left_entities",
               static_cast<double>(loaded.world->left.Subjects().size()));
  report->Size("right_entities",
               static_cast<double>(loaded.world->right.Subjects().size()));
}

void SetupTotals::Add(const core::AlexEngine& engine, const Loaded& loaded) {
  triples += static_cast<double>(loaded.world->left.size() +
                                 loaded.world->right.size());
  initial_links += static_cast<double>(loaded.initial_links.size());
  pairs_total += static_cast<double>(engine.total_pair_count());
  pairs_scored += static_cast<double>(engine.scored_pair_count());
  pairs_kept += static_cast<double>(engine.filtered_pair_count());
}

void SetupTotals::ReportLayers(const Tracer& tracer, Report* report) const {
  auto median = [&](const char* span) {
    return Median(tracer.DurationsMs(span));
  };
  report->Layer("rdf.parse_ms", median("rdf.ParseNTriples"), "ms");
  report->Layer("rdf.triples", triples, "count");
  report->Layer("linking.paris_ms", median("linking.RunParis"), "ms");
  report->Layer("linking.initial_links", initial_links, "count");
  report->Layer("core.prepare_right_ms", median("core.RightContext::Prepare"),
                "ms");
  report->Layer("core.initialize_ms", median("core.Initialize"), "ms");
  report->Layer("core.pairs_total", pairs_total, "count");
  report->Layer("core.pairs_scored", pairs_scored, "count");
  report->Layer("core.pairs_kept", pairs_kept, "count");
  report->Layer("core.scored_share", Share(pairs_scored, pairs_total),
                "share");
  report->Layer("core.kept_share", Share(pairs_kept, pairs_scored), "share");
}

void EpisodeTotals::Add(const core::EpisodeStats& stats, Digest* digest) {
  partition_max_ms.push_back(stats.max_partition_seconds * 1e3);
  partition_avg_ms.push_back(stats.avg_partition_seconds * 1e3);
  feedback_items += stats.feedback_items;
  positive += stats.positive_feedback;
  rollbacks += stats.rollbacks;
  for (size_t field :
       {stats.feedback_items, stats.positive_feedback, stats.negative_feedback,
        stats.links_added, stats.links_removed, stats.rollbacks,
        stats.rolled_back_links, stats.candidate_count}) {
    digest->Add(static_cast<uint64_t>(field));
  }
  digest->Add(stats.change_fraction);
}

void EpisodeTotals::ReportLayers(const Tracer& tracer, size_t candidates,
                                 Report* report) const {
  auto count = [](size_t n) { return static_cast<double>(n); };
  report->Layer("core.episode_ms",
                Median(tracer.DurationsMs("core.RunEpisode")), "ms");
  report->Layer("core.partition_max_ms", Median(partition_max_ms), "ms");
  report->Layer("core.partition_avg_ms", Median(partition_avg_ms), "ms");
  report->Layer("core.feedback_items", count(feedback_items), "count");
  report->Layer("core.positive_share",
                Share(count(positive), count(feedback_items)), "share");
  report->Layer("core.links_added", count(links_added), "count");
  report->Layer("core.links_removed", count(links_removed), "count");
  report->Layer("core.rollbacks", count(rollbacks), "count");
  report->Layer("core.candidates", count(candidates), "count");
}

}  // namespace alexbench
