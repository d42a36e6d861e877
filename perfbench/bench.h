// Shared pieces of the end-to-end benchmark: options, the report every
// workload fills, the output digest, the generated input, and the set-up
// that parses it, runs PARIS and initializes the engine.
#ifndef ALEXBENCH_BENCH_H_
#define ALEXBENCH_BENCH_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "datagen/world.h"
#include "linking/link.h"
#include "trace.h"

namespace alexbench {

namespace core = alex::core;
namespace datagen = alex::datagen;
namespace linking = alex::linking;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Sizes the fixed work budget; never read as a deadline.
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (trace mode)
  // Self-test sizes: the same code paths on a world a few percent the size.
  bool tiny = false;
  // Self-test only: "replay" corrupts one recorded answer hash, "digest"
  // perturbs the output digest; either must make the output check fail.
  std::string corrupt;
  std::string commit = "unknown";  // recorded in the host block
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// FNV-1a over everything a run produces that must repeat across runs of
// one seed: learner series, verdict batches, answer hashes, fingerprints.
class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  void Add(std::string_view text) {
    for (unsigned char c : text) Byte(c);
    Byte(0xff);
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char c) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 1469598103934665603ull;
};

// Host-speed calibration. On a shared VM the cores run up to twice as slow
// for minutes at a time, whatever runs on them, and every timed phase of a
// run moves with them. So each run also times a fixed reference kernel
// (part of this benchmark, never of the code under test) between
// operations, about five times a second while nothing else of the
// benchmark runs, and every printed time is scaled by nominal / median
// kernel time: "ms at the host speed where the kernel takes kNominalMs".
// The kernel is a dependent random walk over a 4 MiB table whose lines are
// all flushed from cache first: it starts from the same cache state
// whatever the program left behind, and like the program it slows down
// when memory reads do. The raw times are printed too, on the `detail`
// line.
class Calibration {
 public:
  static constexpr double kNominalMs = 15.0;  // a quiet 4-vCPU Xeon VM

  // Times the kernel when at least 200 ms passed since the last sample.
  void MaybeSample();
  // kNominalMs / median kernel time: multiply a duration by this.
  double Factor() const;
  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  std::vector<uint32_t> table_;
  std::vector<double> samples_ms_;
  int64_t last_ns_ = 0;
  uint64_t sink_ = 0;
};

struct Report {
  Calibration calibration;
  std::vector<double> setup_s;  // each world's set-up, raw seconds
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, double>> sizes;
  Digest digest;

  // One attempted operation or output check; `ok` false counts it failed.
  void Attempt(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(what);
  }
  void EndToEnd(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void Size(std::string name, double value) {
    sizes.emplace_back(std::move(name), value);
  }
};

// Statistics over samples (empty input gives 0).
double Median(std::vector<double> values);
// Linear interpolation between closest ranks, q in [0, 1].
double Percentile(std::vector<double> values, double q);
double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
// exp(mean(log x)) over positive samples.
double GeoMean(const std::vector<double>& values);
double Share(double part, double whole);
double PeakRssMb();

// The generated input of one run: both data sets serialized as N-Triples
// plus the ground truth, built before any timed phase.
struct Input {
  datagen::WorldProfile profile;  // scaled and seed-offset
  std::string left_nt;
  std::string right_nt;
  std::vector<alex::linking::Link> truth;
};

// Scales the profile's entity counts, offsets its seed by `seed`, then
// generates and serializes the world.
Input MakeInput(datagen::WorldProfile profile, double scale, uint64_t seed,
                Lane* lane);

// One set-up's data: the parsed stores and PARIS' initial links.
struct Loaded {
  std::unique_ptr<datagen::GeneratedWorld> world;  // stable store addresses
  std::vector<alex::linking::Link> initial_links;
};

// rdf::ParseNTriples both sides, then linking::RunParis filtered at 0.95
// (§7.1). Aborts on a parse error: the input is generated, so one is a bug.
Loaded Load(const Input& input, Lane* lane, int64_t group);

// Batch mode of §7.1: 1000-item episodes over 8 partitions.
alex::core::AlexOptions EngineOptions(int threads);

// Constructs and initializes an engine over `loaded`. With `share_right`
// the right context is prepared by an explicit RightContext::Prepare call
// (its own span; sharded over `pool` when non-null) and handed to
// Initialize; without, Initialize prepares it itself, which an engine that
// ingests requires.
std::unique_ptr<alex::core::AlexEngine> InitEngine(
    const Loaded& loaded, const alex::core::AlexOptions& options,
    bool share_right, alex::ThreadPool* pool, Lane* lane, int64_t group);

// Episode-loop per-layer metrics shared by the workloads that call
// AlexEngine::RunEpisode (batch and ingest), from the engine-filled
// EpisodeStats fields and the net link changes the observer saw.
struct EpisodeTotals {
  std::vector<double> partition_max_ms;
  std::vector<double> partition_avg_ms;
  size_t feedback_items = 0;
  size_t positive = 0;
  size_t rollbacks = 0;
  size_t links_added = 0;    // net, from the link-change observer
  size_t links_removed = 0;  // net, from the link-change observer

  // Folds one episode into the totals and the digest.
  void Add(const alex::core::EpisodeStats& stats, Digest* digest);
  void ReportLayers(const Tracer& tracer, size_t candidates,
                    Report* report) const;
};

// Every run works on several worlds drawn from its seed, one after the
// other: set-up, then the world's share of the run's work, then the next.
// One world's quirks (a heavy query, a chaotic learner trajectory) would
// otherwise decide the whole run; set-up is timed once per world, so the
// run also sets up several times and reports the mean over all of them.
//
// The profile seed offset of world `world` (< 1000) of run seed `seed`.
inline uint64_t WorldSeed(uint64_t seed, int world) {
  return seed * 1000 + static_cast<uint64_t>(world);
}

// Runs `fn`, the set-up of world `world`, inside a bench.setup span and
// appends its wall time in seconds to report->setup_s.
template <typename Fn>
void TimedSetup(Lane* lane, int world, Report* report, Fn&& fn) {
  report->calibration.MaybeSample();
  report->setup_s.push_back(TimedMs(lane, "bench.setup", world, fn) * 1e-3);
}

// Records the entity counts of a run's first world among its sizes.
void ReportWorldSize(const Loaded& loaded, Report* report);

// Set-up counts summed over a run's worlds.
struct SetupTotals {
  double triples = 0;
  double initial_links = 0;
  double pairs_total = 0;
  double pairs_scored = 0;
  double pairs_kept = 0;

  void Add(const alex::core::AlexEngine& engine, const Loaded& loaded);
  // Set-up per-layer metrics: per-call medians of the set-up spans plus
  // these totals.
  void ReportLayers(const Tracer& tracer, Report* report) const;
};

// Workload entry points (batch.cc, serve.cc, ingest.cc).
void RunBatch(const Options& options, Tracer* tracer, Lane* lane,
              Report* report);
void RunServe(const Options& options, Tracer* tracer, Lane* lane,
              Report* report);
void RunIngest(const Options& options, Tracer* tracer, Lane* lane,
               Report* report);

}  // namespace alexbench

#endif  // ALEXBENCH_BENCH_H_
