// alexbench: one workload of the end-to-end benchmark per process.
//
//   alexbench --workload batch|serve|ingest --seed N --seconds S --trace 0|1
//             [--trace-out trace.json] [--commit SHA] [--tiny]
//             [--corrupt replay|digest]
//
// Prints one `detail {...}` line (host and commit block, workload sizes,
// output digest, failed checks, each world's raw set-up time, host-speed
// calibration, end-to-end metrics raw and calibrated and, when tracing, the
// per-layer table of raw span times) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. perfbench/run.py builds
// this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace alexbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload prints every metric; a layer a workload leaves idle reads
// 0 there (that workload is the layer's no-change control). Must match
// BENCHMARK.json (perfbench/selftest.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"feedback_per_s", "1/s"}, {"episode_ms_p50", "ms"},
    {"request_ms_gmean", "ms"},
};
constexpr MetricSpec kPerLayer[] = {
    {"rdf.parse_ms", "ms"},
    {"rdf.triples", "count"},
    {"rdf.add_triples_ms", "ms"},
    {"linking.paris_ms", "ms"},
    {"linking.initial_links", "count"},
    {"core.prepare_right_ms", "ms"},
    {"core.initialize_ms", "ms"},
    {"core.pairs_total", "count"},
    {"core.pairs_scored", "count"},
    {"core.pairs_kept", "count"},
    {"core.scored_share", "share"},
    {"core.kept_share", "share"},
    {"core.episode_ms", "ms"},
    {"core.partition_max_ms", "ms"},
    {"core.partition_avg_ms", "ms"},
    {"core.feedback_items", "count"},
    {"core.positive_share", "share"},
    {"core.links_added", "count"},
    {"core.links_removed", "count"},
    {"core.rollbacks", "count"},
    {"core.candidates", "count"},
    {"core.ingest_ms", "ms"},
    {"core.new_pairs", "count"},
    {"core.overflow_entries", "count"},
    {"core.blocking_merges", "count"},
    {"core.apply_feedback_ms", "ms"},
    {"core.end_episode_ms", "ms"},
    {"feedback.vote_ms", "ms"},
    {"feedback.votes", "count"},
    {"feedback.drain_ms", "ms"},
    {"feedback.verdicts", "count"},
    {"feedback.verdict_share", "share"},
    {"federation.hit_share", "share"},
    {"federation.carried_hit_share", "share"},
    {"federation.hit_ms_p50", "ms"},
    {"federation.miss_ms_p50", "ms"},
    {"federation.miss_ms_p99", "ms"},
    {"federation.rows_per_query", "count"},
    {"federation.invalidated", "count"},
    {"sparql.plan_hit_share", "share"},
    {"serving.publish_ms", "ms"},
    {"serving.stage_ms", "ms"},
    {"serving.link_merges", "count"},
};

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The metrics of `specs` as a JSON object, in spec order. A name the
// workload did not report reads 0; a name it reported that is not in
// `specs`, or reported twice, is a bug and aborts.
template <size_t N>
std::string MetricsJson(const std::vector<Metric>& reported,
                        const MetricSpec (&specs)[N]) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : reported) {
    bool known = false;
    for (const MetricSpec& spec : specs) {
      known = known || (m.name == spec.name && m.unit == spec.unit);
    }
    if (!known || !by_name.emplace(m.name, &m).second) {
      std::cerr << "alexbench: metric " << m.name << " [" << m.unit
                << "] is unknown or reported twice\n";
      std::exit(2);
    }
  }
  std::string out = "{";
  for (const MetricSpec& spec : specs) {
    auto it = by_name.find(spec.name);
    const double value = it == by_name.end() ? 0.0 : it->second->value;
    out += (out.size() > 1 ? ", " : "") + Quote(spec.name) +
           ": {\"value\": " + Number(value) +
           ", \"unit\": " + Quote(spec.unit) + "}";
  }
  return out + "}";
}

// Scales durations by the calibration factor (see Calibration in bench.h).
void Normalize(std::vector<Metric>* metrics, double factor) {
  for (Metric& m : *metrics) {
    if (m.unit == "s" || m.unit == "ms") m.value *= factor;
    if (m.unit == "1/s") m.value /= factor;
  }
}

std::string Bool(bool value) { return value ? "true" : "false"; }

int Usage() {
  std::cerr << "usage: alexbench --workload batch|serve|ingest --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--commit SHA] "
               "[--tiny] [--corrupt replay|digest]\n";
  return 2;
}

}  // namespace
}  // namespace alexbench

int main(int argc, char** argv) {
  using namespace alexbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = argv[++i];
    } else if (arg == "--commit") {
      options.commit = argv[++i];
    } else if (arg == "--corrupt") {
      options.corrupt = argv[++i];
    } else {
      return Usage();
    }
  }
  void (*run)(const Options&, Tracer*, Lane*, Report*) = nullptr;
  if (options.workload == "batch") run = RunBatch;
  if (options.workload == "serve") run = RunServe;
  if (options.workload == "ingest") run = RunIngest;
  if (run == nullptr || options.seconds < 1) return Usage();

  Tracer tracer(options.trace);
  Lane* lane = tracer.NewLane("main");
  Report report;
  {
    Span root(lane, "bench.run");
    run(options, &tracer, lane, &report);
  }
  report.EndToEnd("setup_s", Mean(report.setup_s), "s");
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  if (options.corrupt == "digest") report.digest.Add(uint64_t{1});
  const std::vector<Metric> raw_end_to_end = report.end_to_end;
  const Calibration& calibration = report.calibration;
  const double factor = calibration.Factor();
  Normalize(&report.end_to_end, factor);
  Normalize(&report.per_layer, factor);

  std::ostringstream detail;
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(report.digest.value()));
  detail << "detail {\"workload\": " << Quote(options.workload)
         << ", \"seed\": " << options.seed
         << ", \"seconds\": " << options.seconds
         << ", \"tiny\": " << Bool(options.tiny)
         << ", \"trace\": " << Bool(options.trace)
         << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"cpu\": " << Quote(CpuModel())
         << ", \"build_type\": " << Quote(ALEXBENCH_BUILD_TYPE)
         << ", \"cxx_flags\": " << Quote(ALEXBENCH_CXX_FLAGS)
         << ", \"compiler\": " << Quote(ALEXBENCH_COMPILER)
         << ", \"commit\": " << Quote(options.commit) << "}, \"sizes\": {";
  for (size_t i = 0; i < report.sizes.size(); ++i) {
    detail << (i ? ", " : "") << Quote(report.sizes[i].first) << ": "
           << Number(report.sizes[i].second);
  }
  detail << "}, \"digest\": \"" << digest_hex << "\", \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    detail << (i ? ", " : "") << Quote(report.failures[i]);
  }
  detail << "], \"setup_s_each\": [";
  for (size_t i = 0; i < report.setup_s.size(); ++i) {
    detail << (i ? ", " : "") << Number(report.setup_s[i]);
  }
  detail << "], \"calibration\": {\"samples\": "
         << calibration.samples_ms().size() << ", \"kernel_ms_p50\": "
         << Number(Median(calibration.samples_ms()))
         << ", \"factor\": " << Number(factor) << "}"
         << ", \"raw_end_to_end\": " << MetricsJson(raw_end_to_end, kEndToEnd)
         << ", \"end_to_end\": " << MetricsJson(report.end_to_end, kEndToEnd)
         << ", \"layers\": [";
  if (options.trace) {
    const std::vector<Tracer::LayerRow> rows = tracer.LayerTable();
    for (size_t i = 0; i < rows.size(); ++i) {
      detail << (i ? ", " : "") << "{\"layer\": " << Quote(rows[i].layer)
             << ", \"busy_ms\": " << Number(rows[i].busy_ms)
             << ", \"self_ms\": " << Number(rows[i].self_ms)
             << ", \"calls\": " << rows[i].calls
             << ", \"share\": " << Number(rows[i].share) << "}";
    }
    if (!options.trace_out.empty() &&
        !tracer.WriteChromeTrace(options.trace_out)) {
      std::cerr << "alexbench: cannot write " << options.trace_out << "\n";
      return 1;
    }
  }
  detail << "]}";
  std::cout << detail.str() << "\n";

  const bool correct = report.failed == 0;
  std::cout << "{\"correct\": " << Bool(correct)
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": "
            << (options.trace ? MetricsJson(report.per_layer, kPerLayer)
                              : MetricsJson(report.end_to_end, kEndToEnd))
            << "}" << std::endl;
  return correct ? 0 : 1;
}
