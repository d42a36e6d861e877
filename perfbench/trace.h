// In-memory span tracing for the benchmark.
//
// The benchmark wraps every call it makes into a layer's public entry point
// (rdf::ParseNTriples, linking::RunParis, core::AlexEngine::RunEpisode,
// serving::ServingEngine::ExecuteText, ...) in a Span. A span records its
// name, start, end, the span that was open around it on the same thread
// (its parent), and a group id shared by the spans of one epoch or query.
// Spans live in per-thread lanes and are only read after the threads that
// recorded them have been joined; at exit they are written as Chrome
// trace-event JSON and summarized per layer (the name's prefix before the
// first '.').
//
// With tracing off no lane exists, a Span is a null check, and TimedMs costs
// exactly the two clock reads the end-to-end timings need anyway.
#ifndef ALEXBENCH_TRACE_H_
#define ALEXBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alexbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The spans of one thread, in the order they opened. Used by one thread at
// a time.
class Lane {
 public:
  struct Record {
    const char* name;  // a string literal
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index in this lane, -1 for a root span
    int64_t group;   // epoch or query id, -1 when none
  };

  explicit Lane(std::string name) : name_(std::move(name)) {}

  int32_t Open(const char* name, int64_t group) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    records_.push_back({name, NowNs(), 0, parent, group});
    open_.push_back(static_cast<int32_t>(records_.size() - 1));
    return open_.back();
  }
  void Close(int32_t index) {
    records_[index].end_ns = NowNs();
    open_.pop_back();
  }

  const std::string& name() const { return name_; }
  const std::vector<Record>& records() const { return records_; }

 private:
  std::string name_;
  std::vector<Record> records_;
  std::vector<int32_t> open_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // A lane for one thread, or nullptr when tracing is off. Create lanes on
  // the main thread before the threads that use them start.
  Lane* NewLane(std::string name) {
    if (!enabled_) return nullptr;
    lanes_.emplace_back(std::move(name));
    return &lanes_.back();
  }

  // Durations in ms of every span called `name`, lane by lane.
  std::vector<double> DurationsMs(std::string_view name) const;

  // Per-layer busy time (spans not nested in a span of the same layer),
  // self time (duration minus the time direct children cover), call count,
  // and busy time as a share of the longest root span (the run).
  struct LayerRow {
    std::string layer;
    double busy_ms = 0.0;
    double self_ms = 0.0;
    uint64_t calls = 0;
    double share = 0.0;
  };
  std::vector<LayerRow> LayerTable() const;

  // Writes every span as Chrome trace-event JSON ("X" events, one tid per
  // lane). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::deque<Lane> lanes_;  // deque: lane addresses stay valid
};

// Records one span on `lane` for its lifetime; a no-op when lane is null.
class Span {
 public:
  Span(Lane* lane, const char* name, int64_t group = -1) : lane_(lane) {
    if (lane_ != nullptr) index_ = lane_->Open(name, group);
  }
  ~Span() {
    if (lane_ != nullptr) lane_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Lane* lane_;
  int32_t index_ = -1;
};

// Runs `fn` inside a span and returns its wall time in ms (measured with
// tracing on or off).
template <typename Fn>
double TimedMs(Lane* lane, const char* name, int64_t group, Fn&& fn) {
  Span span(lane, name, group);
  const int64_t start = NowNs();
  fn();
  return static_cast<double>(NowNs() - start) * 1e-6;
}

}  // namespace alexbench

#endif  // ALEXBENCH_TRACE_H_
