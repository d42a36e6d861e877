#include "trace.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>

namespace alexbench {
namespace {

std::string_view LayerOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::vector<double> Tracer::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const Lane& lane : lanes_) {
    for (const Lane::Record& r : lane.records()) {
      if (name == r.name) {
        out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-6);
      }
    }
  }
  return out;
}

std::vector<Tracer::LayerRow> Tracer::LayerTable() const {
  std::map<std::string_view, LayerRow> rows;
  int64_t wall_ns = 0;
  for (const Lane& lane : lanes_) {
    const std::vector<Lane::Record>& records = lane.records();
    std::vector<int64_t> child_ns(records.size(), 0);
    for (const Lane::Record& r : records) {
      if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
    }
    for (size_t i = 0; i < records.size(); ++i) {
      const Lane::Record& r = records[i];
      const int64_t duration = r.end_ns - r.start_ns;
      const std::string_view layer = LayerOf(r.name);
      LayerRow& row = rows[layer];
      ++row.calls;
      row.self_ms += static_cast<double>(duration - child_ns[i]) * 1e-6;
      bool nested = false;
      for (int32_t p = r.parent; p >= 0 && !nested; p = records[p].parent) {
        nested = LayerOf(records[p].name) == layer;
      }
      if (!nested) row.busy_ms += static_cast<double>(duration) * 1e-6;
      if (r.parent < 0) wall_ns = std::max(wall_ns, duration);
    }
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) {
    row.layer = std::string(layer);
    const double wall_ms = static_cast<double>(wall_ns) * 1e-6;
    row.share = wall_ns > 0 ? row.busy_ms / wall_ms : 0.0;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.busy_ms > b.busy_ms;
  });
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = INT64_MAX;
  for (const Lane& lane : lanes_) {
    for (const Lane::Record& r : lane.records()) {
      origin = std::min(origin, r.start_ns);
    }
  }
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  int tid = 0;
  for (const Lane& lane : lanes_) {
    out << (first ? "" : ",") << "\n{\"name\":\"thread_name\",\"ph\":\"M\","
        << "\"pid\":1,\"tid\":" << tid << ",\"args\":{\"name\":\""
        << lane.name() << "\"}}";
    first = false;
    const std::vector<Lane::Record>& records = lane.records();
    for (size_t i = 0; i < records.size(); ++i) {
      const Lane::Record& r = records[i];
      out << ",\n{\"name\":\"" << r.name << "\",\"cat\":\"" << LayerOf(r.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(r.start_ns - origin) * 1e-3
          << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
          << ",\"args\":{\"span\":\"" << tid << "/" << i << "\",\"parent\":";
      if (r.parent >= 0) {
        out << "\"" << tid << "/" << r.parent << "\"";
      } else {
        out << "null";
      }
      out << ",\"id\":" << r.group << "}}";
    }
    ++tid;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace alexbench
