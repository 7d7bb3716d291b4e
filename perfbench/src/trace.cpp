#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <map>
#include <utility>

#include "obs/registry.hpp"

namespace perfbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Length of the union of `intervals` (sorted in place).
std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                             intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = 0;
  for (const auto& [lo, hi] : intervals) {
    const std::uint64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return covered;
}

void write_json_string(std::ostream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::uint32_t Tracer::begin(std::string name, std::uint32_t parent,
                            std::uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.thread = thread_index();
  span.start_ns = goc::obs::now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::end(std::uint32_t id) {
  const std::uint64_t now = goc::obs::now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = now;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<Tracer::LayerTime> Tracer::layer_times() const {
  const std::vector<Span> all = spans();
  // Children clipped to their parent's interval: a child that outlives its
  // parent (it cannot here, every span is scoped) would not count twice.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      all.size());
  for (const Span& span : all) {
    if (span.parent == 0) continue;
    const Span& parent = all[span.parent - 1];
    const std::uint64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::uint64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[span.parent - 1].emplace_back(lo, hi);
  }
  std::vector<LayerTime> layers;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    const auto [it, inserted] = index.emplace(span.name, layers.size());
    if (inserted) layers.push_back(LayerTime{span.name, 0, 0.0, 0.0});
    LayerTime& layer = layers[it->second];
    const std::uint64_t duration = span.end_ns - span.start_ns;
    const std::uint64_t covered = covered_ns(children[i]);
    ++layer.count;
    layer.total_ms += static_cast<double>(duration) / 1e6;
    layer.self_ms +=
        static_cast<double>(duration - std::min(duration, covered)) / 1e6;
  }
  return layers;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::uint64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& span : all) origin = std::min(origin, span.start_ns);
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    out << "{\"name\": ";
    write_json_string(out, span.name);
    out << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
        << ", \"ts\": " << static_cast<double>(span.start_ns - origin) / 1e3
        << ", \"dur\": "
        << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << "}}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
