#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// \file trace.hpp
/// The benchmark's own span recorder.
///
/// Spans are kept in memory while the traced run works and written out once
/// at the end as Chrome trace-event JSON (chrome://tracing and Perfetto open
/// it). Each span records its name, start, end, parent span and the request
/// it belongs to, so the spans of one request share one id and a layer's
/// self time can be computed as its duration minus the part of that
/// interval its child spans cover. Recording takes a mutex: spans wrap
/// whole library calls (a batch, a replica, a protocol line), never a hot
/// loop, so the lock is far below the cost of what it measures.

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  /// Per span name: how many, their summed duration and summed self time.
  struct LayerTime {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// Opens a span and returns its id (>= 1).
  std::uint32_t begin(std::string name, std::uint32_t parent,
                      std::uint64_t request);
  void end(std::uint32_t id);

  /// Durations and self times grouped by span name, in first-seen order.
  std::vector<LayerTime> layer_times() const;

  /// Writes every span as a complete ("ph":"X") trace event; returns false
  /// when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans() const;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint32_t parent,
             std::uint64_t request)
      : tracer_(tracer),
        id_(tracer == nullptr
                ? 0
                : tracer->begin(std::move(name), parent, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
