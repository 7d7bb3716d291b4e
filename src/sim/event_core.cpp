#include "sim/event_core.hpp"

#include <string>

#include "obs/registry.hpp"

namespace goc::sim {

namespace {

/// Per-event-type dispatch/invalidation counters, interned once. The core
/// gathers counts locally and adds them here in `flush_metrics`, so the
/// per-event cost is a plain increment and no shared cache line is touched
/// between flushes.
struct EventMetrics {
  std::array<obs::Counter*, kNumEventTypes> dispatched;
  std::array<obs::Counter*, kNumEventTypes> invalidated;
  obs::Counter& stale_dropped;  ///< pending events cancelled by invalidate

  static EventMetrics& get() {
    static EventMetrics m = [] {
      auto& reg = obs::Registry::instance();
      static constexpr const char* kTypeNames[kNumEventTypes] = {
          "block_found", "decision_epoch", "price_tick", "fee_update"};
      EventMetrics out{{}, {}, reg.counter("sim.events.stale_dropped")};
      for (std::size_t t = 0; t < kNumEventTypes; ++t) {
        out.dispatched[t] = &reg.counter(std::string("sim.events.dispatched.") +
                                         kTypeNames[t]);
        out.invalidated[t] = &reg.counter(
            std::string("sim.events.invalidated.") + kTypeNames[t]);
      }
      return out;
    }();
    return m;
  }
};

}  // namespace

void EventCore::declare_streams(EventType type, std::size_t count) {
  stream_count_[static_cast<std::size_t>(type)] = count;
  streams_.clear();
  for (std::size_t t = 0; t < kNumEventTypes; ++t) {
    stream_offset_[t] = streams_.size();
    for (std::size_t s = 0; s < stream_count_[t]; ++s) {
      streams_.push_back(
          StreamId{static_cast<std::uint32_t>(s), static_cast<EventType>(t)});
    }
  }
  block_shift_ = 0;
  while ((std::size_t{1} << (2 * block_shift_)) < streams_.size()) {
    ++block_shift_;
  }
  const std::size_t block_size = std::size_t{1} << block_shift_;
  const std::size_t blocks = (streams_.size() + block_size - 1) / block_size;
  slots_.assign(blocks * block_size, kEmpty);
  block_least_.assign(blocks, kEmpty);
  block_at_.assign(blocks, 0);
  pending_ = 0;
}

void EventCore::reset(double now) {
  GOC_CHECK_ARG(now >= 0.0, "event times are never negative");
  slots_.assign(slots_.size(), kEmpty);
  block_least_.assign(block_least_.size(), kEmpty);
  pending_ = 0;
  now_ = now + 0.0;
  next_seq_ = 0;
}

void EventCore::flush_metrics() noexcept {
  EventMetrics& metrics = EventMetrics::get();
  for (std::size_t t = 0; t < kNumEventTypes; ++t) {
    if (unflushed_.dispatched[t] != 0) {
      metrics.dispatched[t]->add(unflushed_.dispatched[t]);
    }
    if (unflushed_.invalidated[t] != 0) {
      metrics.invalidated[t]->add(unflushed_.invalidated[t]);
    }
  }
  if (unflushed_.cancelled != 0) {
    metrics.stale_dropped.add(unflushed_.cancelled);
  }
  unflushed_ = Counts{};
}

}  // namespace goc::sim
