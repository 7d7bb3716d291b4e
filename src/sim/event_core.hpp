#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/int128.hpp"

/// \file event_core.hpp
/// The flat discrete-event core — layer 1 of the `sim/` subsystem.
///
/// The chain and market simulators both run on this core. An event is a
/// type-tagged POD `Event` dispatched by enum switch at the call site (no
/// `std::function`, no indirect call).
///
/// Both simulators keep at most one pending event per (type, subject)
/// stream — a chain has one block race in flight, a coin one price tick —
/// so the core stores exactly that: one `(time, seq)` slot per declared
/// stream, in one flat array sized at declaration. Nothing allocates after
/// `declare_streams`.
///
///  * **Pop is an argmin over the slots** — branch-free selects over
///    `(time, seq)` keys, two levels deep (see `earliest`). With a handful
///    of streams (nine on the reference chain) this beats a heap: there is
///    nothing to sift. Measured on one core of a 4-core Xeon (gcc 12.2,
///    Release), pop plus re-schedule costs less than the heap did up to
///    129 streams (the 128-chain workloads) and about 1.5–1.8 times as
///    much at 1025.
///  * **FIFO tie-breaking** — events at equal times pop in schedule order
///    (a monotone sequence number is the second key), so event trajectories
///    are deterministic without epsilon time offsets.
///  * **Invalidation cancels the slot** — `invalidate` empties the stream's
///    slot, so a block race whose rate changed when miners migrated never
///    reaches the dispatch switch. The exponential race is memoryless, so
///    resampling after an invalidation is statistically exact.
///    Scheduling on a stream whose slot is still pending is an error.
///
/// Per-type dispatch and invalidation counts build up inside the core and
/// reach `obs` in one `flush_metrics` every 4096 dispatched events; the
/// simulators flush again at the end of each `run()`, so registry totals
/// are exact once a run returns.

namespace goc::sim {

/// The simulators' event engine. `kFlat` (this core) is the only one; the
/// enum survives solely because the perfbench harness calls
/// `sim::make_reference_chain(params, EngineKind::kFlat, seed)`. Drop it,
/// and that parameter, together with the harness's next change.
enum class EngineKind {
  kFlat,  ///< sim::EventCore, enum-switch dispatch
};

/// Event vocabulary of the stochastic simulators. `subject` is the chain
/// index for kBlockFound, the coin index for kPriceTick / kFeeUpdate, and
/// unused (0) for kDecisionEpoch.
enum class EventType : std::uint8_t {
  kBlockFound = 0,
  kDecisionEpoch = 1,
  kPriceTick = 2,
  kFeeUpdate = 3,
};
inline constexpr std::size_t kNumEventTypes = 4;

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;      ///< schedule order; breaks time ties FIFO
  std::uint32_t subject = 0;  ///< stream index within the type
  EventType type = EventType::kBlockFound;
};
static_assert(std::is_trivially_copyable_v<Event>, "events must stay POD");

class EventCore {
 public:
  /// Declares `count` subject streams for `type`. Declare every type
  /// before scheduling: a declaration cancels all pending events.
  /// Scheduling on an undeclared stream is an error.
  void declare_streams(EventType type, std::size_t count);

  /// Schedules the stream's next event at absolute `time` (must be ≥
  /// now()). The stream must have no pending event.
  void schedule(double time, EventType type, std::uint32_t subject) {
    GOC_CHECK_ARG(time >= now_, "cannot schedule events in the past");
    const std::size_t index = stream_index(type, subject);
    GOC_CHECK_ARG(slots_[index] == kEmpty,
                  "the stream already has a pending event");
    // `+ 0.0` turns -0.0 into +0.0, whose bits order like every other time.
    const Key key =
        Key{std::bit_cast<std::uint64_t>(time + 0.0)} << 64 | next_seq_++;
    slots_[index] = key;
    const std::size_t block = index >> block_shift_;
    keep_least(block_least_[block], block_at_[block], key, index);
    ++pending_;
  }

  /// Cancels the stream's pending event, if any.
  void invalidate(EventType type, std::uint32_t subject) {
    const std::size_t index = stream_index(type, subject);
    ++unflushed_.invalidated[static_cast<std::size_t>(type)];
    if (slots_[index] == kEmpty) return;
    vacate(index);
    ++unflushed_.cancelled;
  }

  /// Pops the earliest pending event into `out` and advances the clock to
  /// its time. Returns false when drained.
  bool pop(Event& out) {
    if (pending_ == 0) return false;
    take(earliest(), out);
    return true;
  }

  /// Like `pop`, restricted to events with time ≤ `t_end`. When no event
  /// remains in the window the clock advances to `t_end` and false is
  /// returned.
  bool pop_until(Event& out, double t_end) {
    GOC_CHECK_ARG(t_end >= now_, "cannot run backwards");
    if (pending_ != 0) {
      const std::size_t next = earliest();
      if (time_of(slots_[next]) <= t_end) {
        take(next, out);
        return true;
      }
    }
    now_ = t_end;
    return false;
  }

  double now() const noexcept { return now_; }
  /// Streams with a pending event.
  std::size_t pending() const noexcept { return pending_; }
  bool empty() const noexcept { return pending_ == 0; }

  /// Cancels every pending event, rewinds the clock to `now` (≥ 0), and
  /// resets the sequence counter; stream declarations survive.
  void reset(double now = 0.0);

  /// Adds the dispatch and invalidation counts gathered since the last
  /// flush to the `sim.events.*` counters of `obs::Registry`.
  void flush_metrics() noexcept;

 private:
  /// A pending event as one 128-bit key: the bits of its time above its
  /// sequence number. Times are never negative, and for those the bit
  /// patterns order as the values do, so the least key is the earliest
  /// event, FIFO on equal times. An empty slot is all ones and sorts last.
  using Key = u128;
  static constexpr Key kEmpty = ~Key{0};
  static constexpr std::uint32_t kFlushEvery = 4096;

  struct StreamId {
    std::uint32_t subject;
    EventType type;
  };
  struct Counts {
    std::array<std::uint64_t, kNumEventTypes> dispatched{};
    std::array<std::uint64_t, kNumEventTypes> invalidated{};
    std::uint64_t cancelled = 0;
    std::uint32_t since_flush = 0;  ///< dispatches since the last flush
  };

  static double time_of(Key key) noexcept {
    return std::bit_cast<double>(static_cast<std::uint64_t>(key >> 64));
  }

  std::size_t stream_index(EventType type, std::uint32_t subject) const {
    const auto t = static_cast<std::size_t>(type);
    GOC_CHECK_ARG(subject < stream_count_[t], "undeclared event stream");
    return stream_offset_[t] + subject;
  }

  /// `least, at = key, index` when key < least, selected by bit mask:
  /// written with `?:`, gcc 12 compiled these selects to jumps on the data.
  static void keep_least(Key& least, std::size_t& at, Key key,
                         std::size_t index) noexcept {
    const std::uint64_t take = 0 - std::uint64_t{key < least};
    const auto select = [take](std::uint64_t keep, std::uint64_t other) {
      return keep ^ ((keep ^ other) & take);
    };
    least = Key{select(static_cast<std::uint64_t>(least >> 64),
                       static_cast<std::uint64_t>(key >> 64))}
                << 64 |
            select(static_cast<std::uint64_t>(least),
                   static_cast<std::uint64_t>(key));
    at = select(at, index);
  }

  /// Position of the least of `count` keys (count ≥ 1); branch-free.
  static std::size_t argmin(const Key* keys, std::size_t count) noexcept {
    Key least = keys[0];
    std::size_t at = 0;
    for (std::size_t i = 1; i < count; ++i) keep_least(least, at, keys[i], i);
    return at;
  }

  /// The slot of the earliest event. Slots are grouped in blocks of about
  /// √streams (a power of two) whose least key is cached: `schedule` folds
  /// its key into the cache in O(1), and emptying a slot rescans its block.
  /// So a pop scans the block minima and a removal one block — O(√streams)
  /// selects, where a flat scan would cost O(streams) once a simulator
  /// declares a stream per chain.
  std::size_t earliest() const noexcept {
    return block_at_[argmin(block_least_.data(), block_least_.size())];
  }

  void vacate(std::size_t index) noexcept {
    slots_[index] = kEmpty;
    const std::size_t block = index >> block_shift_;
    const std::size_t first = block << block_shift_;
    const std::size_t at =
        first + argmin(&slots_[first], std::size_t{1} << block_shift_);
    block_least_[block] = slots_[at];
    block_at_[block] = at;
    --pending_;
  }

  void take(std::size_t index, Event& out) noexcept {
    const Key key = slots_[index];
    const StreamId id = streams_[index];
    out = Event{time_of(key), static_cast<std::uint64_t>(key), id.subject,
                id.type};
    vacate(index);
    now_ = out.time;
    ++unflushed_.dispatched[static_cast<std::size_t>(id.type)];
    if (++unflushed_.since_flush == kFlushEvery) flush_metrics();
  }

  /// One key per declared stream, grouped by type, then empty padding up
  /// to a whole block.
  std::vector<Key> slots_;
  std::size_t block_shift_ = 0;    ///< log2 of the block size
  std::vector<StreamId> streams_;  ///< which stream each slot belongs to
  std::vector<Key> block_least_;   ///< least key of each block
  std::vector<std::size_t> block_at_;  ///< its slot
  std::array<std::size_t, kNumEventTypes> stream_offset_{};
  std::array<std::size_t, kNumEventTypes> stream_count_{};
  std::size_t pending_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  Counts unflushed_;
};

}  // namespace goc::sim
