#include "dynamics/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "dynamics/best_response_index.hpp"
#include "util/assert.hpp"

namespace goc {
namespace {

using dynamics::BestResponseIndex;

class RandomMoveScheduler final : public Scheduler {
 public:
  explicit RandomMoveScheduler(std::uint64_t seed) : rng_(seed) {}

  std::optional<Move> pick(const Game&, const Configuration&,
                           const BestResponseIndex& index) override {
    const std::size_t total = index.total_improving();
    if (total == 0) return std::nullopt;
    std::size_t n = rng_.next_below(total);
    for (const MinerId p : index.unstable()) {
      const std::size_t here = index.improving_count(p);
      if (n < here) return index.move_to(p, index.nth_improving(p, n));
      n -= here;
    }
    GOC_ASSERT(false, "improving-move counts out of sync");
    return std::nullopt;
  }
  std::string name() const override { return "random-move"; }

 private:
  Rng rng_;
};

class RandomMinerScheduler final : public Scheduler {
 public:
  explicit RandomMinerScheduler(std::uint64_t seed) : rng_(seed) {}

  std::optional<Move> pick(const Game&, const Configuration&,
                           const BestResponseIndex& index) override {
    const std::vector<MinerId>& unstable = index.unstable();
    if (unstable.empty()) return std::nullopt;
    const MinerId p = unstable[rng_.pick_index(unstable)];
    const std::size_t options = index.improving_count(p);
    GOC_ASSERT(options > 0, "unstable miner without better responses");
    const CoinId to = index.nth_improving(p, rng_.next_below(options));
    return index.move_to(p, to);
  }
  std::string name() const override { return "random-miner"; }

 private:
  Rng rng_;
};

class RoundRobinScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game& game, const Configuration&,
                           const BestResponseIndex& index) override {
    const std::size_t n = game.num_miners();
    for (std::size_t scanned = 0; scanned < n; ++scanned) {
      const MinerId p(static_cast<std::uint32_t>(cursor_));
      cursor_ = (cursor_ + 1) % n;
      if (!index.stable(p)) return index.best_move(p);
    }
    return std::nullopt;
  }
  std::string name() const override { return "round-robin"; }
  void reset() override { cursor_ = 0; }

 private:
  std::size_t cursor_ = 0;
};

/// Shared implementation for global gain-extremal schedulers.
template <bool kMax>
class GainExtremalScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game&, const Configuration& s,
                           const BestResponseIndex& index) override {
    // The extremal move over all improving (miner, coin) pairs decomposes
    // per miner: a miner's max-gain move is its best response and its
    // min-gain move its lowest-payoff improving coin, each with lowest
    // coin id on ties. Across miners, the unstable set is walked in
    // miner-id order and only a strictly better gain replaces the running
    // winner, which reproduces the reference's lowest-miner-id tie-break.
    // Gains are ordered by the comparator's exact `compare_gains`, so a
    // `Rational` gain is built once per step, for the chosen move only.
    const MoveComparator& cmp = index.comparator();
    std::optional<std::pair<MinerId, CoinId>> chosen;
    for (const MinerId p : index.unstable()) {
      const CoinId to = kMax ? *index.best_of(p) : index.min_improving(p);
      if (chosen) {
        const std::strong_ordering vs =
            cmp.compare_gains(s, p, to, chosen->first, chosen->second);
        if (kMax ? vs <= 0 : vs >= 0) continue;
      }
      chosen.emplace(p, to);
    }
    if (!chosen) return std::nullopt;
    return index.move_to(chosen->first, chosen->second);
  }
  std::string name() const override { return kMax ? "max-gain" : "min-gain"; }
};

/// Power-ordered schedulers: the heaviest (or lightest) unstable miner takes
/// its best response; ties break on miner id.
template <bool kLargest>
class PowerOrderedScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game& game, const Configuration&,
                           const BestResponseIndex& index) override {
    const std::vector<MinerId>& unstable = index.unstable();
    if (unstable.empty()) return std::nullopt;
    return index.best_move(choose(game, unstable));
  }
  std::string name() const override {
    return kLargest ? "largest-first" : "smallest-first";
  }

 private:
  static MinerId choose(const Game& game,
                        const std::vector<MinerId>& unstable) {
    const System& system = game.system();
    MinerId chosen = unstable.front();
    for (const MinerId p : unstable) {
      const bool strictly_better =
          kLargest ? system.power(p) > system.power(chosen)
                   : system.power(p) < system.power(chosen);
      if (strictly_better) chosen = p;
    }
    return chosen;
  }
};

class LexicographicScheduler final : public Scheduler {
 public:
  std::optional<Move> pick(const Game&, const Configuration&,
                           const BestResponseIndex& index) override {
    if (index.unstable().empty()) return std::nullopt;
    const MinerId miner = index.unstable().front();
    return index.move_to(miner, index.nth_improving(miner, 0));
  }
  std::string name() const override { return "lexicographic"; }
};

}  // namespace

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kRandomMove,   SchedulerKind::kRandomMiner,
      SchedulerKind::kRoundRobin,   SchedulerKind::kMaxGain,
      SchedulerKind::kMinGain,      SchedulerKind::kLargestFirst,
      SchedulerKind::kSmallestFirst, SchedulerKind::kLexicographic};
  return kinds;
}

const std::string& scheduler_kind_name(SchedulerKind kind) {
  // Interned: derived from Scheduler::name() once at first use instead of
  // constructing a scheduler object per call. Indexed by enum value (no
  // ordering assumption on all_scheduler_kinds()).
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const SchedulerKind k : all_scheduler_kinds()) {
      const auto index = static_cast<std::size_t>(k);
      if (names.size() <= index) names.resize(index + 1);
      names[index] = make_scheduler(k)->name();
    }
    return names;
  }();
  const auto index = static_cast<std::size_t>(kind);
  GOC_ASSERT(index < kNames.size() && !kNames[index].empty(),
             "unknown scheduler kind");
  return kNames[index];
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, std::uint64_t seed) {
  switch (kind) {
    case SchedulerKind::kRandomMove:
      return std::make_unique<RandomMoveScheduler>(seed);
    case SchedulerKind::kRandomMiner:
      return std::make_unique<RandomMinerScheduler>(seed);
    case SchedulerKind::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::kMaxGain:
      return std::make_unique<GainExtremalScheduler<true>>();
    case SchedulerKind::kMinGain:
      return std::make_unique<GainExtremalScheduler<false>>();
    case SchedulerKind::kLargestFirst:
      return std::make_unique<PowerOrderedScheduler<true>>();
    case SchedulerKind::kSmallestFirst:
      return std::make_unique<PowerOrderedScheduler<false>>();
    case SchedulerKind::kLexicographic:
      return std::make_unique<LexicographicScheduler>();
  }
  GOC_ASSERT(false, "unknown scheduler kind");
  return nullptr;
}

}  // namespace goc
