#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "core/system.hpp"
#include "engine/cancel.hpp"
#include "engine/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"
#include "util/int128.hpp"

/// \file enumerate.hpp
/// The exhaustive-enumeration engine: high-throughput iteration over the
/// configuration space S = C^n for equilibrium enumeration, Assumption 1
/// checking, and exact-potential verification.
///
/// Four stacked mechanisms (mirroring the learning hot loop of PR 2):
///
///  * **De-virtualized incremental walk** — `walk_canonical_shard` is a
///    template over its visitor (no `std::function` dispatch) and advances
///    an odometer one `Configuration::move` at a time, so per-coin masses
///    update in O(1) per visited configuration.
///  * **Symmetry reduction** — miners with identical power and identical
///    access rights are interchangeable: permuting them is a game
///    automorphism, so equilibrium-ness, never-alone violations, and
///    4-cycle obstructions are orbit-invariant. The walker enumerates only
///    *canonical representatives* (coin ids non-decreasing in miner-id
///    order within each class), shrinking |C|^n toward the multiset count;
///    `expand_orbit` recovers the full orbit on demand.
///  * **Deterministic sharding** — the odometer splits into consecutive
///    rank ranges (top-digit prefixes, with oversized prefixes split
///    further by canonical unranking) fanned across `engine::ThreadPool`.
///    Shards are indexed in global odometer order and sized exactly
///    (`ShardPlan::sizes` / `start_ranks`), so per-shard results
///    concatenate into a result that is bit-identical at any thread count.
///  * **Integer predicates** — consumers check equilibrium/stability inside
///    the walk without `Rational` payoff scans, in the comparator's three
///    exact tiers (core/move_compare.hpp). On integer games with
///    unrestricted access the walk itself runs on raw integers
///    (`walk_canonical_range_integer`, a template on its width): `int64`
///    with unchecked cross products when M_tot·K_max ≤ INT64_MAX
///    (`MoveComparator::narrow_mode`, checked in i128 once per game),
///    otherwise `i128` with overflow-checked products that fall back to
///    `Rational`. Other games walk `Configuration`s and ask
///    `MoveComparator` directly. The `obs` counters `enum.walks.int64` /
///    `enum.walks.i128` record which width each integer walk ran at.
///
/// The brute-force full-space walkers these engine paths are checked
/// against (`--compare-scan` benches and the tests) live in the test-only
/// `goc_oracle` library under tests/oracle.

namespace goc {

/// Number of configurations |C|^n, or nullopt if it exceeds 2^63−1.
std::optional<std::uint64_t> configuration_count(const System& system);

// ------------------------------------------------------------ symmetry

/// The partition of miners into interchangeability classes: p ~ q iff they
/// have equal power and identical access rows. Permuting classmates is a
/// game automorphism (it preserves every per-coin mass and every miner's
/// action set), so all engine predicates are constant on orbits.
struct SymmetryClasses {
  /// miner -> index of its class in `classes`.
  std::vector<std::uint32_t> class_of;
  /// Members of each class, in miner-id order.
  std::vector<std::vector<MinerId>> classes;
  /// miner -> the next classmate with a larger id, or -1 when it is the
  /// largest of its class. The canonical-form constraint is
  /// digit[p] <= digit[next_classmate[p]].
  std::vector<std::int32_t> next_classmate;
  /// True when every class is a singleton (no reduction available); the
  /// canonical walk then visits the full space in exact legacy order.
  bool trivial = true;
};

/// Groups the game's miners by (power, access row).
SymmetryClasses symmetry_classes(const Game& game);

/// The no-symmetry partition: n singleton classes (used when
/// `EnumerationOptions::symmetry` is off).
SymmetryClasses singleton_classes(std::size_t num_miners);

struct EnumerationOptions;

/// The partition `opts` selects: symmetry classes, or singletons when
/// symmetry is off. Every engine consumer resolves its classes through
/// this so walk and post-processing (orbit expansion) always agree.
SymmetryClasses classes_for(const Game& game, const EnumerationOptions& opts);

/// Number of canonical representatives: Π over classes of the multiset
/// count C(|K| + |C| − 1, |K|). nullopt on 64-bit overflow.
std::optional<std::uint64_t> canonical_count(const System& system,
                                             const SymmetryClasses& classes);

/// Orbit size of `assignment` under the class permutations: Π over classes
/// of the multinomial |K|! / Π_c (members of K on c)!. Throws OverflowError
/// if the product exceeds 2^64−1.
std::uint64_t orbit_size(const std::vector<CoinId>& assignment,
                         const SymmetryClasses& classes);

/// All configurations in the orbit of `canonical` (including itself), in
/// unspecified order. The orbit of a canonical equilibrium is exactly its
/// equivalence class in the full space.
std::vector<Configuration> expand_orbit(const Configuration& canonical,
                                        const SymmetryClasses& classes);

/// Odometer rank of an assignment: Σ_i digit(i)·|C|^i. Total order of the
/// legacy walk; used to merge expanded orbits back into legacy output
/// order. Caller must have bounded |C|^n to 2^63−1 (configuration_count).
std::uint64_t odometer_rank(const std::vector<CoinId>& assignment,
                            std::size_t num_coins);

/// Canonical cap of miner `pos`'s digit: its next classmate's current
/// digit (the non-decreasing-within-class constraint), else the largest
/// coin. The one definition of the canonical form, shared by both walkers
/// and the shard planner.
inline std::uint32_t canonical_cap(const SymmetryClasses& classes,
                                   const std::vector<std::uint32_t>& digits,
                                   std::size_t pos, std::uint32_t coins) {
  const std::int32_t nc = classes.next_classmate[pos];
  return nc < 0 ? coins - 1 : digits[static_cast<std::size_t>(nc)];
}

// ------------------------------------------------------------ sharding

struct EnumerationOptions {
  /// Total concurrent lanes; 0 = one per hardware thread, 1 = serial (the
  /// deterministic-by-construction reference schedule). Ignored when
  /// `pool` is set.
  std::size_t threads = 1;
  /// Enumerate canonical representatives only. Off = full space (the
  /// walker then visits configurations in exact legacy odometer order).
  bool symmetry = true;
  /// Bound on the FULL |C|^n space (legacy semantics — consumers throw
  /// std::invalid_argument above it even when the canonical space is
  /// smaller).
  std::uint64_t max_configs = 1u << 22;
  /// Shard granularity: aim for this many shards per lane so uneven
  /// per-shard cost still load-balances across the pool.
  std::size_t shards_per_lane = 8;
  /// …but never shards smaller than this many configurations (dispatch
  /// overhead would exceed the walk): the shard count is capped at
  /// canonical/min_shard_configs (floored at one shard per lane).
  std::uint64_t min_shard_configs = 1024;
  /// Canonical spaces smaller than this run serially in one shard —
  /// fan-out overhead would swamp the walk (results are identical either
  /// way; this is purely a scheduling decision). Consumers with heavy
  /// per-configuration work compare a *weighted* count against this
  /// cutoff instead of lowering it (the 4-cycle scanners multiply the
  /// base count by cycles-per-base; see `weighted_bases` in
  /// exact_potential.cpp).
  std::uint64_t serial_cutoff = 4096;
  /// Reuse an existing pool instead of spawning one per call (spawning
  /// costs more than walking a small game). Non-owning; lanes =
  /// pool->num_threads() + 1. nullptr = spawn from `threads`.
  engine::ThreadPool* pool = nullptr;
  /// Cooperative cancellation (engine/cancel.hpp): polled before every
  /// shard walk; a stale view makes the fan-out throw `engine::Cancelled`.
  /// Default never cancels. Granularity is one shard — coarse, but an
  /// enumeration that matters is sharded, and the serial small-space path
  /// finishes faster than any cancel could land.
  engine::CancelView cancel;
};

/// A deterministic split of the canonical space into consecutive rank
/// ranges. Shard i enumerates exactly the canonical configurations with
/// ranks [start_ranks[i], start_ranks[i] + sizes[i]) in canonical odometer
/// order, so concatenating per-shard results in index order reproduces the
/// serial walk bit-for-bit. The planner first cuts by top-digit prefix,
/// then splits any prefix larger than ~ceil(total/target) into even rank
/// subranges via canonical unranking — pathological class layouts (e.g.
/// one giant symmetry class, where most of the space shares one top
/// digit) no longer serialize a single lane on one oversized shard.
struct ShardPlan {
  /// starts[i] = full digit vector (miner -> coin) of shard i's first
  /// canonical configuration, in global odometer order.
  std::vector<std::vector<std::uint32_t>> starts;
  /// Canonical configurations per shard.
  std::vector<std::uint64_t> sizes;
  /// Exclusive prefix sums of `sizes` (global canonical start rank).
  std::vector<std::uint64_t> start_ranks;
};

/// Splits the canonical space into at least `target_shards` shards when
/// possible, each of at most ~ceil(canonical/target_shards)
/// configurations (a single shard when target_shards <= 1).
ShardPlan plan_shards(const System& system, const SymmetryClasses& classes,
                      std::size_t target_shards);

/// The full digit vector of the canonical configuration with the given
/// canonical odometer rank — the unranking behind ShardPlan's subrange
/// starts. O(n·|C|·classes) per call; `rank` must be < the canonical
/// count.
std::vector<std::uint32_t> canonical_digits_at_rank(
    const System& system, const SymmetryClasses& classes, std::uint64_t rank);

// ------------------------------------------------------------ the walk

/// Visits every canonical configuration of one shard in canonical odometer
/// order, advancing via `Configuration::move` (one miner hop per step).
/// `visit(const Configuration&)` returns false to abort the shard; the
/// function returns false iff aborted. `prefix` pins the digits of miners
/// [free_miners, n) — pass free_miners == n (empty prefix) for the whole
/// space.
template <typename Visit>
bool walk_canonical_shard(const std::shared_ptr<const System>& system,
                          const SymmetryClasses& classes,
                          std::size_t free_miners,
                          const std::vector<std::uint32_t>& prefix,
                          Visit&& visit) {
  const std::size_t n = system->num_miners();
  const std::uint32_t coins = static_cast<std::uint32_t>(system->num_coins());
  std::vector<std::uint32_t> digits(n, 0);
  for (std::size_t j = free_miners; j < n; ++j) digits[j] = prefix[j - free_miners];
  std::vector<CoinId> assignment;
  assignment.reserve(n);
  for (std::size_t i = 0; i < n; ++i) assignment.emplace_back(digits[i]);
  Configuration config(system, std::move(assignment));
  for (;;) {
    if (!visit(static_cast<const Configuration&>(config))) return false;
    std::size_t pos = 0;
    while (pos < free_miners) {
      if (digits[pos] < canonical_cap(classes, digits, pos, coins)) {
        ++digits[pos];
        config.move(MinerId(static_cast<std::uint32_t>(pos)), CoinId(digits[pos]));
        break;
      }
      if (digits[pos] != 0) {
        digits[pos] = 0;
        config.move(MinerId(static_cast<std::uint32_t>(pos)), CoinId(0));
      }
      ++pos;
    }
    if (pos == free_miners) return true;  // shard odometer wrapped
  }
}

/// Rank-range walker: visits `count` consecutive canonical configurations
/// starting at `start` (a full digit vector that must itself be
/// canonical), advancing the global canonical odometer one
/// `Configuration::move` at a time. This is the walker behind `ShardPlan`;
/// `walk_canonical_shard` stays as the prefix-pinned reference. Returns
/// false iff `visit` aborted.
template <typename Visit>
bool walk_canonical_range(const std::shared_ptr<const System>& system,
                          const SymmetryClasses& classes,
                          const std::vector<std::uint32_t>& start,
                          std::uint64_t count, Visit&& visit) {
  if (count == 0) return true;
  const std::size_t n = system->num_miners();
  const std::uint32_t coins = static_cast<std::uint32_t>(system->num_coins());
  std::vector<std::uint32_t> digits = start;
  std::vector<CoinId> assignment;
  assignment.reserve(n);
  for (std::size_t i = 0; i < n; ++i) assignment.emplace_back(digits[i]);
  Configuration config(system, std::move(assignment));
  for (;;) {
    if (!visit(static_cast<const Configuration&>(config))) return false;
    if (--count == 0) return true;
    std::size_t pos = 0;
    while (pos < n) {
      if (digits[pos] < canonical_cap(classes, digits, pos, coins)) {
        ++digits[pos];
        config.move(MinerId(static_cast<std::uint32_t>(pos)), CoinId(digits[pos]));
        break;
      }
      if (digits[pos] != 0) {
        digits[pos] = 0;
        config.move(MinerId(static_cast<std::uint32_t>(pos)), CoinId(0));
      }
      ++pos;
    }
    GOC_ASSERT(pos < n, "rank range ran past the canonical space");
  }
}

/// Effective lane count for `opts` over a canonical space of `canonical`
/// configurations: the pool's lanes (or `opts.threads`), clamped to 1
/// below the serial cutoff.
std::size_t enumeration_lanes(const EnumerationOptions& opts,
                              std::optional<std::uint64_t> canonical);

/// Shard target for a lane count over a canonical space (1 lane = 1
/// shard; otherwise shards_per_lane per lane, capped so shards hold at
/// least `min_shard_configs` configurations each).
std::size_t shard_target(const EnumerationOptions& opts, std::size_t lanes,
                         std::optional<std::uint64_t> canonical);

/// Fans a precomputed `ShardPlan` across the pool (the caller's
/// `opts.pool`, or a freshly spawned one). One state per shard
/// (`make_state(shard_index)`), created on the calling thread in shard
/// order; `visit(state, config, shard_index)` runs inside the walk
/// (return false to abort that shard). The returned states are in shard
/// (= global odometer) order regardless of thread count.
namespace enumeration_detail {

/// Shared fan-out: one per-shard state (created on the calling thread in
/// shard order), `walk_shard(state, shard_index)` dispatched across the
/// caller's pool (or a freshly spawned one). Both walkers' drivers funnel
/// through here so the scheduling policy exists exactly once.
template <typename MakeState, typename WalkShard>
auto run_shards(const ShardPlan& plan, const EnumerationOptions& opts,
                std::size_t lanes, MakeState&& make_state, WalkShard&& walk_shard)
    -> std::vector<std::decay_t<std::invoke_result_t<MakeState&, std::size_t>>> {
  using State = std::decay_t<std::invoke_result_t<MakeState&, std::size_t>>;
  std::vector<State> states;
  states.reserve(plan.sizes.size());
  for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
    states.push_back(make_state(i));
  }
  static obs::Counter& kShardsWalked =
      obs::Registry::instance().counter("enum.shards_walked");
  static obs::Histogram& kShardWalkNs =
      obs::Registry::instance().histogram("enum.shard_walk_ns");
  const auto run = [&](engine::ThreadPool& pool) {
    pool.parallel_for(plan.sizes.size(), [&](std::size_t i) {
      opts.cancel.throw_if_stale("enumeration cancelled");
      obs::Span span(kShardWalkNs);
      walk_shard(states[i], i);
      kShardsWalked.add();
    });
  };
  if (opts.pool != nullptr && lanes > 1) {
    run(*opts.pool);
  } else {
    engine::ThreadPool local(engine::ThreadPool::workers_for(lanes));
    run(local);
  }
  return states;
}

}  // namespace enumeration_detail

template <typename MakeState, typename Visit>
auto enumerate_planned(const std::shared_ptr<const System>& system,
                       const SymmetryClasses& classes, const ShardPlan& plan,
                       const EnumerationOptions& opts, std::size_t lanes,
                       MakeState&& make_state, Visit&& visit)
    -> std::vector<std::decay_t<std::invoke_result_t<MakeState&, std::size_t>>> {
  return enumeration_detail::run_shards(
      plan, opts, lanes, std::forward<MakeState>(make_state),
      [&](auto& state, std::size_t i) {
        walk_canonical_range(system, classes, plan.starts[i], plan.sizes[i],
                             [&](const Configuration& s) {
                               return visit(state, s, i);
                             });
      });
}

/// Convenience driver: plans shards from `opts` and runs
/// `enumerate_planned`. Consumers that need shard ranks (deterministic
/// visit budgets) call `plan_shards` themselves.
template <typename MakeState, typename Visit>
auto enumerate_states(const std::shared_ptr<const System>& system,
                      const SymmetryClasses& classes,
                      const EnumerationOptions& opts, MakeState&& make_state,
                      Visit&& visit)
    -> std::vector<std::decay_t<std::invoke_result_t<MakeState&, std::size_t>>> {
  const auto canonical = canonical_count(*system, classes);
  const std::size_t lanes = enumeration_lanes(opts, canonical);
  const ShardPlan plan =
      plan_shards(*system, classes, shard_target(opts, lanes, canonical));
  return enumerate_planned(system, classes, plan, opts, lanes,
                           std::forward<MakeState>(make_state),
                           std::forward<Visit>(visit));
}

// ------------------------------------------------------------ integer walk

/// Precomputed raw numerators for the integer walk (valid only when every
/// power and reward is an integer — `MoveComparator::integer_mode` — where
/// numerators ARE the values). `Int` is the walk's width: `std::int64_t`
/// when the comparator's bound holds (`MoveComparator::narrow_mode`),
/// `i128` otherwise.
template <typename Int>
struct IntegerGameView {
  std::vector<Int> power;   ///< miner -> m_p
  std::vector<Int> reward;  ///< coin -> F(c)
};

/// Throws std::invalid_argument unless every power and reward is an
/// integer that fits `Int`. Instantiated for `std::int64_t` and `i128`.
template <typename Int>
IntegerGameView<Int> integer_game_view(const Game& game);

/// The integer walker's state: the plain odometer plus incrementally
/// maintained raw masses and populations — what `Configuration` tracks,
/// without a `Rational` (or a heap object) anywhere near the hot loop.
template <typename Int>
struct IntegerWalkState {
  std::vector<std::uint32_t> digits;      ///< miner -> coin
  std::vector<Int> mass;                  ///< coin -> M_c
  std::vector<std::uint32_t> population;  ///< coin -> |P_c|
};

/// `walk_canonical_range` on raw integers: same global canonical odometer,
/// same order, ~4 integer adds per step. `visit(const
/// IntegerWalkState<Int>&)` returns false to abort. Consumers materialize
/// a `Configuration` only on hits (`materialize_configuration`).
template <typename Int, typename Visit>
bool walk_canonical_range_integer(const IntegerGameView<Int>& view,
                                  const SymmetryClasses& classes,
                                  std::size_t num_coins,
                                  const std::vector<std::uint32_t>& start,
                                  std::uint64_t count, Visit&& visit) {
  if (count == 0) return true;
  const std::size_t n = view.power.size();
  const std::uint32_t coins = static_cast<std::uint32_t>(num_coins);
  IntegerWalkState<Int> st;
  st.digits = start;
  st.mass.assign(coins, 0);
  st.population.assign(coins, 0);
  for (std::size_t i = 0; i < n; ++i) {
    st.mass[st.digits[i]] += view.power[i];
    ++st.population[st.digits[i]];
  }
  for (;;) {
    if (!visit(static_cast<const IntegerWalkState<Int>&>(st))) return false;
    if (--count == 0) return true;
    std::size_t pos = 0;
    while (pos < n) {
      const std::uint32_t from = st.digits[pos];
      if (from < canonical_cap(classes, st.digits, pos, coins)) {
        st.mass[from] -= view.power[pos];
        --st.population[from];
        st.digits[pos] = from + 1;
        st.mass[from + 1] += view.power[pos];
        ++st.population[from + 1];
        break;
      }
      if (from != 0) {
        st.mass[from] -= view.power[pos];
        --st.population[from];
        st.digits[pos] = 0;
        st.mass[0] += view.power[pos];
        ++st.population[0];
      }
      ++pos;
    }
    GOC_ASSERT(pos < n, "rank range ran past the canonical space");
  }
}

/// `enumerate_planned` over the integer walker.
template <typename Int, typename MakeState, typename Visit>
auto enumerate_planned_integer(const IntegerGameView<Int>& view,
                               const SymmetryClasses& classes,
                               std::size_t num_coins, const ShardPlan& plan,
                               const EnumerationOptions& opts, std::size_t lanes,
                               MakeState&& make_state, Visit&& visit)
    -> std::vector<std::decay_t<std::invoke_result_t<MakeState&, std::size_t>>> {
  return enumeration_detail::run_shards(
      plan, opts, lanes, std::forward<MakeState>(make_state),
      [&](auto& state, std::size_t i) {
        walk_canonical_range_integer(view, classes, num_coins, plan.starts[i],
                                     plan.sizes[i],
                                     [&](const IntegerWalkState<Int>& st) {
                                       return visit(state, st, i);
                                     });
      });
}

/// `enumerate_states` over the integer walker: resolves lanes and plans
/// shards from `opts`, then fans out `walk_canonical_range_integer`. Each
/// call bumps `enum.walks.int64` or `enum.walks.i128` once, by width.
template <typename Int, typename MakeState, typename Visit>
auto enumerate_states_integer(const Game& game,
                              const IntegerGameView<Int>& view,
                              const SymmetryClasses& classes,
                              const EnumerationOptions& opts,
                              MakeState&& make_state, Visit&& visit)
    -> std::vector<std::decay_t<std::invoke_result_t<MakeState&, std::size_t>>> {
  static obs::Counter& kWalks = obs::Registry::instance().counter(
      std::is_same_v<Int, std::int64_t> ? "enum.walks.int64"
                                        : "enum.walks.i128");
  kWalks.add();
  const auto canonical = canonical_count(game.system(), classes);
  const std::size_t lanes = enumeration_lanes(opts, canonical);
  const ShardPlan plan =
      plan_shards(game.system(), classes, shard_target(opts, lanes, canonical));
  return enumerate_planned_integer(view, classes, game.num_coins(), plan, opts,
                                   lanes, std::forward<MakeState>(make_state),
                                   std::forward<Visit>(visit));
}

/// A `Configuration` with the walker's current assignment (hit path only).
Configuration materialize_configuration(const std::shared_ptr<const System>& system,
                                        const std::vector<std::uint32_t>& digits);

/// Lock-free fetch-min: records `value` in `slot` iff smaller. The
/// cross-shard witness-priority primitive — a shard that finds a witness
/// stamps its index, and shards above the current minimum abort while
/// shards below always finish, making the reported witness the first in
/// canonical order at any thread count.
inline void atomic_store_min(std::atomic<std::size_t>& slot, std::size_t value) {
  std::size_t expected = slot.load(std::memory_order_relaxed);
  while (value < expected && !slot.compare_exchange_weak(expected, value)) {
  }
}

// ------------------------------------------------------------ access

/// Incremental `Game::respects_access` for enumeration walks: tracks the
/// number of miners sitting on coins they may not mine through the
/// move-epoch hook, so each odometer step costs O(1) instead of the O(n)
/// from-scratch scan. Falls back to a full recount on epoch jumps or a
/// change of tracked configuration object.
class AccessTracker {
 public:
  explicit AccessTracker(const Game& game);

  /// True iff every miner in `s` sits on an allowed coin.
  bool respects(const Configuration& s);

 private:
  const Game* game_;
  const Configuration* tracked_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::size_t violations_ = 0;
  bool unrestricted_;
};

}  // namespace goc
