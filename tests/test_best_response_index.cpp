#include <gtest/gtest.h>

#include <tuple>

#include "core/generators.hpp"
#include "core/move_compare.hpp"
#include "core/moves.hpp"
#include "dynamics/best_response_index.hpp"
#include "dynamics/learning.hpp"
#include "dynamics/scheduler.hpp"
#include "int64_bound_games.hpp"
#include "obs/registry.hpp"
#include "oracle/oracle.hpp"

/// The index contract: `dynamics::BestResponseIndex` must agree with the
/// from-scratch scans in core/moves.* and tests/oracle on every cached
/// fact, and each library scheduler must pick its `oracle::ScanScheduler`'s
/// move sequence bit for bit — for every kind, under adversarial mass ties
/// (Assumption 2 off), under restricted access, in the non-integer
/// exact-arithmetic mode, and where i128 products overflow.

namespace goc {
namespace {

using dynamics::BestResponseIndex;

Game random_integer_game(Rng& rng) {
  GameSpec spec;
  spec.num_miners = 3 + static_cast<std::size_t>(rng.next_below(15));
  spec.num_coins = 2 + static_cast<std::size_t>(rng.next_below(5));
  spec.power_lo = 1;
  spec.power_hi = 500;
  spec.reward_lo = 10;
  spec.reward_hi = 5000;
  return random_game(spec, rng);
}

/// A game whose powers and rewards are non-integer rationals, forcing the
/// comparator off the i128 fast path.
Game rational_game() {
  std::vector<Rational> powers = {Rational(7, 3), Rational(5, 3),
                                  Rational(11, 7), Rational(1, 2),
                                  Rational(13, 6)};
  std::vector<Rational> rewards = {Rational(10, 3), Rational(7, 2),
                                   Rational(9, 4)};
  const std::size_t coins = rewards.size();
  return Game(System(std::move(powers), coins),
              RewardFunction(std::move(rewards)));
}

/// Integer powers with market-style rewards: `from_double` quantizations
/// with denominators up to 2^20, which the comparator rescales to their
/// lcm so that it compares integer numerators.
Game common_denominator_game(Rng& rng) {
  const Game base = random_integer_game(rng);
  std::vector<Rational> weights;
  for (std::size_t c = 0; c < base.num_coins(); ++c) {
    weights.push_back(Rational::from_double(rng.uniform(0.1, 10.0), 1 << 20));
  }
  return Game(base.system_ptr(), RewardFunction(std::move(weights)));
}

/// Integer game whose gain cross products overflow i128: powers near 2^40
/// and rewards near 2^30 keep every `move_gain` Rational representable
/// (m·F·M stays below 2^115), while the gain fractions' cross products
/// (about m·F·M³) need far more than 127 bits.
Game overflow_game(Rng& rng) {
  GameSpec spec;
  spec.num_miners = 3 + static_cast<std::size_t>(rng.next_below(6));
  spec.num_coins = 2 + static_cast<std::size_t>(rng.next_below(3));
  spec.power_lo = std::int64_t{1} << 39;
  spec.power_hi = std::int64_t{1} << 40;
  spec.reward_lo = std::int64_t{1} << 29;
  spec.reward_hi = std::int64_t{1} << 30;
  return random_game(spec, rng);
}

/// The `core.compare.exact_fallbacks` counter: i128 decisions handed to
/// `Rational` because a product overflowed.
obs::Counter& exact_fallbacks() {
  return obs::Registry::instance().counter("core.compare.exact_fallbacks");
}

/// Equal powers and equal rewards: Assumption 2 (genericity) is maximally
/// violated, so post-move payoffs tie constantly and every tie-break in
/// the index is exercised.
Game tie_game(std::size_t miners, std::size_t coins) {
  return Game(System::from_integer_powers(
                  std::vector<std::int64_t>(miners, 3), coins),
              RewardFunction::constant(coins, Rational(12)));
}

void expect_index_matches_scan(const Game& g, const Configuration& s,
                               const BestResponseIndex& index) {
  ASSERT_NO_THROW(index.audit());
  EXPECT_EQ(index.unstable(), oracle::unstable_miners(g, s));
  EXPECT_EQ(index.total_improving(), all_better_response_moves(g, s).size());
  EXPECT_EQ(index.at_equilibrium(), is_equilibrium(g, s));
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    EXPECT_EQ(index.best_of(miner), best_response(g, s, miner));
    const auto options = better_responses(g, s, miner);
    ASSERT_EQ(index.improving_count(miner), options.size());
    for (std::size_t i = 0; i < options.size(); ++i) {
      EXPECT_EQ(index.nth_improving(miner, i), options[i]);
    }
  }
}

// ---------------------------------------------------- configuration hook

TEST(MoveEpoch, EffectiveMovesBumpEpochAndRecordDelta) {
  const Game g = tie_game(4, 3);
  Configuration s = Configuration::all_at(g.system_ptr(), CoinId(0));
  EXPECT_EQ(s.move_epoch(), 0u);
  s.move(MinerId(2), CoinId(1));
  EXPECT_EQ(s.move_epoch(), 1u);
  EXPECT_EQ(s.last_delta().miner, MinerId(2));
  EXPECT_EQ(s.last_delta().from, CoinId(0));
  EXPECT_EQ(s.last_delta().to, CoinId(1));
  // No-op move: epoch unchanged.
  s.move(MinerId(2), CoinId(1));
  EXPECT_EQ(s.move_epoch(), 1u);
  // Copies inherit the epoch counter.
  const Configuration copy = s;
  EXPECT_EQ(copy.move_epoch(), 1u);
}

// -------------------------------------------------------- move comparator

TEST(MoveComparator, AgreesWithPayoffOrderOnRandomConfigurations) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const Game g = random_integer_game(rng);
    const MoveComparator cmp(g);
    EXPECT_TRUE(cmp.integer_mode());
    EXPECT_TRUE(cmp.narrow_mode());  // generator games fit int64
    const Configuration s = random_configuration(g, rng);
    for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
      const MinerId miner(p);
      for (std::uint32_t a = 0; a < g.num_coins(); ++a) {
        for (std::uint32_t b = 0; b < g.num_coins(); ++b) {
          const Rational va = g.payoff_if_move(s, miner, CoinId(a));
          const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
          EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
        }
      }
    }
  }
}

TEST(MoveComparator, ExactModeForNonIntegerGames) {
  const Game g = rational_game();
  const MoveComparator cmp(g);
  EXPECT_FALSE(cmp.integer_mode());
  Rng rng(7);
  const Configuration s = random_configuration(g, rng);
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    for (std::uint32_t a = 0; a < g.num_coins(); ++a) {
      for (std::uint32_t b = 0; b < g.num_coins(); ++b) {
        const Rational va = g.payoff_if_move(s, miner, CoinId(a));
        const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
        EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
      }
    }
  }
}

TEST(MoveComparator, FastModeForCommonDenominatorRewards) {
  // Non-integer rewards over integer powers: integer_mode stays off (the
  // enumeration/potential layers rely on its strict all-integers meaning)
  // but the rescaled-numerator path still applies — this is the market
  // epoch engine's workload, whose weights are from_double quantizations.
  const Game g(System::from_integer_powers({5, 9, 2, 14}, 3),
               RewardFunction({Rational(7, 4), Rational(3, 2),
                               Rational::from_double(0.371, 1 << 20)}));
  const MoveComparator cmp(g);
  EXPECT_FALSE(cmp.integer_mode());
  EXPECT_TRUE(cmp.fast_mode());
  Rng rng(19);
  const Configuration s = random_configuration(g, rng);
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    const MinerId miner(p);
    for (std::uint32_t a = 0; a < g.num_coins(); ++a) {
      for (std::uint32_t b = 0; b < g.num_coins(); ++b) {
        const Rational va = g.payoff_if_move(s, miner, CoinId(a));
        const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
        EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
      }
    }
  }
  // Non-integer powers kill both modes regardless of the rewards.
  const MoveComparator exact(rational_game());
  EXPECT_FALSE(exact.fast_mode());
}

TEST(MoveComparator, RefreshTracksReweightedRewards) {
  Rng rng(23);
  Game g = random_integer_game(rng);
  const Configuration s = random_configuration(g, rng);
  MoveComparator cmp(g);
  EXPECT_TRUE(cmp.integer_mode());
  // Swing through fractional weights and back to integers; after every
  // reweight+refresh the comparator must agree with the exact payoff
  // order and report the right mode.
  std::vector<Rational> weights(g.num_coins());
  for (int round = 0; round < 4; ++round) {
    for (std::size_t c = 0; c < weights.size(); ++c) {
      weights[c] = round % 2 == 0
                       ? Rational::from_double(
                             0.2 + 0.37 * static_cast<double>(c + round),
                             1 << 20)
                       : Rational(static_cast<std::int64_t>(3 + c + round));
    }
    g.reweight(weights);
    cmp.refresh();
    EXPECT_EQ(cmp.integer_mode(), round % 2 != 0);
    EXPECT_TRUE(cmp.fast_mode());
    for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
      const MinerId miner(p);
      for (std::uint32_t a = 0; a < g.num_coins(); ++a) {
        for (std::uint32_t b = 0; b < g.num_coins(); ++b) {
          const Rational va = g.payoff_if_move(s, miner, CoinId(a));
          const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
          EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
        }
      }
    }
  }
}

TEST(MoveComparator, CompareGainsMatchesRationalGainOrder) {
  // compare_gains must equal the order of the two exact `move_gain`
  // Rationals for every (p→tp, q→tq) pair — improving, worsening and
  // stay-put targets alike — in each comparator regime. Generator games
  // never leave the i128 path; the overflow games must hand decisions to
  // Rational. Common-denominator rescaling can go either way: the lcm of
  // several from_double denominators reaches 2^60 and beyond.
  obs::set_enabled(true);
  exact_fallbacks().reset();
  Rng rng(211);
  const auto check = [](const Game& g, const Configuration& s) {
    const MoveComparator cmp(g);
    ASSERT_TRUE(cmp.fast_mode());
    const std::size_t n = g.num_miners();
    const std::size_t coins = g.num_coins();
    std::vector<Rational> gains;
    for (std::uint32_t p = 0; p < n; ++p) {
      for (std::uint32_t t = 0; t < coins; ++t) {
        gains.push_back(move_gain(g, s, MinerId(p), CoinId(t)));
      }
    }
    for (std::size_t a = 0; a < gains.size(); ++a) {
      for (std::size_t b = 0; b < gains.size(); ++b) {
        const MinerId p(static_cast<std::uint32_t>(a / coins));
        const CoinId tp(static_cast<std::uint32_t>(a % coins));
        const MinerId q(static_cast<std::uint32_t>(b / coins));
        const CoinId tq(static_cast<std::uint32_t>(b % coins));
        ASSERT_EQ(cmp.compare_gains(s, p, tp, q, tq), gains[a] <=> gains[b])
            << "p=" << p.value << " tp=" << tp.value << " q=" << q.value
            << " tq=" << tq.value;
      }
    }
  };
  for (int trial = 0; trial < 6; ++trial) {
    const Game g = random_integer_game(rng);
    check(g, random_configuration(g, rng));
  }
  EXPECT_EQ(exact_fallbacks().total(), 0u);
  for (int trial = 0; trial < 6; ++trial) {
    const Game g = common_denominator_game(rng);
    check(g, random_configuration(g, rng));
  }
  exact_fallbacks().reset();
  for (int trial = 0; trial < 6; ++trial) {
    const Game g = overflow_game(rng);
    check(g, random_configuration(g, rng));
  }
  EXPECT_GT(exact_fallbacks().total(), 0u);
}

TEST(MoveComparator, Int64TierAgreesWithRationalAtTheBound) {
  // M_tot·K_max just below INT64_MAX runs compare/stable on unchecked
  // int64; just above, on checked i128. Both sides must agree with the
  // Rational reference, including the all-on-one-coin configurations,
  // whose cross products K_max·M_tot come closest to the limit. Neither
  // side overflows i128, so no decision reaches Rational.
  obs::set_enabled(true);
  exact_fallbacks().reset();
  Rng rng(307);
  for (const bool above : {false, true}) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t miners =
          3 + static_cast<std::size_t>(rng.next_below(5));
      const std::size_t coins =
          2 + static_cast<std::size_t>(rng.next_below(3));
      const Game g = testing::int64_bound_game(rng, miners, coins, above);
      const MoveComparator cmp(g);
      ASSERT_TRUE(cmp.integer_mode());
      EXPECT_EQ(cmp.narrow_mode(), !above) << g.to_string();
      std::vector<Configuration> configs;
      for (std::uint32_t c = 0; c < coins; ++c) {
        configs.push_back(Configuration::all_at(g.system_ptr(), CoinId(c)));
      }
      for (int i = 0; i < 4; ++i) {
        configs.push_back(random_configuration(g, rng));
      }
      for (const Configuration& s : configs) {
        for (std::uint32_t p = 0; p < miners; ++p) {
          const MinerId miner(p);
          EXPECT_EQ(cmp.stable(s, miner), is_stable(g, s, miner));
          for (std::uint32_t a = 0; a < coins; ++a) {
            if (CoinId(a) != s.of(miner)) {
              EXPECT_EQ(cmp.improves(s, miner, CoinId(a)),
                        is_better_response(g, s, miner, CoinId(a)));
            }
            for (std::uint32_t b = 0; b < coins; ++b) {
              const Rational va = g.payoff_if_move(s, miner, CoinId(a));
              const Rational vb = g.payoff_if_move(s, miner, CoinId(b));
              EXPECT_EQ(cmp.compare(s, miner, CoinId(a), CoinId(b)), va <=> vb);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(exact_fallbacks().total(), 0u);
}

TEST(MoveComparator, RefreshRederivesTheInt64Bound) {
  // A reweight can carry a game across the bound in either direction;
  // refresh must re-derive the tier, or an epoch would run unchecked int64
  // on products that no longer fit.
  Rng rng(311);
  Game g = testing::int64_bound_game(rng, 4, 3, /*above=*/false);
  MoveComparator cmp(g);
  EXPECT_TRUE(cmp.narrow_mode());
  const std::vector<Rational> below = g.rewards().values();
  std::vector<Rational> above = below;
  for (Rational& f : above) f = f + f;
  g.reweight(above);
  cmp.refresh();
  EXPECT_FALSE(cmp.narrow_mode());
  EXPECT_TRUE(cmp.fast_mode());
  const Configuration s = Configuration::all_at(g.system_ptr(), CoinId(0));
  for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
    EXPECT_EQ(cmp.stable(s, MinerId(p)), is_stable(g, s, MinerId(p)));
  }
  g.reweight(below);
  cmp.refresh();
  EXPECT_TRUE(cmp.narrow_mode());
}

// --------------------------------------------------- reweight primitives

TEST(RewardFunctionAssign, ReplacesInPlaceWithConstructorValidation) {
  RewardFunction f = RewardFunction::constant(3, Rational(2));
  EXPECT_THROW(f.assign({Rational(1), Rational(2)}), std::invalid_argument);
  EXPECT_THROW(f.assign({Rational(1), Rational(0), Rational(2)}),
               std::invalid_argument);
  EXPECT_THROW(f.assign({Rational(1), Rational(-3), Rational(2)}),
               std::invalid_argument);
  // Failed assigns must leave the function untouched.
  EXPECT_EQ(f(CoinId(1)), Rational(2));
  f.assign({Rational(1, 2), Rational(5), Rational(9, 4)});
  EXPECT_EQ(f(CoinId(0)), Rational(1, 2));
  EXPECT_EQ(f.min_reward(), Rational(1, 2));
  EXPECT_EQ(f.max_reward(), Rational(5));
  EXPECT_EQ(f.total_reward(), Rational(1, 2) + Rational(5) + Rational(9, 4));
  EXPECT_FALSE(f.is_symmetric());
}

TEST(GameReweight, SwapsRewardsAndKeepsSystemAndAccess) {
  Rng rng(29);
  Game g = random_integer_game(rng);
  const auto system = g.system_ptr();
  const std::vector<Rational> weights(g.num_coins(), Rational(7, 3));
  g.reweight(weights);
  EXPECT_EQ(g.system_ptr(), system);
  EXPECT_EQ(g.rewards().values(), weights);
  EXPECT_THROW(g.reweight(std::vector<Rational>(g.num_coins() + 1,
                                                Rational(1))),
               std::invalid_argument);
}

// ------------------------------------------------------- index vs scan

TEST(BestResponseIndex, FreshBuildMatchesScan) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Game g = random_integer_game(rng);
    const Configuration s = random_configuration(g, rng);
    const BestResponseIndex index(g, s);
    expect_index_matches_scan(g, s, index);
  }
}

TEST(BestResponseIndex, IncrementalSyncMatchesScanAlongTrajectories) {
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const Game g = random_integer_game(rng);
    Configuration s = random_configuration(g, rng);
    BestResponseIndex index(g, s);
    oracle::ScanScheduler scheduler(SchedulerKind::kRandomMove, 99 + trial);
    for (int step = 0; step < 200; ++step) {
      const auto move = scheduler.pick(g, s, index);
      if (!move) break;
      s.move(move->miner, move->to);
      index.sync(s);
      expect_index_matches_scan(g, s, index);
    }
  }
}

TEST(BestResponseIndex, InvalidationStressUnderAdversarialMassTies) {
  // Assumption 2 off: every miner identical, every reward identical — the
  // payoff landscape is wall-to-wall exact ties, so stale-best and
  // tie-break bugs in the dirty-coin invalidation cannot hide.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Game g = tie_game(12, 4);
    Rng rng(seed);
    Configuration s = random_configuration(g, rng);
    BestResponseIndex index(g, s);
    oracle::ScanScheduler scheduler(SchedulerKind::kRandomMove, seed * 31);
    for (int step = 0; step < 300; ++step) {
      const auto move = scheduler.pick(g, s, index);
      if (!move) break;
      s.move(move->miner, move->to);
      index.sync(s);
      expect_index_matches_scan(g, s, index);
    }
    EXPECT_TRUE(is_equilibrium(g, s));
  }
}

TEST(BestResponseIndex, SyncRebuildsAfterBatchedForeignMoves) {
  const Game g = tie_game(8, 3);
  Rng rng(5);
  // Everyone piled onto one coin: far from equilibrium, so at least two
  // consecutive improving moves exist.
  Configuration s = Configuration::all_at(g.system_ptr(), CoinId(0));
  BestResponseIndex index(g, s);
  // Two moves without an intervening sync: the epoch jumps by 2, so sync
  // must fall back to a full rebuild rather than replaying one delta.
  const auto moves = all_better_response_moves(g, s);
  ASSERT_GE(moves.size(), 1u);
  s.move(moves.front().miner, moves.front().to);
  const auto more = all_better_response_moves(g, s);
  ASSERT_GE(more.size(), 1u);
  s.move(more.front().miner, more.front().to);
  EXPECT_FALSE(index.in_sync(s));
  index.sync(s);
  EXPECT_TRUE(index.in_sync(s));
  expect_index_matches_scan(g, s, index);
  // Syncing to a *different* configuration object also rebuilds.
  Configuration other = random_configuration(g, rng);
  index.sync(other);
  expect_index_matches_scan(g, other, index);
}

// ------------------------------------- scheduler path equivalence (all 8)

class IndexedSchedulerEquivalence
    : public ::testing::TestWithParam<
          std::tuple<SchedulerKind, std::uint64_t>> {};

/// Runs learning from `start` under the oracle and the library scheduler of
/// `kind`, both seeded with `seed`, and expects the same moves, gains
/// included. `audit` cross-checks the index every library step.
void expect_paths_match_move_for_move(const Game& g,
                                      const Configuration& start,
                                      SchedulerKind kind, std::uint64_t seed,
                                      bool audit = false) {
  LearningOptions opts;
  opts.record_moves = true;
  oracle::ScanScheduler scan_sched(kind, seed);
  const LearningResult scan = run_learning(g, start, scan_sched, opts);
  opts.audit_potential = audit;
  auto index_sched = make_scheduler(kind, seed);
  const LearningResult indexed = run_learning(g, start, *index_sched, opts);

  EXPECT_TRUE(scan.converged);
  EXPECT_TRUE(indexed.converged);
  ASSERT_EQ(scan.steps, indexed.steps) << scheduler_kind_name(kind);
  EXPECT_EQ(scan.move_hash, indexed.move_hash);
  EXPECT_TRUE(scan.final_configuration == indexed.final_configuration);
  ASSERT_EQ(scan.trace.size(), indexed.trace.size());
  for (std::size_t i = 0; i < scan.trace.size(); ++i) {
    const Move& a = scan.trace.moves()[i];
    const Move& b = indexed.trace.moves()[i];
    EXPECT_EQ(a.miner, b.miner) << "step " << i;
    EXPECT_EQ(a.from, b.from) << "step " << i;
    EXPECT_EQ(a.to, b.to) << "step " << i;
    EXPECT_EQ(a.gain, b.gain) << "step " << i;
  }
}

TEST_P(IndexedSchedulerEquivalence, TrajectoriesMatchMoveForMove) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  const Game g = random_integer_game(rng);
  const Configuration start = random_configuration(g, rng);
  expect_paths_match_move_for_move(g, start, kind, seed ^ 0xF00D);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexedSchedulerEquivalence,
    ::testing::Combine(::testing::ValuesIn(all_scheduler_kinds()),
                       ::testing::Values(21u, 22u, 23u, 24u)));

TEST(BestResponseIndex, ReweightMatchesFreshRebuildForEveryKind) {
  // The zero-rebuild market contract: after Game::reweight +
  // BestResponseIndex::reweight, the pair must be indistinguishable from a
  // freshly constructed Game/Index — same cached facts, and bit-identical
  // move sequences under every scheduler kind (same RNG draws included).
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    Rng rng(404);
    Game g = random_integer_game(rng);
    Configuration s = random_configuration(g, rng);
    BestResponseIndex index(g, s);
    // Warm the index with incremental history so reweight starts from a
    // synced-but-nontrivial internal state, then swap in market-style
    // fractional weights.
    auto warm = make_scheduler(SchedulerKind::kRandomMiner, 9);
    for (int step = 0; step < 25; ++step) {
      const auto move = warm->pick(g, s, index);
      if (!move) break;
      s.move(move->miner, move->to);
      index.sync(s);
    }
    std::vector<Rational> weights(g.num_coins());
    for (std::size_t c = 0; c < weights.size(); ++c) {
      weights[c] = Rational::from_double(
          0.4 + 0.83 * static_cast<double>(c), 1 << 20);
    }
    g.reweight(weights);
    index.reweight();
    expect_index_matches_scan(g, s, index);

    Game fresh(g.system_ptr(), RewardFunction(weights), g.access());
    Configuration fresh_s = s;
    BestResponseIndex fresh_index(fresh, fresh_s);
    auto sched = make_scheduler(kind, 555);
    auto fresh_sched = make_scheduler(kind, 555);
    for (int step = 0; step < 200; ++step) {
      const auto a = sched->pick(g, s, index);
      const auto b = fresh_sched->pick(fresh, fresh_s, fresh_index);
      ASSERT_EQ(a.has_value(), b.has_value()) << scheduler_kind_name(kind);
      if (!a) break;
      EXPECT_EQ(a->miner, b->miner) << scheduler_kind_name(kind);
      EXPECT_EQ(a->to, b->to) << scheduler_kind_name(kind);
      EXPECT_EQ(a->gain, b->gain) << scheduler_kind_name(kind);
      s.move(a->miner, a->to);
      index.sync(s);
      fresh_s.move(b->miner, b->to);
      fresh_index.sync(fresh_s);
    }
    EXPECT_TRUE(s == fresh_s) << scheduler_kind_name(kind);
  }
}

TEST(IndexedScheduler, TieGameTrajectoriesMatchForEveryKind) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const Game g = tie_game(10, 3);
    Rng rng(77);
    expect_paths_match_move_for_move(g, random_configuration(g, rng), kind, 5);
  }
}

TEST(IndexedScheduler, RestrictedAccessTrajectoriesMatch) {
  for (const SchedulerKind kind :
       {SchedulerKind::kRandomMove, SchedulerKind::kMaxGain,
        SchedulerKind::kMinGain, SchedulerKind::kLexicographic}) {
    Rng rng(31);
    GameSpec spec;
    spec.num_miners = 12;
    spec.num_coins = 5;
    Game base = random_game(spec, rng);
    AccessPolicy policy = AccessPolicy::random(12, 5, 0.5, rng);
    const Game g(base.system_ptr(), base.rewards(), policy);
    // Start everyone on an allowed coin.
    std::vector<CoinId> assignment;
    for (std::uint32_t p = 0; p < 12; ++p) {
      assignment.push_back(g.allowed_coins(MinerId(p)).front());
    }
    const Configuration start(g.system_ptr(), assignment);
    expect_paths_match_move_for_move(g, start, kind, 9, /*audit=*/true);
  }
}

TEST(IndexedScheduler, NonIntegerGameTrajectoriesMatch) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const Game g = rational_game();
    Rng rng(41);
    expect_paths_match_move_for_move(g, random_configuration(g, rng), kind, 3,
                                     /*audit=*/true);
  }
}

TEST(IndexedScheduler, GainExtremalTrajectoriesMatchInOverflowRegime) {
  // The gain-extremal schedulers order gains across miners with
  // compare_gains. On generator games that stays on the i128 path; on
  // overflow games the Rational fallback decides, and both must pick the
  // scan's moves.
  obs::set_enabled(true);
  exact_fallbacks().reset();
  for (const SchedulerKind kind :
       {SchedulerKind::kMinGain, SchedulerKind::kMaxGain}) {
    for (const std::uint64_t seed : {61u, 62u, 63u}) {
      Rng rng(seed);
      const Game g = random_integer_game(rng);
      expect_paths_match_move_for_move(g, random_configuration(g, rng), kind,
                                       seed ^ 0xF00D);
    }
  }
  EXPECT_EQ(exact_fallbacks().total(), 0u);
  for (const SchedulerKind kind :
       {SchedulerKind::kMinGain, SchedulerKind::kMaxGain}) {
    for (const std::uint64_t seed : {71u, 72u, 73u, 74u}) {
      Rng rng(seed);
      const Game g = overflow_game(rng);
      expect_paths_match_move_for_move(g, random_configuration(g, rng), kind,
                                       seed ^ 0xF00D);
    }
  }
  EXPECT_GT(exact_fallbacks().total(), 0u);
}

// --------------------------------------------------------- epsilon driver

TEST(IndexedEpsilon, ScanAndIndexPathsAgree) {
  Rng rng(53);
  for (int trial = 0; trial < 4; ++trial) {
    const Game g = random_integer_game(rng);
    const Configuration start = random_configuration(g, rng);
    for (const Rational& eps :
         {Rational(0), Rational(1, 100), Rational(1, 4)}) {
      const auto scan = oracle::run_learning_to_epsilon(g, start, eps);
      const auto indexed = run_learning_to_epsilon(g, start, eps);
      EXPECT_EQ(scan.steps, indexed.steps);
      EXPECT_EQ(scan.move_hash, indexed.move_hash);
      EXPECT_TRUE(scan.final_configuration == indexed.final_configuration);
      EXPECT_TRUE(scan.converged && indexed.converged);
    }
  }
}

}  // namespace
}  // namespace goc
